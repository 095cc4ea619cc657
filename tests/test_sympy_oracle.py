"""Exact oracle: sympy computes the Christoffel symbols, each span's mean
curvature normal H, nabla_X H over the span's fields, and the umbilicity,
sphericity, geodesy and integrability residuals of the fixtures from their
closed-form metrics and frames, and the mean curvature normals eta and zeta
of the eigen-nets of two Codazzi pairs with <nabla_X eta, Y> and
<nabla_Y zeta, X>, at dyadic rational points (so the float sample is the
rational point itself). The numeric paths must agree to 1e-12 relative.
tests/test_nets.py checks moving frames against the same oracle."""

import numpy as np
import pytest

from orthonet import codazzi, fixtures
from orthonet.chart_calculus import christoffel, metric_at
from orthonet.codazzi import codazzi_residual, criteria_residuals
from orthonet.nets import OrthogonalNet, _net_samples, distribution_geometry

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

RTOL = 1e-12
R = sp.Rational


def _closed_forms():
    """name -> (fixture metric, coordinates, closed-form metric, points)."""
    t, th, u, v = sp.symbols("t theta u v", positive=True)
    x0, x1, x2 = sp.symbols("x0 x1 x2", positive=True)
    e = sp.exp
    return {
        "polar": (fixtures.polar, (t, th), sp.diag(1, t**2),
                  [(R(1), R(1, 2)), (R(3, 2), R(5, 4))]),
        "torus": (lambda: fixtures.torus()[0], (u, v), sp.diag(1, (2 + sp.cos(u)) ** 2),
                  [(R(1, 2), R(1)), (R(9, 8), R(1, 4))]),
        "cqw_three": (fixtures.cqw_three, (x0, x1, x2),
                      e(2 * (x0 + x1 + x2)) * sp.diag(1, e(2 * x0 * x1), 1),
                      [(R(1, 4), R(1, 2), R(3, 4)), (R(5, 8), R(1, 8), R(3, 8))]),
        "warped_three": (fixtures.warped_three, (x0, x1, x2),
                         sp.diag(1, e(2 * x0), e(4 * x0)),
                         [(R(1, 4), R(1, 2), R(3, 4)), (R(5, 8), R(1, 8), R(3, 8))]),
        "twisted_flat": (fixtures.twisted_flat, (x0, x1),
                         sp.diag(1, (1 + x0**2 * x1) ** 2),
                         [(R(1, 2), R(3, 4)), (R(9, 8), R(1, 4))]),
        "conformal_product_pair": (lambda: fixtures.conformal_product_pair().metric, (x0, x1),
                                   sp.eye(2) / (x0 + x1) ** 2,
                                   [(R(1, 4), R(1, 2)), (R(7, 8), R(5, 16))]),
    }


FORMS = _closed_forms()


def _gamma(gm, xs):
    """Gamma[k][i][j] of the metric matrix gm in the coordinates xs."""
    n = len(xs)
    ginv = gm.inv()
    return [[[sum(ginv[k, l] * (sp.diff(gm[l, j], xs[i]) + sp.diff(gm[l, i], xs[j])
                                 - sp.diff(gm[i, j], xs[l])) for l in range(n)) / 2
              for j in range(n)] for i in range(n)] for k in range(n)]


def _coordinate_fields(n, idx):
    """The coordinate fields d/dx_a, a in idx, as component lists."""
    return [[int(k == a) for k in range(n)] for a in idx]


def _span(gm, xs, gamma, fields):
    """H and nabla_{X_a} H over the fields X_a, each a list of components,
    of their span, its umbilicity defects (a, b, vector) for a <= b and its
    bracket projections [X_a, X_b]^perp (a, b, vector) for a < b, with a
    and b positions in fields."""
    n, r = len(xs), len(fields)
    X = [sp.Matrix(f) for f in fields]
    gram = sp.Matrix(r, r, lambda a, b: (X[a].T * gm * X[b])[0])
    gram_inv = gram.inv()

    def perp(w):
        ips = sp.Matrix([(X[b].T * gm * sp.Matrix(w))[0] for b in range(r)])
        coeff = gram_inv * ips
        return [w[k] - sum(coeff[a] * X[a][k] for a in range(r)) for k in range(n)]

    def nabla(V, W):
        return [sum(V[i] * sp.diff(W[k], xs[i]) for i in range(n))
                + sum(gamma[k][i][j] * V[i] * W[j] for i in range(n) for j in range(n))
                for k in range(n)]

    def bracket(V, W):
        return [sum(V[i] * sp.diff(W[k], xs[i]) - W[i] * sp.diff(V[k], xs[i]) for i in range(n))
                for k in range(n)]

    sperp = {(a, b): perp(nabla(X[a], X[b])) for a in range(r) for b in range(r)}
    H = [sum(gram_inv[a, b] * sperp[(a, b)][k] for a in range(r) for b in range(r)) / r
         for k in range(n)]
    covH = [nabla(X[a], H) for a in range(r)]
    defects = [(a, b, [sperp[(a, b)][k] - gram[a, b] * H[k] for k in range(n)])
               for a in range(r) for b in range(a, r)]
    brackets = [(a, b, perp(bracket(X[a], X[b]))) for a in range(r) for b in range(a + 1, r)]
    return H, covH, defects, brackets


def _exact(xs, exprs):
    """The function of a rational point that evaluates exprs there to 30
    digits, as floats."""
    f = sp.lambdify(xs, list(exprs), "mpmath", cse=True)

    def at(point) -> np.ndarray:
        with mpmath.workdps(30):
            return np.array([float(v) for v in f(*(mpmath.mpf(c.p) / c.q for c in point))])

    return at


def _span_at(xs, span):
    """The function of a rational point that evaluates a _span there: H,
    nabla H (rank, n), and the defects and brackets (a, b, vector)."""
    H, covH, defects, brackets = span
    n, r = len(xs), len(covH)
    pairs = [(a, b) for a, b, _ in defects + brackets]
    at = _exact(xs, [*H, *(c for row in covH for c in row),
                     *(c for _, _, v in defects + brackets for c in v)])

    def values(point):
        v = at(point).reshape(-1, n)
        vectors = [(a, b, w) for (a, b), w in zip(pairs, v[1 + r :])]
        return v[0], v[1 : 1 + r], vectors[: len(defects)], vectors[len(defects) :]

    return values


def _residuals(G, F, idx, other, H, covH, defects, brackets):
    """umbilicity, sphericity, geodesy and integrability of the span of the
    frame fields idx (rows of F) from its exact values."""
    norm = np.sqrt(np.diag(F @ G @ F.T))

    def gnorm(w):
        return float(np.sqrt(w @ G @ w))

    def pair_max(vectors):
        return max((gnorm(v) / (norm[idx[a]] * norm[idx[b]]) for a, b, v in vectors), default=0.0)

    umb = pair_max(defects) if len(idx) > 1 else 0.0
    sph = max((abs(covH[p] @ G @ F[c]) / (norm[a] * norm[c])
               for p, a in enumerate(idx) for c in other), default=0.0)
    return umb, sph, umb + gnorm(H), pair_max(brackets)


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.allclose(got, want, rtol=RTOL, atol=RTOL * scale), (got, want)


def _nets(n):
    """The coordinate net with one block per axis, and for three axes also
    the net ((0,), (1, 2)), whose second block has rank two."""
    nets = [tuple((a,) for a in range(n))]
    if n == 3:
        nets.append(((0,), (1, 2)))
    return nets


@pytest.mark.parametrize("name", sorted(FORMS))
def test_numeric_geometry_matches_exact(name):
    make, xs, gm, points = FORMS[name]
    g = make()
    n = len(xs)
    gamma = _gamma(gm, xs)
    metric = _exact(xs, list(gm))
    christoffel_at = _exact(xs, [gamma[k][i][j] for k in range(n) for i in range(n) for j in range(n)])
    spans = {}
    for p in points:
        pf = tuple(float(c) for c in p)
        G = metric(p).reshape(n, n)
        _close(metric_at(g, pf)[0], G)
        _close(christoffel(g, pf), christoffel_at(p).reshape(n, n, n))

        for blocks in _nets(n):
            net = OrthogonalNet.coordinate(g.chart, blocks)
            samples = _net_samples(g, net, range(len(blocks)), [pf])
            for i, blk in enumerate(blocks):
                comp = net.complement(i)
                exact = []
                for idx, other in ((blk, comp), (comp, blk)):
                    if idx not in spans:
                        spans[idx] = _span_at(xs, _span(gm, xs, gamma, _coordinate_fields(n, idx)))
                    H, covH, defects, brackets = spans[idx](p)
                    res = _residuals(G, np.eye(n), idx, other, H, covH, defects, brackets)
                    exact.append((H, covH, res))
                (H, covH, (umb, sph, geo, _)), (eta, cov_eta, (umb_p, sph_p, geo_p, _)) = exact

                geom = distribution_geometry(g, net, i, pf)
                _close(geom.H, H)
                _close(geom.eta, eta)
                _close([geom.umbilicity, geom.sphericity, geom.geodesy], [umb, sph, geo])
                _close([geom.umbilicity_perp, geom.sphericity_perp, geom.geodesy_perp],
                       [umb_p, sph_p, geo_p])
                # coordinate fields commute
                assert geom.integrability == geom.integrability_perp == 0.0

                side, side_perp = (samples.geo.span_values(t) for t in samples.sides[i])
                _close(side[0][0], H)
                _close(side[2][0], covH)
                _close(side_perp[0][0], eta)
                _close(side_perp[2][0], cov_eta)


def _codazzi_defects(gm, xs, phi):
    """(nabla_i Phi)^k_j - (nabla_j Phi)^k_i for i < j, simplified."""
    n = len(xs)
    gamma = _gamma(gm, xs)

    def nabla(i, j, k):
        return (sp.diff(phi[k, j], xs[i])
                + sum(gamma[k][i][l] * phi[l, j] - phi[k, l] * gamma[l][i][j] for l in range(n)))

    return [sp.simplify(nabla(i, j, k) - nabla(j, i, k))
            for i in range(n) for j in range(i + 1, n) for k in range(n)]


def _conformal_pair():
    cand = fixtures.conformal_product_pair()
    return cand.metric, cand.tensor


@pytest.mark.parametrize("name, make, phi", [
    ("torus", fixtures.torus, lambda u, v: sp.diag(1, sp.cos(u) / (2 + sp.cos(u)))),
    ("conformal_product_pair", _conformal_pair, lambda x0, x1: sp.diag(x1, -x0)),
])
def test_codazzi_defect_simplifies_to_zero(name, make, phi):
    _, xs, gm, points = FORMS[name]
    assert all(d == 0 for d in _codazzi_defects(gm, xs, phi(*xs)))
    g, tensor = make()
    for p in points:
        assert codazzi_residual(g, tensor, tuple(float(c) for c in p)) <= RTOL


def _nabla(V, xs, gamma):
    """nabla_i V^k = d_i V^k + Gamma^k_ij V^j, at [i][k]."""
    n = len(xs)
    return [[sp.diff(V[k], xs[i]) + sum(gamma[k][i][j] * V[j] for j in range(n))
             for k in range(n)] for i in range(n)]


@pytest.mark.parametrize("name, make", [
    ("torus", fixtures.torus),
    ("conformal_product_pair", _conformal_pair),
])
def test_eigen_net_normals_match_exact(name, make, monkeypatch):
    # both pairs are diagonal with lambda on the first axis, so the lambda
    # and mu eigenbundles are spanned by d/dx0 and d/dx1
    _, xs, gm, points = FORMS[name]
    gamma = _gamma(gm, xs)
    eta, zeta = (_span(gm, xs, gamma, _coordinate_fields(len(xs), [a]))[0] for a in (0, 1))
    n = len(xs)
    metric, eta_at, zeta_at = (_exact(xs, e) for e in (list(gm), eta, zeta))
    nabla_at = _exact(xs, [c for V in (eta, zeta) for row in _nabla(V, xs, gamma) for c in row])
    calls = []
    cov = codazzi._cov

    def spy(dV, gam, V, X):
        out = cov(dV, gam, V, X)
        calls.append((V[0], X[0], out[0]))
        return out

    monkeypatch.setattr(codazzi, "_cov", spy)
    g, tensor = make()
    for p in points:
        calls.clear()
        criteria_residuals(g, tensor, tuple(float(c) for c in p))
        # _criteria takes nabla_X eta over the lambda eigenvectors X, then
        # nabla_Y zeta over the mu eigenvectors Y
        (eta_v, X, cov_eta), (zeta_v, Y, cov_zeta) = calls
        G = metric(p).reshape(n, n)
        _close(eta_v, eta_at(p))
        _close(zeta_v, zeta_at(p))
        exact_eta, exact_zeta = nabla_at(p).reshape(2, n, n)
        _close(cov_eta, X @ exact_eta)
        _close(cov_zeta, Y @ exact_zeta)
        # <nabla_X eta, Y> and <nabla_Y zeta, X>, which vanish on both pairs
        _close(cov_eta @ G @ Y.T, X @ exact_eta @ G @ Y.T)
        _close(X @ G @ cov_zeta.T, X @ G @ (Y @ exact_zeta).T)
