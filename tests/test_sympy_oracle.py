"""Exact oracle: sympy computes the Christoffel symbols, each span's mean
curvature normal H, nabla_X H over the span's fields, and the umbilicity,
sphericity and geodesy residuals of the fixtures from their closed-form
metrics, and the mean curvature normals eta and zeta of the eigen-nets of
two Codazzi pairs with <nabla_X eta, Y> and <nabla_Y zeta, X>, at dyadic
rational points (so the float sample is the rational point itself). The
numeric paths must agree to 1e-12 relative."""

import numpy as np
import pytest

from orthonet import codazzi, fixtures
from orthonet.chart_calculus import christoffel, metric_at
from orthonet.codazzi import codazzi_residual, criteria_residuals
from orthonet.nets import OrthogonalNet, _Samples, distribution_geometry

sp = pytest.importorskip("sympy")

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


def _span(gm, xs, gamma, idx):
    """H and nabla_{d_a} H, a in idx, of the span of the coordinate fields
    idx, and its umbilicity defects (a, b, vector) for a <= b in idx."""
    n, r = len(xs), len(idx)
    gram_inv = gm.extract(idx, idx).inv()

    def perp(w):
        ips = [sum(gm[k, b] * w[k] for k in range(n)) for b in idx]
        coeff = [sum(gram_inv[a, b] * ips[b] for b in range(r)) for a in range(r)]
        return [w[k] - sum(coeff[a] for a in range(r) if idx[a] == k) for k in range(n)]

    sperp = {(a, b): perp([gamma[k][a][b] for k in range(n)]) for a in idx for b in idx}
    H = [sum(gram_inv[p, q] * sperp[(idx[p], idx[q])][k] for p in range(r) for q in range(r)) / r
         for k in range(n)]
    covH = [[sp.diff(H[k], xs[a]) + sum(gamma[k][a][j] * H[j] for j in range(n))
             for k in range(n)] for a in idx]
    defects = [(a, b, [sperp[(a, b)][k] - gm[a, b] * H[k] for k in range(n)])
               for i, a in enumerate(idx) for b in idx[i:]]
    return H, covH, defects


class _At:
    """Exact expressions evaluated at one rational point, as floats."""

    def __init__(self, xs, point):
        self.subs = dict(zip(xs, point))

    def __call__(self, exprs) -> np.ndarray:
        return np.array([float(sp.N(sp.sympify(x).xreplace(self.subs), 30)) for x in exprs])


def _residuals(G, idx, other, H, covH, defects):
    """umbilicity, sphericity and geodesy of a span from its exact values."""
    norm = np.sqrt(np.diag(G))

    def gnorm(w):
        return float(np.sqrt(w @ G @ w))

    umb = 0.0
    if len(idx) > 1:
        umb = max(gnorm(d) / (norm[a] * norm[b]) for a, b, d in defects)
    sph = max((abs(covH[p] @ G[:, c]) / (norm[a] * norm[c])
               for p, a in enumerate(idx) for c in other), default=0.0)
    return umb, sph, umb + gnorm(H)


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
    spans = {}
    for p in points:
        at = _At(xs, p)
        pf = tuple(float(c) for c in p)
        G = at([gm[i, j] for i in range(n) for j in range(n)]).reshape(n, n)
        _close(metric_at(g, pf)[0], G)
        exact_gamma = at([gamma[k][i][j] for k in range(n) for i in range(n) for j in range(n)])
        _close(christoffel(g, pf), exact_gamma.reshape(n, n, n))

        for blocks in _nets(n):
            net = OrthogonalNet.coordinate(g.chart, blocks)
            samples = _Samples(g, net, range(len(blocks)), [pf], [pf])
            for i, blk in enumerate(blocks):
                comp = net.complement(i)
                exact = []
                for idx, other in ((blk, comp), (comp, blk)):
                    if idx not in spans:
                        spans[idx] = _span(gm, xs, gamma, list(idx))
                    H, covH, defects = spans[idx]
                    H = at(H)
                    covH = np.stack([at(row) for row in covH])
                    defects = [(a, b, at(d)) for a, b, d in defects]
                    exact.append((H, covH, _residuals(G, idx, other, H, covH, defects)))
                (H, covH, (umb, sph, geo)), (eta, cov_eta, (umb_p, sph_p, geo_p)) = exact

                geom = distribution_geometry(g, net, i, pf)
                _close(geom.H, H)
                _close(geom.eta, eta)
                _close([geom.umbilicity, geom.sphericity, geom.geodesy], [umb, sph, geo])
                _close([geom.umbilicity_perp, geom.sphericity_perp, geom.geodesy_perp],
                       [umb_p, sph_p, geo_p])
                # coordinate fields commute
                assert geom.integrability == geom.integrability_perp == 0.0

                side, side_perp = samples.block(i)
                _close(side.H[0], H)
                _close(side.covH[0], covH)
                _close(side_perp.H[0], eta)
                _close(side_perp.covH[0], cov_eta)


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
    eta = _span(gm, xs, gamma, [0])[0]
    zeta = _span(gm, xs, gamma, [1])[0]
    nabla_eta, nabla_zeta = _nabla(eta, xs, gamma), _nabla(zeta, xs, gamma)
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
        at = _At(xs, p)
        n = len(xs)
        G = at([gm[i, j] for i in range(n) for j in range(n)]).reshape(n, n)
        _close(eta_v, at(eta))
        _close(zeta_v, at(zeta))
        exact_eta = np.stack([at(row) for row in nabla_eta])
        exact_zeta = np.stack([at(row) for row in nabla_zeta])
        _close(cov_eta, X @ exact_eta)
        _close(cov_zeta, Y @ exact_zeta)
        # <nabla_X eta, Y> and <nabla_Y zeta, X>, which vanish on both pairs
        _close(cov_eta @ G @ Y.T, X @ exact_eta @ G @ Y.T)
        _close(X @ G @ cov_zeta.T, X @ G @ (Y @ exact_zeta).T)
