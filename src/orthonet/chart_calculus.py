"""Metric fields and Levi-Civita calculus on a single chart.

Numbers come from one path: the fields a check reads are compiled with the
metric entries into one tape (`scalar_fields.compile_tape`) and swept over
all its sample points at once. `_stacked` does that with the checks of the
metric (positive definiteness, conditioning) and raises at the first sample
that fails, as checking one sample at a time would. The Christoffel symbols
come from one numpy kernel over the metric's jets (`_levi_civita`), and
contractions such as `_cov` are numpy over the sample axis too. The
single-point functions (`metric_at`, `christoffel`, `cov_deriv`, ...,
`lc_axiom_residuals`) are that sweep at one point.

The `*_exprs` builders and the cached inverse and Christoffel entries of a
MetricField are the pointwise reference only. Every first-order metric tape
takes all partials d_p g_ab in one layout, over p and then a <= b
(`_metric_jets`, unpacked by `_symmetric`), as one block at a documented
place among its roots, so the first failure at a sample is that of the
first failing root in that order.

Conventions: vectors are component tuples against the coordinate frame,
Gamma[k][i][j] multiplies X^i Y^j, and

    (nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j
    Gamma^k_ij    = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    (grad f)^k    = g^kl d_l f
    Hess f(X, Y)  = X(Y f) - (nabla_X Y) f
    [X, Y]^k      = X^i d_i Y^k - Y^i d_i X^k
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sys
import warnings

import numpy as np

from .errors import ConditionNumberWarning, NotSPDError
from .scalar_fields import (
    Chart,
    Expr,
    ZERO,
    ONE,
    _is_zero,
    _pairs,
    add,
    compile_tape,
    const,
    diff,
    div,
    mul,
    neg,
    sub,
    var,
)

__all__ = [
    "MetricField",
    "metric_at",
    "christoffel",
    "cov_deriv",
    "grad_field",
    "hessian_lc",
    "lie_bracket",
    "inner",
    "norm",
    "lc_axiom_residuals",
]

SPD_FLOOR = 1e-10
CONDITION_WARN = 1e8


# --- symbolic matrix helpers (dimensions up to 4, cofactor expansion) --------


def det_expr(m) -> Expr:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ZERO
    for j in range(n):
        if _is_zero(m[0][j]):
            continue  # mul would fold the term to ZERO and add would drop it
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = mul(m[0][j], det_expr(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def inverse_exprs(m) -> list[list[Expr]]:
    """Inverse via adjugate over determinant; entries share the det node."""
    n = len(m)
    d = det_expr(m)
    if n == 1:
        return [[div(ONE, m[0][0])]]
    inv = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = det_expr(minor)
            if (i + j) % 2 == 1:
                cof = neg(cof)
            inv[j][i] = div(cof, d)  # transpose of the cofactor matrix
    return inv


# --- metric fields ------------------------------------------------------------


class MetricField:
    """Symmetric positive definite metric with expression entries.

    Symmetry holds by construction: the upper triangle is stored and
    mirrored, so g[i][j] and g[j][i] are the same node. Positivity is
    checked at evaluation points, not symbolically.
    """

    def __init__(self, chart: Chart, entries):
        n = chart.dim
        rows = [list(r) for r in entries]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("metric entries must be a dim x dim matrix")
        mirrored = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mirrored[i][j] = rows[i][j]
                mirrored[j][i] = rows[i][j]
        self.chart = chart
        self.entries = tuple(tuple(r) for r in mirrored)
        self.provenance = None  # set by builders that know the structure
        self._inv = None
        self._gamma = None
        self._det = None

    @staticmethod
    def diagonal(chart: Chart, diag_entries) -> "MetricField":
        n = chart.dim
        diag_entries = list(diag_entries)
        if len(diag_entries) != n:
            raise ValueError("need one diagonal entry per coordinate")
        rows = [[diag_entries[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        return MetricField(chart, rows)

    @property
    def dim(self) -> int:
        return self.chart.dim

    def det(self) -> Expr:
        if self._det is None:
            self._det = det_expr(self.entries)
        return self._det

    def inverse_entries(self):
        if self._inv is None:
            self._inv = inverse_exprs([list(r) for r in self.entries])
        return self._inv

    def christoffel_entries(self):
        """Gamma[k][i][j] as expressions, cached on the field."""
        if self._gamma is None:
            n = self.dim
            ge = self.entries
            ginv = self.inverse_entries()
            # dg[i][j][l] = d_l g_ij
            dg = [
                [[diff(ge[i][j], l) for l in range(n)] for j in range(n)]
                for i in range(n)
            ]
            gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    brackets = [
                        sub(add(dg[j][l][i], dg[i][l][j]), dg[i][j][l]) for l in range(n)
                    ]
                    for k in range(n):
                        acc = ZERO
                        for l in range(n):
                            if not _is_zero(ginv[k][l]):
                                acc = add(acc, mul(ginv[k][l], brackets[l]))
                        term = mul(const(0.5), acc)
                        gamma[k][i][j] = term
                        gamma[k][j][i] = term
            self._gamma = gamma
        return self._gamma


# --- symbolic covariant operations -------------------------------------------


# The builders below skip every term with a folded-zero factor: mul would
# fold it to ZERO and add would drop it, so they build the trees of the
# dense sums without differentiating what a zero multiplies.


def cov_deriv_exprs(g: MetricField, X, Y) -> tuple[Expr, ...]:
    """(nabla_X Y) as component expressions."""
    n = g.dim
    X = tuple(X)
    Y = tuple(Y)
    gamma = g.christoffel_entries()
    xs = [i for i in range(n) if not _is_zero(X[i])]
    ys = [j for j in range(n) if not _is_zero(Y[j])]
    out = []
    for k in range(n):
        acc = ZERO
        for i in xs:
            acc = add(acc, mul(X[i], diff(Y[k], i)))
            for j in ys:
                if not _is_zero(gamma[k][i][j]):
                    acc = add(acc, mul(gamma[k][i][j], mul(X[i], Y[j])))
        out.append(acc)
    return tuple(out)


def lie_bracket_exprs(X, Y, dim: int) -> tuple[Expr, ...]:
    X = tuple(X)
    Y = tuple(Y)
    out = []
    for k in range(dim):
        acc = ZERO
        for i in range(dim):
            if _is_zero(X[i]) and _is_zero(Y[i]):
                continue
            xy = ZERO if _is_zero(X[i]) else mul(X[i], diff(Y[k], i))
            yx = ZERO if _is_zero(Y[i]) else mul(Y[i], diff(X[k], i))
            acc = add(acc, sub(xy, yx))
        out.append(acc)
    return tuple(out)


def _sum_exprs(terms) -> Expr:
    acc = ZERO
    for t in terms:
        acc = add(acc, t)
    return acc


# --- stacked evaluation -------------------------------------------------------


def _metric_checks(G: np.ndarray, ok: np.ndarray):
    """The checks of metric_at over stacked (m, n, n) metric values.

    Samples where ok is false (their evaluation failed) are given the
    identity. Returns that G, the eigenvalues, the condition numbers and the
    masks of samples that are not positive definite and of samples that are
    but are ill-conditioned."""
    G = np.where(ok[:, None, None], G, np.eye(G.shape[-1]))
    ev = np.linalg.eigvalsh(G)
    not_spd = ok & (ev[:, 0] <= SPD_FLOOR)
    with np.errstate(all="ignore"):
        cond = ev[:, -1] / ev[:, 0]
    return G, ev, cond, not_spd, ok & ~not_spd & (cond > CONDITION_WARN)


# warnings name the first frame outside this directory (warnings.warn
# takes skip_file_prefixes only from Python 3.12 on)
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn_conditions(cond, ill, labels, j: int, at_j: bool) -> None:
    """Warn as metric_at does at every ill-conditioned sample before the
    first failing sample j, and at j itself when at_j (its failure comes
    after the positivity check). Each warning names the first caller
    outside the package."""
    level, frame = 1, sys._getframe()
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    for k in np.flatnonzero(ill[: j + 1]):
        if k < j or at_j:
            warnings.warn(
                f"metric condition number {cond[k]:.3e} at {labels[k]}",
                ConditionNumberWarning,
                stacklevel=level,
            )


def _cov(dV, gamma, V, X) -> np.ndarray:
    """nabla_{X_a} V = dV X_a + Gamma(X_a, V) over stacked samples, for a
    field V with dV[m, k, i] = d_i V^k and gamma[m, k, i, j] = Gamma^k_ij;
    X is (m, a, n). Returns (m, a, n)."""
    return np.einsum("mki,mai->mak", dV, X) + np.einsum("mkij,mai,mj->mak", gamma, X, V)


def _ginner(v, G, w) -> np.ndarray:
    """g(v, w) per sample; v and w are (m, ..., n) stacks with the same
    number of axes, which broadcast, and G is (m, n, n)."""
    vG = (v.reshape(len(v), -1, v.shape[-1]) @ G).reshape(v.shape)
    return (vG * w).sum(axis=-1)


def _gnorm(v, G) -> np.ndarray:
    return np.sqrt(np.maximum(_ginner(v, G, v), 0.0))


def _inv(A: np.ndarray) -> np.ndarray:
    """Inverses of a stack of square matrices, non-finite where one is
    singular; 1 x 1 and 2 x 2 blocks in closed form."""
    if A.shape[-1] == 1:
        return 1.0 / A
    if A.shape[-1] == 2:
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
        adj = A[..., ::-1, ::-1].swapaxes(-1, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        return adj / det[..., None, None]
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError:
        out = np.full(A.shape, np.nan)
        for j, a in enumerate(A):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[j] = np.linalg.inv(a)
        return out


def _levi_civita(G, dG, d2G=None):
    """G^-1, Gamma (m, k, i, j) and, given d2G, d Gamma (m, p, k, i, j) from
    stacked metric jets: G (m, n, n), dG[:, p] = d_p G, d2G[:, p, q] = d_p d_q G
    (O'Neill, Semi-Riemannian Geometry, 1983, ch. 3):

        Gamma^k_ij = g^kl B_lij / 2,  B_lij = d_i g_jl + d_j g_il - d_l g_ij
        d_p Gamma  = g^-1 (d_p B / 2 - (d_p g) Gamma)
    """
    m, n = G.shape[:2]
    Ginv = _inv(G)
    B = dG.transpose(0, 3, 1, 2) + dG.transpose(0, 3, 2, 1) - dG
    gamma = 0.5 * (Ginv @ B.reshape(m, n, n * n))  # rows k, columns ij
    if d2G is None:
        return Ginv, gamma.reshape(m, n, n, n), None
    dB = d2G.transpose(0, 1, 4, 2, 3) + d2G.transpose(0, 1, 4, 3, 2) - d2G
    T = 0.5 * dB.reshape(m, n * n, n * n) - dG.reshape(m, n * n, n) @ gamma
    T = T.reshape(m, n, n, n * n).swapaxes(1, 2).reshape(m, n, n**3)
    dgamma = (Ginv @ T).reshape(m, n, n, n * n).swapaxes(1, 2)
    return Ginv, gamma.reshape(m, n, n, n), dgamma.reshape(m, n, n, n, n)


def _metric_jets(g: MetricField) -> list:
    """The first partials d_p g_ab of the metric, over p and then a <= b in
    np.triu_indices order: the one layout of every first-order metric tape,
    which _symmetric unpacks."""
    upper = list(zip(*_pairs(g.dim, 0)))
    return [diff(g.entries[a][b], p) for p in range(g.dim) for a, b in upper]


def _symmetric(cols: np.ndarray, n: int) -> np.ndarray:
    """The symmetric (..., n, n) matrices whose upper triangles, in
    np.triu_indices order, fill the last axis of cols: the (m, p, a, b)
    array d_p g_ab from the (m, p, n(n+1)/2) columns of _metric_jets."""
    iu, ju = _pairs(n, 0)
    out = np.empty(cols.shape[:-1] + (n, n))
    out[..., iu, ju] = out[..., ju, iu] = cols
    return out


def _jet_roots(V) -> list:
    """The components V^k of a field, then its first partials d_i V^k, k-major."""
    n = len(V)
    return list(V) + [diff(V[k], i) for k in range(n) for i in range(n)]


def _split(vals: np.ndarray, *shapes) -> list:
    """Consecutive columns of stacked root values, as (m, *shape) arrays."""
    out, at = [], 0
    for shape in shapes:
        size = int(np.prod(shape, dtype=int))
        out.append(vals[:, at : at + size].reshape((len(vals), *shape)))
        at += size
    return out


def _first_fault(sweep, bad: np.ndarray):
    """(j, q, domain) for the first point j, and there the first root q, whose
    evaluation fails (domain) or where bad[j, q] holds; None if there is none."""
    # the first failing slot at a point belongs to the first root that reaches it
    fails = np.searchsorted(np.asarray(sweep.tape.bounds[1:]), sweep.first_bad, side="right")
    r = bad.shape[1]
    q = np.minimum(fails, np.where(bad.any(axis=1), bad.argmax(axis=1), r))
    hit = np.flatnonzero(q < r)
    if not hit.size:
        return None
    j = int(hit[0])
    return j, int(q[j]), bool(fails[j] == q[j])


def _stacked(g: MetricField, roots, pts, labels=None, checks=()):
    """Evaluate the metric of g and the roots over an (m, dim) array of
    points on one tape; return G, (m, n, n), and the root values.

    Raises at the first sample that fails, with its first failure in the
    order metric evaluation, positive definiteness, root evaluation, and
    warns as metric_at does at every ill-conditioned sample up to it.
    checks lists (r, failing, error), run in that order once root r has
    evaluated: failing(G, vals) masks the samples that fail, reading roots
    up to r only, and error(G[j], vals[j], labels[j]) is the exception at
    such a sample j. labels default to the points as tuples."""
    n = g.dim
    nn = n * n
    pts = np.array(pts, dtype=float, ndmin=2)
    m = len(pts)
    if labels is None:
        labels = [tuple(p) for p in pts.tolist()]
    tape = compile_tape([e for row in g.entries for e in row] + list(roots))
    sweep = tape.sweep(pts)
    G, ev, cond, not_spd, ill = _metric_checks(
        sweep.values[:, :nn].reshape(m, n, n), sweep.first_bad >= tape.bounds[nn]
    )
    vals = sweep.values[:, nn:]
    bad = np.zeros(sweep.values.shape, dtype=bool)
    bad[:, nn - 1] = not_spd  # after the entries, before the roots
    with np.errstate(all="ignore"):
        masks = [failing(G, vals) for _, failing, _ in checks]
    for (r, _, _), mask in zip(checks, masks):
        bad[:, nn + r] |= mask
    hit = _first_fault(sweep, bad)
    _warn_conditions(cond, ill, labels, hit[0] if hit else m, hit is not None and hit[1] >= nn)
    if hit is None:
        return G, vals
    j, q, domain = hit
    if domain:
        raise sweep.error(j)
    if q < nn:
        raise NotSPDError(
            f"metric not positive definite at {labels[j]}: "
            f"smallest eigenvalue {ev[j, 0]:.3e}"
        )
    raise next(
        error(G[j], vals[j], labels[j])
        for (r, _, error), mask in zip(checks, masks)
        if nn + r == q and mask[j]
    )


def _at(g: MetricField, roots, p):
    """_stacked at the single point p: (G, root values)."""
    G, vals = _stacked(g, roots, [p], [tuple(p)])
    return G[0], vals[0]


# --- single-point operations ------------------------------------------------------


def metric_at(g: MetricField, p):
    """Evaluate (g(p), g(p)^-1) with an SPD check and a conditioning warning."""
    G, _ = _at(g, (), p)
    return G, np.linalg.inv(G)


def christoffel(g: MetricField, p) -> np.ndarray:
    """Gamma[k, i, j] at p."""
    n = g.dim
    G, vals = _stacked(g, _metric_jets(g), [p], [tuple(p)])
    return _levi_civita(G, _symmetric(vals.reshape(1, n, -1), n))[1][0]


def cov_deriv(g: MetricField, X, Y, p) -> np.ndarray:
    """(nabla_X Y)(p). X and Y are component expression sequences; the tape
    holds X, then Y and its partials d_i Y^k (k-major), then the metric jets
    (_metric_jets), and a failure is named in that order."""
    n = g.dim
    G, vals = _stacked(g, [*X, *_jet_roots(Y), *_metric_jets(g)], [p], [tuple(p)])
    Xv, Yv, dY, dG = _split(vals, (n,), (n,), (n, n), (n, n * (n + 1) // 2))
    return _cov(dY, _levi_civita(G, _symmetric(dG, n))[1], Yv, Xv[:, None])[0, 0]


def grad_field(g: MetricField, f: Expr, p) -> np.ndarray:
    """(grad f)(p) = g^-1 df; the tape holds the partials d_l f in order l,
    and no metric partial."""
    G, df = _stacked(g, [diff(f, l) for l in range(g.dim)], [p], [tuple(p)])
    return _inv(G)[0] @ df[0]


def hessian_lc(g: MetricField, f: Expr, X, Y, p) -> float:
    """Covariant Hessian Hess f(X, Y) = X(Y f) - (nabla_X Y) f at p."""
    n = g.dim
    df = [diff(f, l) for l in range(n)]
    yf = _sum_exprs([mul(Y[l], df[l]) for l in range(n)])
    xyf = _sum_exprs([mul(X[i], diff(yf, i)) for i in range(n)])
    nxy = cov_deriv_exprs(g, X, Y)
    hess = sub(xyf, _sum_exprs([mul(nxy[k], df[k]) for k in range(n)]))
    return float(_at(g, [hess], p)[1][0])


def lie_bracket(X, Y, p) -> np.ndarray:
    return compile_tape(lie_bracket_exprs(X, Y, len(X))).run(np.array([p], dtype=float))[0]


def inner(g: MetricField, v, w, p) -> float:
    """g_p(v, w) for numeric vectors v, w."""
    return float(np.asarray(v, dtype=float) @ _at(g, (), p)[0] @ np.asarray(w, dtype=float))


def norm(g: MetricField, v, p) -> float:
    return float(np.sqrt(max(inner(g, v, v, p), 0.0)))


# --- Levi-Civita axioms ---------------------------------------------------------


def _lc_axioms(g: MetricField, pts, labels=None):
    """(compatibility, torsion) residuals of lc_axiom_residuals over an
    (m, dim) array of points, each (m,)."""
    n = g.dim
    basis = [tuple(ONE if a == i else ZERO for a in range(n)) for i in range(n)]
    linear = [tuple(var((a + s) % n) for a in range(n)) for s in (1, 2)]
    fields = basis + linear
    G, vals = _stacked(g, _metric_jets(g) + [r for V in fields for r in _jet_roots(V)], pts, labels)
    dk, *jets = _split(vals, (n, n * (n + 1) // 2), *[(n,), (n, n)] * len(fields))
    gam = _levi_civita(G, _symmetric(dk, n))[1]
    iu, ju = _pairs(n, 0)

    # d_k g_ij against Gamma^l_ki g_lj + Gamma^l_kj g_il, i <= j
    T = np.einsum("mlki,mlj->mkij", gam, G)
    t1, t2 = T[:, :, iu, ju], T[:, :, ju, iu]
    big = np.maximum.reduce([np.abs(dk), np.abs(t1), np.abs(t2)])
    compat = (np.abs(dk - t1 - t2) / (1.0 + big)).max(axis=(1, 2))

    # nabla_X Y - nabla_Y X - [X, Y] over pairs of fields
    torsion = np.zeros(len(G))
    for (X, dX), (Y, dY) in itertools.combinations(zip(jets[::2], jets[1::2]), 2):
        bracket = np.einsum("mki,mi->mk", dY, X) - np.einsum("mki,mi->mk", dX, Y)
        r = _cov(dY, gam, Y, X[:, None])[:, 0] - _cov(dX, gam, X, Y[:, None])[:, 0] - bracket
        torsion = np.maximum(torsion, _gnorm(r, G) / (1.0 + _gnorm(X, G) * _gnorm(Y, G)))
    return compat, torsion


def lc_axiom_residuals(g: MetricField, p):
    """(compatibility, torsion) residuals of the connection at p.

    Compatibility evaluates d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il over
    all index triples. Torsion evaluates nabla_X Y - nabla_Y X - [X, Y] over
    every pair drawn from the coordinate frame plus two fixed linear fields,
    so the covariant derivative and the bracket are exercised on fields with
    nonconstant components. Both residuals are relative to the magnitude of
    the terms involved.
    """
    compat, torsion = _lc_axioms(g, [p], [tuple(p)])
    return float(compat[0]), float(torsion[0])
