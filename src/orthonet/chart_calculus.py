"""Metric fields and Levi-Civita calculus on a single chart.

Numbers come from one path: the fields a check reads are compiled with the
upper triangle of the metric into one tape (`scalar_fields.compile_tape`)
and swept over all its sample points at once. `_checked` does that with the
checks of the metric (positive definiteness, conditioning) and raises at the
first sample that fails, as checking one sample at a time would. A caller
that reads partials takes them from one jet sweep of that tape (`_jets`):
the first and second partials of the metric and of every root, by forward
propagation, with `Sweep.repair` as the one rule for a jet that is not
finite. No derivative tree is built on a clean run. `_jets` also hands back
G^-1, the Christoffel symbols and their partials, from one numpy kernel over
the metric's jets (`_metric_jets`, `_levi_civita`), so every consumer reads
them from there; contractions such as `_cov` are numpy over the sample axis
too. The single-point functions (`metric_at`, `christoffel`, `cov_deriv`,
..., `lc_axiom_residuals`) are that sweep at one point.

The symbolic determinant, inverse and Christoffel entries (`det_expr`,
`inverse_exprs` and the cached entries of a MetricField) are the pointwise
reference only: no command builds them.

Conventions: vectors are component tuples against the coordinate frame,
Gamma[k][i][j] multiplies X^i Y^j, and

    (nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j
    Gamma^k_ij    = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    (grad f)^k    = g^kl d_l f
    Hess f(X, Y)  = X(Y f) - (nabla_X Y) f = X^i Y^j (d_i d_j f - Gamma^k_ij d_k f)
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


def _metric_jets(J: np.ndarray, n: int) -> tuple:
    """G, dG, G^-1, Gamma and d Gamma (_levi_civita) over the samples from
    the jets J (m, 1 + n + n(n+1)/2, n(n+1)/2) of the metric's upper
    triangle, rows as Tape.jet_sweep gives them."""
    iu, ju = _pairs(n, 0)
    seconds = np.empty((len(J), n, n, J.shape[2]))
    seconds[:, iu, ju] = seconds[:, ju, iu] = J[:, n + 1 :]
    G, dG, d2G = (_symmetric(a, n) for a in (J[:, 0], J[:, 1 : n + 1], seconds))
    return (G, dG, *_levi_civita(G, dG, d2G))


def _symmetric(cols: np.ndarray, n: int) -> np.ndarray:
    """The symmetric (..., n, n) matrices whose upper triangles, in
    np.triu_indices order, fill the last axis of cols: G from the values of
    the metric's upper triangle, or d_p G from its first partials."""
    iu, ju = _pairs(n, 0)
    out = np.empty(cols.shape[:-1] + (n, n))
    out[..., iu, ju] = out[..., ju, iu] = cols
    return out


def _first_fault(sweep, bad: np.ndarray):
    """(j, q, domain) for the first point j, and there the first root q, whose
    evaluation fails (domain) or where bad[j, q] holds; None if there is none."""
    if (sweep.first_bad == sweep.tape.size).all() and not bad.any():
        return None
    # the first failing slot at a point belongs to the first root that reaches it
    fails = np.searchsorted(np.asarray(sweep.tape.bounds[1:]), sweep.first_bad, side="right")
    r = bad.shape[1]
    q = np.minimum(fails, np.where(bad.any(axis=1), bad.argmax(axis=1), r))
    hit = np.flatnonzero(q < r)
    if not hit.size:
        return None
    j = int(hit[0])
    return j, int(q[j]), bool(fails[j] == q[j])


def _checked(g: MetricField, roots, pts, labels, checks, jets: bool):
    """One tape of the upper triangle of the metric of g and the roots,
    swept, or with jets jet-swept, over an (m, dim) array of points; returns
    G, (m, n, n), and the sweep.

    Raises at the first sample that fails. Its values are checked first, in
    the order metric evaluation, positive definiteness, then each root's
    evaluation and the checks on it; with jets, where they pass but the jets
    of a root are not finite, Sweep.repair mends those jets from the roots'
    diff trees, and where the trees fail their error is the sample's. Warns
    as metric_at does at every ill-conditioned sample up to that one. checks
    lists (r, failing, error), run in that order once root r has evaluated:
    failing(G, vals) masks the samples that fail, reading roots up to r only,
    and error(G[j], vals[j], labels[j]) is the exception at such a sample j.
    labels default to the points as tuples."""
    n = g.dim
    nt = n * (n + 1) // 2
    pts = np.array(pts, dtype=float, ndmin=2)
    m = len(pts)
    if labels is None:
        labels = [tuple(p) for p in pts.tolist()]
    tape = compile_tape([g.entries[a][b] for a, b in zip(*_pairs(n, 0))] + list(roots))
    sweep = tape.jet_sweep(pts) if jets else tape.sweep(pts)
    G, ev, cond, not_spd, ill = _metric_checks(
        _symmetric(sweep.values[:, :nt], n), sweep.first_bad >= tape.bounds[nt]
    )
    vals = sweep.values[:, nt:]
    bad = np.zeros(sweep.values.shape, dtype=bool)
    bad[:, nt - 1] = not_spd  # after the entries, before the roots
    with np.errstate(all="ignore"):
        masks = [failing(G, vals) for _, failing, _ in checks]
    for (r, _, _), mask in zip(checks, masks):
        bad[:, nt + r] |= mask
    hit = _first_fault(sweep, bad)
    # by sample, the error of the roots' diff trees where they fail
    errors = sweep.repair() if jets else {}
    j = hit[0] if hit else m
    mended = min(errors, default=m)
    if mended < j:
        _warn_conditions(cond, ill, labels, mended, True)
        raise errors[mended]
    _warn_conditions(cond, ill, labels, j, hit is not None and hit[1] >= nt)
    if hit is None:
        return G, sweep
    j, q, domain = hit
    if domain:
        raise sweep.error(j)
    if q < nt:
        raise NotSPDError(
            f"metric not positive definite at {labels[j]}: "
            f"smallest eigenvalue {ev[j, 0]:.3e}"
        )
    raise next(
        error(G[j], vals[j], labels[j])
        for (r, _, error), mask in zip(checks, masks)
        if nt + r == q and mask[j]
    )


def _stacked(g: MetricField, roots, pts, labels=None, checks=()):
    """The values of the metric of g, G (m, n, n), and of the roots, (m,
    roots), over an (m, dim) array of points on one tape (_checked)."""
    G, sweep = _checked(g, roots, pts, labels, checks, jets=False)
    return G, sweep.values[:, g.dim * (g.dim + 1) // 2 :]


def _jets(g: MetricField, roots, pts, labels=None, checks=()):
    """_stacked on one jet sweep (_checked): the metric's jets as
    _metric_jets forms them, (G, dG, G^-1, Gamma, d Gamma), the jets of the
    roots, (m, 1 + n + n(n+1)/2, roots), rows as Tape.jet_sweep gives them:
    values, d_p over p, then d_p d_q over p <= q, and the sweep."""
    nt = g.dim * (g.dim + 1) // 2
    _, sweep = _checked(g, roots, pts, labels, checks, jets=True)
    with np.errstate(all="ignore"):  # values that are not finite are left to the consumer
        metric = _metric_jets(sweep.jets[:, :, :nt], g.dim)
    return metric, sweep.jets[:, :, nt:], sweep


def _at(g: MetricField, roots, p):
    """_stacked at the single point p: (G, root values)."""
    G, vals = _stacked(g, roots, [p], [tuple(p)])
    return G[0], vals[0]


def _hess(d2f, gamma, df, X, Y) -> np.ndarray:
    """Covariant Hessian Hess f(X_a, Y_b) = X_a^T (d2f - Gamma^k d_k f) Y_b.

    d2f[m, i, l] = d_i d_l f, gamma[m, k, i, j] = Gamma^k_ij, df[m, k] = d_k f;
    X is (m, a, n) and Y is (m, b, n). Returns (m, a, b)."""
    A = d2f - np.einsum("mkij,mk->mij", gamma, df)
    return np.einsum("mai,mij,mbj->mab", X, A, Y)


# --- single-point operations ------------------------------------------------------


def metric_at(g: MetricField, p):
    """Evaluate (g(p), g(p)^-1) with an SPD check and a conditioning warning."""
    G, _ = _at(g, (), p)
    return G, np.linalg.inv(G)


def christoffel(g: MetricField, p) -> np.ndarray:
    """Gamma[k, i, j] at p."""
    return _jets(g, (), [p], [tuple(p)])[0][3][0]


def cov_deriv(g: MetricField, X, Y, p) -> np.ndarray:
    """(nabla_X Y)(p). X and Y are component expression sequences; the
    partials of Y come from the same jet sweep as the metric's."""
    n = g.dim
    metric, J, _ = _jets(g, [*X, *Y], [p], [tuple(p)])
    dY = J[:, 1 : n + 1, n:].swapaxes(1, 2)  # d_i Y^k at [k, i]
    return _cov(dY, metric[3], J[:, 0, n:], J[:, None, 0, :n])[0, 0]


def grad_field(g: MetricField, f: Expr, p) -> np.ndarray:
    """(grad f)(p) = g^-1 df."""
    metric, J, _ = _jets(g, [f], [p], [tuple(p)])
    return metric[2][0] @ J[0, 1 : g.dim + 1, 0]


def hessian_lc(g: MetricField, f: Expr, X, Y, p) -> float:
    """Covariant Hessian Hess f(X, Y) = X(Y f) - (nabla_X Y) f at p; in
    coordinates the partials of Y cancel, leaving
    X^i Y^j (d_i d_j f - Gamma^k_ij d_k f), read off the jets of f."""
    n = g.dim
    metric, J, _ = _jets(g, [f, *X, *Y], [p], [tuple(p)])
    df, d2f = J[:, 1 : n + 1, 0], _symmetric(J[:, n + 1 :, 0], n)
    X, Y = J[:, None, 0, 1 : n + 1], J[:, None, 0, n + 1 :]
    return float(_hess(d2f, metric[3], df, X, Y)[0, 0, 0])


def lie_bracket(X, Y, p) -> np.ndarray:
    """[X, Y](p) from the jets of X and Y."""
    n = len(X)
    J = compile_tape([*X, *Y]).run_jets(np.array([p], dtype=float))[0]
    D = J[1 : n + 1]  # d_i of each root at [i, root]
    return J[0, :n] @ D[:, n:] - J[0, n:] @ D[:, :n]


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
    (G, dG, _, gam, _), J, _ = _jets(g, [c for V in fields for c in V], pts, labels)
    m = len(G)
    iu, ju = _pairs(n, 0)
    # per field its values V^k and its partials d_i V^k at [k, i]
    values = J[:, 0].reshape(m, len(fields), n)
    partials = J[:, 1 : n + 1].reshape(m, n, len(fields), n).transpose(0, 2, 3, 1)

    # d_k g_ij against Gamma^l_ki g_lj + Gamma^l_kj g_il, i <= j
    dk = dG[:, :, iu, ju]
    T = np.einsum("mlki,mlj->mkij", gam, G)
    t1, t2 = T[:, :, iu, ju], T[:, :, ju, iu]
    big = np.maximum.reduce([np.abs(dk), np.abs(t1), np.abs(t2)])
    compat = (np.abs(dk - t1 - t2) / (1.0 + big)).max(axis=(1, 2))

    # nabla_X Y - nabla_Y X - [X, Y] over pairs of fields
    torsion = np.zeros(m)
    for a, b in itertools.combinations(range(len(fields)), 2):
        X, dX, Y, dY = values[:, a], partials[:, a], values[:, b], partials[:, b]
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
