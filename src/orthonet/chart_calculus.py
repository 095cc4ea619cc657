"""Metric fields and Levi-Civita calculus on a single chart.

The `*_exprs` builders and the cached inverse, determinant and Christoffel
entries of a MetricField produce expression trees, so derived fields such as
mean curvature normals stay differentiable to any order. The numeric
functions (`metric_at`, `christoffel`, `cov_deriv`, `grad_field`, ...)
evaluate such trees at a single point with the pointwise interpreter
`scalar_fields.evaluate`; the per-point helpers of `product_metrics` use
them. A sweep of many fields over many points compiles the trees into one
tape instead (`scalar_fields.compile_tape`), as `nets`, `codazzi` and
`factorize_cwp` do.

Conventions: vectors are component tuples against the coordinate frame,
Gamma[k][i][j] multiplies X^i Y^j, and

    (nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j
    Gamma^k_ij    = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    (grad f)^k    = g^kl d_l f
    Hess f(X, Y)  = X(Y f) - (nabla_X Y) f
    [X, Y]^k      = X^i d_i Y^k - Y^i d_i X^k
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConditionNumberWarning, NotSPDError
from .scalar_fields import (
    Chart,
    Expr,
    ZERO,
    ONE,
    _is_zero,
    add,
    const,
    diff,
    div,
    evaluate,
    mul,
    neg,
    powc,
    sub,
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


def eval_matrix(m, p, cache) -> np.ndarray:
    return np.array([[evaluate(e, p, cache) for e in row] for row in m])


def eval_vector(v, p, cache) -> np.ndarray:
    return np.array([evaluate(e, p, cache) for e in v])


# --- metric fields ------------------------------------------------------------


class MetricField:
    """Symmetric positive definite metric with expression entries.

    Symmetry holds by construction: the upper triangle is stored and
    mirrored, so g[i][j] and g[j][i] are the same node. Positivity is
    checked at evaluation points, not symbolically.
    """

    def __init__(self, chart: Chart, entries, spd_floor: float = SPD_FLOOR):
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
        self.spd_floor = float(spd_floor)
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
            for k in range(n):
                for i in range(n):
                    for j in range(i, n):
                        acc = ZERO
                        for l in range(n):
                            bracket = sub(
                                add(dg[j][l][i], dg[i][l][j]), dg[i][j][l]
                            )
                            acc = add(acc, mul(ginv[k][l], bracket))
                        term = mul(const(0.5), acc)
                        gamma[k][i][j] = term
                        gamma[k][j][i] = term
            self._gamma = gamma
        return self._gamma


def metric_at(g: MetricField, p, cache: dict | None = None):
    """Evaluate (g(p), g(p)^-1) with an SPD check and a conditioning warning."""
    if cache is None:
        cache = {}
    G = eval_matrix(g.entries, p, cache)
    eigvals = np.linalg.eigvalsh(G)
    if eigvals[0] <= g.spd_floor:
        raise NotSPDError(
            f"metric not positive definite at {tuple(p)}: "
            f"smallest eigenvalue {eigvals[0]:.3e}"
        )
    cond = eigvals[-1] / eigvals[0]
    if cond > CONDITION_WARN:
        warnings.warn(
            f"metric condition number {cond:.3e} at {tuple(p)}",
            ConditionNumberWarning,
            stacklevel=2,
        )
    return G, np.linalg.inv(G)


def _metric_checks(g: MetricField, G: np.ndarray, ok: np.ndarray):
    """The checks of metric_at over stacked (m, n, n) metric values.

    Samples where ok is false (their evaluation failed) are given the
    identity. Returns that G, the eigenvalues, the condition numbers and the
    masks of samples that are not positive definite and of samples that are
    but are ill-conditioned."""
    G = np.where(ok[:, None, None], G, np.eye(G.shape[-1]))
    ev = np.linalg.eigvalsh(G)
    not_spd = ok & (ev[:, 0] <= g.spd_floor)
    with np.errstate(all="ignore"):
        cond = ev[:, -1] / ev[:, 0]
    return G, ev, cond, not_spd, ok & ~not_spd & (cond > CONDITION_WARN)


def _warn_conditions(cond, ill, labels, j: int, at_j: bool) -> None:
    """Warn as metric_at does at every ill-conditioned sample before the
    first failing sample j, and at j itself when at_j (its failure comes
    after the positivity check)."""
    for k in np.flatnonzero(ill[: j + 1]):
        if k < j or at_j:
            warnings.warn(
                f"metric condition number {cond[k]:.3e} at {labels[k]}",
                ConditionNumberWarning,
                stacklevel=5,
            )


def _cov(dV, gamma, V, X) -> np.ndarray:
    """nabla_{X_a} V = dV X_a + Gamma(X_a, V) over stacked samples, for a
    field V with dV[m, k, i] = d_i V^k and gamma[m, k, i, j] = Gamma^k_ij;
    X is (m, a, n). Returns (m, a, n)."""
    return np.einsum("mki,mai->mak", dV, X) + np.einsum("mkij,mai,mj->mak", gamma, X, V)


def christoffel(g: MetricField, p, cache: dict | None = None) -> np.ndarray:
    """Gamma[k, i, j] at p."""
    metric_at(g, p, cache)  # SPD gate
    if cache is None:
        cache = {}
    gamma = g.christoffel_entries()
    n = g.dim
    out = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                out[k, i, j] = evaluate(gamma[k][i][j], p, cache)
                out[k, j, i] = out[k, i, j]
    return out


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


def grad_exprs(g: MetricField, f: Expr) -> tuple[Expr, ...]:
    n = g.dim
    ginv = g.inverse_entries()
    df = [diff(f, l) for l in range(n)]
    return tuple(
        _sum_exprs([mul(ginv[k][l], df[l]) for l in range(n)]) for k in range(n)
    )


def inner_exprs(g: MetricField, X, Y) -> Expr:
    n = g.dim
    X = tuple(X)
    Y = tuple(Y)
    ys = [j for j in range(n) if not _is_zero(Y[j])]
    terms = []
    for i in range(n):
        if _is_zero(X[i]):
            continue
        for j in ys:
            if not _is_zero(g.entries[i][j]):
                terms.append(mul(g.entries[i][j], mul(X[i], Y[j])))
    return _sum_exprs(terms)


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


# --- numeric covariant operations ---------------------------------------------


def cov_deriv(g: MetricField, X, Y, p, cache: dict | None = None) -> np.ndarray:
    """(nabla_X Y)(p). X and Y are component expression sequences."""
    if cache is None:
        cache = {}
    n = g.dim
    X = tuple(X)
    Y = tuple(Y)
    Xv = eval_vector(X, p, cache)
    Yv = eval_vector(Y, p, cache)
    dY = np.array(
        [[evaluate(diff(Y[k], i), p, cache) for i in range(n)] for k in range(n)]
    )
    gam = christoffel(g, p, cache)
    return dY @ Xv + np.einsum("kij,i,j->k", gam, Xv, Yv)


def grad_field(g: MetricField, f: Expr, p, cache: dict | None = None) -> np.ndarray:
    if cache is None:
        cache = {}
    _, Ginv = metric_at(g, p, cache)
    df = np.array([evaluate(diff(f, l), p, cache) for l in range(g.dim)])
    return Ginv @ df


def hessian_lc(g: MetricField, f: Expr, X, Y, p, cache: dict | None = None) -> float:
    """Covariant Hessian Hess f(X, Y) = X(Y f) - (nabla_X Y) f at p."""
    if cache is None:
        cache = {}
    n = g.dim
    X = tuple(X)
    Y = tuple(Y)
    df = [diff(f, l) for l in range(n)]
    yf = _sum_exprs([mul(Y[l], df[l]) for l in range(n)])
    xyf = sum(
        evaluate(X[i], p, cache) * evaluate(diff(yf, i), p, cache) for i in range(n)
    )
    nxy = cov_deriv(g, X, Y, p, cache)
    dfv = np.array([evaluate(d, p, cache) for d in df])
    return xyf - float(nxy @ dfv)


def lie_bracket(X, Y, p, cache: dict | None = None) -> np.ndarray:
    if cache is None:
        cache = {}
    X = tuple(X)
    Y = tuple(Y)
    n = len(X)
    exprs = lie_bracket_exprs(X, Y, n)
    return eval_vector(exprs, p, cache)


def inner(g: MetricField, v, w, p, cache: dict | None = None) -> float:
    """g_p(v, w) for numeric vectors v, w."""
    G, _ = metric_at(g, p, cache)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(v @ G @ w)


def norm(g: MetricField, v, p, cache: dict | None = None) -> float:
    return float(np.sqrt(max(inner(g, v, v, p, cache), 0.0)))


def lc_axiom_residuals(g: MetricField, p, cache: dict | None = None):
    """(compatibility, torsion) residuals of the connection at p.

    Compatibility evaluates d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il over
    all index triples. Torsion evaluates nabla_X Y - nabla_Y X - [X, Y] over
    every pair drawn from the coordinate frame plus two fixed linear fields,
    so the covariant derivative and the bracket are exercised on fields with
    nonconstant components. Both residuals are relative to the magnitude of
    the terms involved.
    """
    if cache is None:
        cache = {}
    from .scalar_fields import var

    n = g.dim
    G, _ = metric_at(g, p, cache)
    gam = christoffel(g, p, cache)
    ge = g.entries

    compat = 0.0
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                dk = evaluate(diff(ge[i][j], k), p, cache)
                t1 = float(gam[:, k, i] @ G[:, j])
                t2 = float(gam[:, k, j] @ G[:, i])
                big = max(abs(dk), abs(t1), abs(t2))
                compat = max(compat, abs(dk - t1 - t2) / (1.0 + big))

    basis = [tuple(ONE if a == i else ZERO for a in range(n)) for i in range(n)]
    linear = [tuple(var((a + s) % n) for a in range(n)) for s in (1, 2)]
    fields = basis + linear
    torsion = 0.0
    for ai in range(len(fields)):
        for bi in range(ai + 1, len(fields)):
            X, Y = fields[ai], fields[bi]
            r = (
                cov_deriv(g, X, Y, p, cache)
                - cov_deriv(g, Y, X, p, cache)
                - lie_bracket(X, Y, p, cache)
            )
            nx = norm(g, eval_vector(X, p, cache), p, cache)
            ny = norm(g, eval_vector(Y, p, cache), p, cache)
            torsion = max(torsion, norm(g, r, p, cache) / (1.0 + nx * ny))
    return compat, torsion
