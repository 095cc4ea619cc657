"""Metric fields and Levi-Civita calculus on a single chart.

Numbers come from one path: the fields a check reads are compiled with the
upper triangle of the metric into one tape (`scalar_fields.compile_tape`)
and swept over all its sample points at once. `_checked` does that with the
checks of the metric (positive definiteness, conditioning) and raises at the
first sample that fails, as checking one sample at a time would: the checks
are (mask, error) pairs over the samples, in the order they run at one
sample (`_root_checks` puts each root's evaluation among them),
`scalar_fields._first` picks the sample and the check, and
`scalar_fields._point` names the sample. A caller that reads
partials takes them from one jet sweep of that tape (`_jets`): the first
and second partials of the metric and of every root, by forward
propagation, with `Sweep.repair` as the one rule for a jet that is not
finite. No derivative tree is built on a clean run.

The metric's block structure is read off its entries (`_blocks`): its
diagonal blocks are the connected components of the coordinates linked by
the entries off the diagonal that are not the folded zero
(`scalar_fields._is_zero`), the same test that routes a coordinate net to
the closed form (`nets._frame_roots`). An entry such as `x0 - x0` links
its coordinates, which only merges blocks. Every factorization of G runs
block by block over the blocks of one size together (`_Blocks`): a 1 x 1
block g in closed form (g is its eigenvalue, 1/g its inverse, 1/sqrt(g)
its L^-T), a larger one by `_inv`, `np.linalg.eigvalsh` or
`np.linalg.cholesky` on the stack of those blocks. So the positivity check
takes the eigenvalues per block, `_levi_civita` assembles G^-1 from the
blocks' inverses, and `codazzi._Eigen` L^-T from their Cholesky factors;
the partials of log det G_b per block (`_logdet_jets`) serve
`nets._block_diagonal`.
`_jets` hands back the metric's jets (`_metric_jets`): G, its first
partials, G^-1 and the Christoffel symbols from one numpy kernel
(`_levi_civita`), so every consumer reads them from there, the second
partials in the tape's packed layout, (p <= q) x (a <= b), which only a
frame on the tape unpacks (`nets._frame_algebra`, where `nets._dgamma`
forms d Gamma), and the blocks; and the eigenvalues of G that the
positivity check took (`nets._Samples.check` reads them where the frame
is G's coordinate frame). Contractions such as `_cov` are numpy over the
sample axis too. The single-point functions (`metric_at`, `christoffel`,
`cov_deriv`, ..., `lc_axiom_residuals`) are that sweep at one point.

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
import functools
import itertools
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditionNumberWarning, NotSPDError
from .scalar_fields import (
    Chart,
    Expr,
    ZERO,
    ONE,
    _first,
    _is_zero,
    _keys,
    _pairs,
    _point,
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
        self._blocks = None

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


def _metric_checks(cols: np.ndarray, ok: np.ndarray, blocks: "_Blocks"):
    """The checks of metric_at over the stacked values of the metric's upper
    triangle, (m, n(n+1)/2) in np.triu_indices order, whose diagonal blocks
    are blocks (_blocks).

    Samples where ok is false (their evaluation failed) are given the
    identity. Returns that G, (m, n, n), the eigenvalues, taken per block,
    the condition numbers and the masks of samples that are not positive
    definite and of samples that are but are ill-conditioned."""
    n = blocks.n
    if not ok.all():
        cols = np.where(ok[:, None], cols, np.eye(n)[_pairs(n, 0)])
    G = _symmetric(cols, n)
    ev = _eigvalsh(G, blocks)
    not_spd = ok & (ev[:, 0] <= SPD_FLOOR)
    with np.errstate(all="ignore"):
        cond = ev[:, -1] / ev[:, 0]
    return G, ev, cond, not_spd, ok & ~not_spd & (cond > CONDITION_WARN)


# warnings name the first frame outside this directory (warnings.warn
# takes skip_file_prefixes only from Python 3.12 on)
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn_conditions(cond, ill, pts, stop: int) -> None:
    """Warn as metric_at does at every ill-conditioned sample of pts before
    stop. Each warning names the first caller outside the package."""
    level, frame = 1, sys._getframe()
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    for k in np.flatnonzero(ill[:stop]):
        warnings.warn(
            f"metric condition number {cond[k]:.3e} at {_point(pts, k)}",
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


def _pair_scale(G) -> np.ndarray:
    """max(|e_i| |e_j|, 1e-300), (m, n, n), over the pairs of n fields with
    Gram matrices G, (m, n, n), where |e_i| = sqrt(G_ii): the one place a
    residual is divided by the norms of the pair of fields it reads. The
    norms are multiplied, not their squares, so no product overflows."""
    norms = np.sqrt(np.maximum(np.einsum("mii->mi", G), 0.0))
    return np.maximum(norms[:, :, None] * norms[:, None, :], 1e-300)


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


@dataclass(frozen=True, eq=False)
class _Blocks:
    """The diagonal blocks of a symmetric n x n pattern (_metric_blocks),
    grouped by size; blocks are ordered by group, then by first coordinate.
    Every array is read-only, and one pattern gives one object, which hashes
    by identity."""

    n: int
    # per block size r, ascending: the blocks' coordinates, each block in
    # ascending order, (B, r)
    groups: tuple
    # (n(n+1)/2, blocks): over the upper triangle, the weight of an entry in
    # the trace of a product of symmetric matrices of its block, 1 on the
    # diagonal and 2 off it, and 0 outside the block
    upper: np.ndarray
    # (n n, blocks): over every entry (i, j), 1 where it lies in the block
    entries: np.ndarray


@functools.lru_cache(maxsize=256)
def _metric_blocks(linked: tuple, n: int) -> _Blocks:
    """The connected components of the coordinates, linked by the entries
    off the diagonal (a < b, np.triu_indices order) that linked marks,
    grouped by size. Built once per distinct pattern."""
    label = list(range(n))
    for a, b, link in zip(*_pairs(n, 1), linked):
        if link and label[a] != label[b]:
            old = label[b]
            label = [label[a] if t == old else t for t in label]
    comps = sorted(sorted(a for a in range(n) if label[a] == t) for t in set(label))
    groups = tuple(np.array([c for c in comps if len(c) == r], dtype=np.intp)
                   for r in sorted({len(c) for c in comps}))
    entries = np.zeros((n, n, len(comps)))
    for b, c in enumerate(c for coords in groups for c in coords):
        entries[c[:, None], c[None, :], b] = 1.0
    iu, ju = _pairs(n, 0)
    upper = entries[iu, ju] * np.where(iu == ju, 1.0, 2.0)[:, None]
    entries = entries.reshape(n * n, -1)
    for a in (upper, entries, *groups):
        a.flags.writeable = False
    return _Blocks(n, groups, upper, entries)


def _blocks(g: MetricField) -> _Blocks:
    """The diagonal blocks of the metric of g: the components of the entries
    off the diagonal that are not the folded zero, which is 0 at every
    sample with all its partials. Cached on g."""
    if g._blocks is None:
        n = g.dim
        g._blocks = _metric_blocks(
            tuple(not _is_zero(g.entries[a][b]) for a, b in zip(*_pairs(n, 1))), n)
    return g._blocks


def _block(A: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The diagonal blocks of the stacked (..., n, n) matrices A over the
    coordinates of one size group, (..., B, r, r)."""
    return A[..., coords[:, :, None], coords[:, None, :]]


def _by_block(G: np.ndarray, blocks: _Blocks, one, more) -> np.ndarray:
    """The stacked (m, n, n) matrix that is one(g) on the 1 x 1 blocks g,
    (m, B), more(A) on the larger blocks A, (m, B, r, r), and 0 between
    blocks."""
    out = np.zeros(G.shape)
    for coords in blocks.groups:
        if coords.shape[1] == 1:
            d = coords[:, 0]
            out[:, d, d] = one(G[:, d, d])
        else:
            out[:, coords[:, :, None], coords[:, None, :]] = more(_block(G, coords))
    return out


def _block_inv(G: np.ndarray, blocks: _Blocks) -> np.ndarray:
    """G^-1 of the stacked (m, n, n) metric G, block by block (_inv): the
    reciprocal of a 1 x 1 block, 0 between blocks."""
    return _by_block(G, blocks, np.reciprocal, _inv)


def _block_cholesky_inv_t(G: np.ndarray, blocks: _Blocks) -> np.ndarray:
    """L^-T, with G = L L^T for the stacked SPD (m, n, n) metric G, block by
    block: 1 / sqrt(g) for a 1 x 1 block g, 0 between blocks. L is lower
    triangular, since each block keeps its coordinates in order."""
    return _by_block(G, blocks, lambda g: 1.0 / np.sqrt(g),
                     lambda A: np.linalg.inv(np.linalg.cholesky(A)).swapaxes(-1, -2))


def _eigvalsh(G: np.ndarray, blocks: _Blocks) -> np.ndarray:
    """The eigenvalues of the stacked symmetric (m, n, n) G, (m, n) in
    ascending order per sample, taken block by block: a 1 x 1 block is its
    own eigenvalue."""
    m = len(G)
    parts = [G[:, coords[:, 0], coords[:, 0]] if coords.shape[1] == 1
             else np.linalg.eigvalsh(_block(G, coords)).reshape(m, -1)
             for coords in blocks.groups]
    return np.sort(np.concatenate(parts, axis=1), axis=1)


def _logdet_jets(Ginv: np.ndarray, dG: np.ndarray, d2: np.ndarray, upper: np.ndarray,
                 entries: np.ndarray) -> tuple:
    """The first and second partials of sums of log det G_b over the
    diagonal blocks b of G, from G^-1 (m, n, n), dG[:, p] = d_p G and the
    packed second partials d2 (m, p <= q, a <= b) in np.triu_indices order.
    A sum is a column of upper and entries, which are blocks.upper and
    blocks.entries (_Blocks) times a (blocks, sums) matrix: the partials per
    block for the identity. Returns d_l of the sums, (m, n, sums), and
    d_p d_l over p <= l, (m, n(n+1)/2, sums). With A_p = G_b^-1 d_p G_b

        d_l log det G_b     = tr(G_b^-1 d_l G_b)
        d_p d_l log det G_b = tr(G_b^-1 d_p d_l G_b) - tr(A_p A_l)

    G^-1 and the partials vanish between blocks, so each trace is a sum over
    the entries of every block at once, one product with upper (packed
    entries) or entries (A_p A_l^T entrywise)."""
    m, n = dG.shape[:2]
    iu, ju = _pairs(n, 0)
    ginv = Ginv[:, None, iu, ju]
    A = (Ginv @ dG.swapaxes(0, 1)).swapaxes(0, 1)  # A_p at [:, p]
    AA = (A[:, iu] * A[:, ju].swapaxes(2, 3)).reshape(m, len(iu), n * n) @ entries
    return (dG[:, :, iu, ju] * ginv) @ upper, (d2 * ginv) @ upper - AA


def _slogdet(A: np.ndarray) -> tuple:
    """Signs and logs of |det| of a stack of square matrices, as
    np.linalg.slogdet gives them for finite ones; a 1 x 1 block is its own
    determinant, which spares LAPACK one call per matrix. Callers ignore
    floating-point errors (np.errstate)."""
    if A.shape[-1] == 1:
        x = A[..., 0, 0]
        return np.sign(x), np.log(np.abs(x))
    return np.linalg.slogdet(A)


def _levi_civita(G, dG, blocks):
    """G^-1 and Gamma (m, k, i, j) from stacked metric jets: G (m, n, n),
    dG[:, p] = d_p G, and the diagonal blocks of G (_blocks), which give
    G^-1 block by block (_block_inv; O'Neill, Semi-Riemannian Geometry,
    1983, ch. 3):

        Gamma^k_ij = g^kl B_lij / 2,  B_lij = d_i g_jl + d_j g_il - d_l g_ij
    """
    m, n = G.shape[:2]
    Ginv = _block_inv(G, blocks)
    B = dG.transpose(0, 3, 1, 2) + dG.transpose(0, 3, 2, 1) - dG
    gamma = 0.5 * (Ginv @ B.reshape(m, n, n * n))  # rows k, columns ij
    return Ginv, gamma.reshape(m, n, n, n)


def _metric_jets(J: np.ndarray, n: int, blocks: _Blocks) -> tuple:
    """G, dG, G^-1, Gamma (_levi_civita), the second partials d_p d_q g_ab
    as the tape packs them, (m, p <= q, a <= b) in np.triu_indices order,
    and the diagonal blocks of the metric (_blocks), which are given, from
    the jets J (m, 1 + n + n(n+1)/2, n(n+1)/2) of the metric's upper
    triangle, rows as Tape.jet_sweep gives them. Only a frame on the tape
    unpacks the second partials (nets._frame_algebra)."""
    G, dG = _symmetric(J[:, 0], n), _symmetric(J[:, 1 : n + 1], n)
    return (G, dG, *_levi_civita(G, dG, blocks), J[:, n + 1 :], blocks)


def _symmetric(cols: np.ndarray, n: int) -> np.ndarray:
    """The symmetric (..., n, n) matrices whose upper triangles, in
    np.triu_indices order, fill the last axis of cols: G from the values of
    the metric's upper triangle, or d_p G from its first partials."""
    return cols[..., _packed(n)].reshape(cols.shape[:-1] + (n, n))


@functools.cache
def _packed(n: int) -> np.ndarray:
    """The packed column (np.triu_indices order) of each entry (p, q) of a
    symmetric n x n matrix, over p, q, (n n,), read-only."""
    iu, ju = _pairs(n, 0)
    column = np.empty((n, n), dtype=np.intp)
    column[iu, ju] = column[ju, iu] = np.arange(len(iu))
    column.flags.writeable = False
    return column.reshape(-1)


def _root_checks(sweep, after: dict) -> list:
    """The (mask, error) pairs of a sweep's roots in the order they run at a
    point: per root r, the points whose first failing slot is its own
    (sweep.error; the first failing slot at a point belongs to the first
    root that reaches it), then after.get(r, ()), the pairs that run once
    root r has evaluated. On a clean sweep no evaluation pair is listed."""
    tape = sweep.tape
    fails = None
    if not (sweep.first_bad == tape.size).all():
        fails = np.searchsorted(np.asarray(tape.bounds[1:]), sweep.first_bad, side="right")
    pairs = []
    for r in range(len(tape.root_slots)):
        if fails is not None:
            pairs.append((fails == r, sweep.error))
        pairs.extend(after.get(r, ()))
    return pairs


def _checked(g: MetricField, roots, pts, checks, jets: bool):
    """One tape of the upper triangle of the metric of g and the roots,
    swept, or with jets jet-swept, over an (m, dim) array of points.

    Raises at the first sample that fails. Its values are checked first, in
    the order metric evaluation, positive definiteness, then each root's
    evaluation and the checks on it; with jets, where they pass but the jets
    of a root are not finite, Sweep.repair mends those jets from the roots'
    diff trees, and where the trees fail their error is the sample's. Warns
    as metric_at does at every ill-conditioned sample up to that one. checks
    lists (r, failing, error), run in that order once root r has evaluated:
    failing(G, vals) masks the samples that fail, reading roots up to r only,
    and error(G[j], vals[j], _point(pts, j)) is the exception at such a
    sample j. Returns G, (m, n, n), its eigenvalues, (m, n) in ascending
    order and taken per diagonal block of the metric (_blocks), and the
    sweep."""
    n = g.dim
    nt = n * (n + 1) // 2
    pts = np.array(pts, dtype=float, ndmin=2)
    tape = compile_tape([g.entries[a][b] for a, b in zip(*_pairs(n, 0))] + list(roots))
    sweep = tape.jet_sweep(pts) if jets else tape.sweep(pts)
    G, ev, cond, not_spd, ill = _metric_checks(
        sweep.values[:, :nt], sweep.first_bad >= tape.bounds[nt], _blocks(g))
    vals = sweep.values[:, nt:]
    after = {nt - 1: [(not_spd, lambda j: NotSPDError(
        f"metric not positive definite at {_point(pts, j)}: smallest eigenvalue {ev[j, 0]:.3e}"))]}
    with np.errstate(all="ignore"):
        for r, failing, error in checks:
            after.setdefault(nt + r, []).append(
                (failing(G, vals), lambda j, error=error: error(G[j], vals[j], _point(pts, j))))
    # by sample, the error of the roots' diff trees where they fail
    errors = sweep.repair() if jets else {}
    pairs = [*_root_checks(sweep, after), (_keys(errors, len(pts)), errors.get)]
    hit = _first(*(mask for mask, _ in pairs))
    # the samples up to the first that fails warn; that one is ill-conditioned
    # only where it has passed the positivity check
    _warn_conditions(cond, ill, pts, hit[0] + 1 if hit else len(pts))
    if hit:
        raise pairs[hit[1]][1](hit[0])
    return G, ev, sweep


def _stacked(g: MetricField, roots, pts, checks=()):
    """The values of the metric of g, G (m, n, n), and of the roots, (m,
    roots), over an (m, dim) array of points on one tape (_checked)."""
    G, _, sweep = _checked(g, roots, pts, checks, jets=False)
    return G, sweep.values[:, g.dim * (g.dim + 1) // 2 :]


def _jets(g: MetricField, roots, pts, checks=()):
    """_stacked on one jet sweep (_checked): the metric's jets as
    _metric_jets forms them, (G, dG, G^-1, Gamma, packed d2G, blocks), the
    jets of the roots, (m, 1 + n + n(n+1)/2, roots), rows as Tape.jet_sweep
    gives them: values, d_p over p, then d_p d_q over p <= q, the sweep, and
    the eigenvalues of G, (m, n), that the positivity check took."""
    nt = g.dim * (g.dim + 1) // 2
    _, ev, sweep = _checked(g, roots, pts, checks, jets=True)
    with np.errstate(all="ignore"):  # values that are not finite are left to the consumer
        metric = _metric_jets(sweep.jets[:, :, :nt], g.dim, _blocks(g))
    return metric, sweep.jets[:, :, nt:], sweep, ev


def _at(g: MetricField, roots, p):
    """_stacked at the single point p: (G, root values)."""
    G, vals = _stacked(g, roots, [p])
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
    return _jets(g, (), [p])[0][3][0]


def cov_deriv(g: MetricField, X, Y, p) -> np.ndarray:
    """(nabla_X Y)(p). X and Y are component expression sequences; the
    partials of Y come from the same jet sweep as the metric's."""
    n = g.dim
    metric, J, _, _ = _jets(g, [*X, *Y], [p])
    dY = J[:, 1 : n + 1, n:].swapaxes(1, 2)  # d_i Y^k at [k, i]
    return _cov(dY, metric[3], J[:, 0, n:], J[:, None, 0, :n])[0, 0]


def grad_field(g: MetricField, f: Expr, p) -> np.ndarray:
    """(grad f)(p) = g^-1 df."""
    metric, J, _, _ = _jets(g, [f], [p])
    return metric[2][0] @ J[0, 1 : g.dim + 1, 0]


def hessian_lc(g: MetricField, f: Expr, X, Y, p) -> float:
    """Covariant Hessian Hess f(X, Y) = X(Y f) - (nabla_X Y) f at p; in
    coordinates the partials of Y cancel, leaving
    X^i Y^j (d_i d_j f - Gamma^k_ij d_k f), read off the jets of f."""
    n = g.dim
    metric, J, _, _ = _jets(g, [f, *X, *Y], [p])
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


def _lc_axioms(g: MetricField, pts):
    """(compatibility, torsion) residuals of lc_axiom_residuals over an
    (m, dim) array of points, each (m,)."""
    n = g.dim
    basis = [tuple(ONE if a == i else ZERO for a in range(n)) for i in range(n)]
    linear = [tuple(var((a + s) % n) for a in range(n)) for s in (1, 2)]
    fields = basis + linear
    (G, dG, _, gam, _, _), J, _, _ = _jets(g, [c for V in fields for c in V], pts)
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
    compat, torsion = _lc_axioms(g, [p])
    return float(compat[0]), float(torsion[0])
