"""Orthogonal nets of distributions and their classification.

A net splits a frame of vector fields into mutually orthogonal blocks; each
block spans a distribution E_i with complement E_i^perp spanned by the other
blocks. The module reads the metric through the checked jet sweep every
consumer uses (chart_calculus._jets): one tape of the metric entries, and
of the frame entries unless the net is a coordinate net whose metric has
the folded zero in every entry between two of its blocks (_frame_roots),
swept once over every sample point, which carries their first and second
partials through the tape by forward propagation (Tape.jet_sweep; a clean
run builds no derivative tree), and hands back the metric's jets with G^-1,
the Christoffel symbols and the eigenvalues of G. codazzi._criteria passes
the metric's jets of its own first pass with a sweep of the frame entries
instead (of none, for the coordinate eigen-net of a diagonal tensor on such
a metric). From these second-order jets, one stacked numpy pass
(_geometry) gives for every block and complement at once nabla_{X_a} X_b,
the mean curvature normal H and its partials, so nabla_X H = (dH) X +
Gamma(X, H) needs no derivative tree of H (O'Neill, Semi-Riemannian
Geometry, 1983, ch. 4 and 7). A coordinate net on a block-diagonal metric
takes them in closed form, H = -grad^perp log det G_ss / (2 r) over a span
s of rank r and its partials from those of log det G_ss (_block_diagonal;
Ponge and Reckziegel, 1993, where H = -grad^perp log rho), with no
projector and no partial of Gamma. Any other frame takes the frame
algebra (_frame_algebra): the projector onto each span, H by the product
rule and the partials of Gamma (_dgamma), formed here, where they are read.
Neither cost grows with a loop over the spans: the frame's terms are formed
once per net, the inverse Gram matrices and projectors once per span rank,
and the rest once over all spans stacked. numpy then reduces the stacked
values to residuals, each the largest over the pairs of frame fields of a
span:

    umbilicity     ||(nabla_X Y)^perp - <X, Y> H||      over block pairs
    sphericity     |<nabla_X H, Z>|                     block X, complement Z
    geodesy        umbilicity + ||H||
    integrability  ||[X, Y]^perp||                      over block pairs

Flag vocabulary over the residuals, for blocks i >= 1 unless stated:

    TP    every E_i umbilical and every E_i^perp integrable (all i)
    WP    E_i spherical, E_i^perp totally geodesic
    QW    E_i umbilical, E_i^perp totally geodesic
    CQW   E_i and E_i^perp umbilical
    CQW0  CQW and E_0^perp umbilical
    CWP   CQW and the mixed mean-curvature exchange identity
    CP    CWP and E_0^perp umbilical

The exchange identity (cwp_residual) compares <nabla_Z eta_i, X> with
<nabla_X H_i, Z> for X in the block and Z in the complement, where H_i and
eta_i are the mean curvature normals of E_i and E_i^perp. It is evaluated
only where both umbilicity preconditions hold.

Errors and warnings come in two phases. The checked sweep runs first, over
all samples: the first sample that fails raises, with the first check that
fails there (metric evaluation, positive definiteness, frame evaluation),
and every sample up to it that passes the positivity check warns if it is
ill-conditioned; where the metric and frame entries evaluate but their jets
are not finite, the diff trees of those entries give the jets or, where
they fail, the error (Sweep.repair). The net's own checks follow, over all
samples (_Samples.check): the first sample that fails raises, with the
first check that fails there (frame degeneracy, block orthogonality pair
by pair, field evaluation), listed as (mask, error) pairs for
scalar_fields._raise_first. Both phases pick the sample with
scalar_fields._first and name it with scalar_fields._point.
Where the jets are finite but a derived value is not (Gamma, or H, its
partials, nabla H, a defect or a bracket of a span), the field
stage raises InconsistencyError naming the quantity, the span and the
sample; only the entries that belong to a span are checked, and the one
that is named is found in the layout of that span alone. A residual that
is not finite raises InconsistencyError instead of passing: _worst takes
every maximum a command reports or compares with a tolerance. A
precondition that is not finite fails (cwp_residual).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .chart_calculus import MetricField, _at, _gnorm, _inv, _jets, _pair_scale
from .errors import (
    ConstraintError,
    DegenerateFrameError,
    InconsistencyError,
    NotApplicableError,
)
from .sampling import SamplePlan, sample_points
from .scalar_fields import (
    Chart, Const, ONE, ZERO, _first, _is_zero, _keys, _pairs, _point, _raise_first,
)

__all__ = [
    "OrthogonalNet",
    "DistributionGeometry",
    "Flag",
    "NetReport",
    "project",
    "distribution_geometry",
    "cwp_residual",
    "classify_net",
]

FLAG_NAMES = ("TP", "WP", "QW", "CQW", "CQW0", "CWP", "CP")

_GRAM_COND_FLOOR = 1e-12
_ORTHO_TOL = 1e-8


class OrthogonalNet:
    """A frame of expression vector fields partitioned into blocks.

    Blocks index into the frame. Block 0 may be empty (no base block); all
    later blocks must be nonempty. A coordinate net uses the standard basis
    as its frame, with blocks over coordinate indices.
    """

    def __init__(self, chart: Chart, frame, blocks):
        self.chart = chart
        self.frame = tuple(tuple(f) for f in frame)
        self.blocks = tuple(tuple(b) for b in blocks)
        if len(self.frame) != chart.dim:
            raise ConstraintError("frame must have dim fields")
        for f in self.frame:
            if len(f) != chart.dim:
                raise ConstraintError("each frame field needs dim components")
        flat = sorted(i for b in self.blocks for i in b)
        if flat != list(range(chart.dim)):
            raise ConstraintError("blocks must partition the frame indices")
        for b in self.blocks[1:]:
            if not b:
                raise ConstraintError("only block 0 may be empty")
        if len(self.blocks) < 2:
            raise ConstraintError("a net needs at least two blocks")

    @staticmethod
    def coordinate(chart: Chart, blocks=None) -> "OrthogonalNet":
        if blocks is None:
            blocks = chart.blocks
        if blocks is None:
            raise ConstraintError("chart has no blocks and none were given")
        n = chart.dim
        frame = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        return OrthogonalNet(chart, frame, blocks)

    @property
    def is_coordinate(self) -> bool:
        n = self.chart.dim
        for i, f in enumerate(self.frame):
            for j, e in enumerate(f):
                want = 1.0 if i == j else 0.0
                if not (isinstance(e, Const) and e.value == want):
                    return False
        return True

    def complement(self, i: int) -> tuple[int, ...]:
        return tuple(
            k for j, b in enumerate(self.blocks) if j != i for k in b
        )


# --- geometry from jets -----------------------------------------------------------

# the residuals of DistributionGeometry by name, in the order of _Geometry.res
_RESIDUALS = ("umbilicity", "sphericity", "geodesy", "integrability")
# the derived values of a span, in the order the first that is not finite at
# a sample is named (_Geometry.span_values)
_DERIVED = ("H", "dH", "nabla H", "umbilicity defect", "bracket")


def _mul(T: np.ndarray, B: np.ndarray) -> np.ndarray:
    """T @ B per sample: T is (m, ..., i) and B is (m, i, j)."""
    return (T.reshape(len(T), -1, T.shape[-1]) @ B).reshape(T.shape[:-1] + B.shape[-1:])


def _colnorm(v: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The g-norms of the columns of v, (m, n, ...), per sample: _gnorm with
    the vectors along axis 1."""
    cols = v.reshape(len(v), v.shape[1], -1)
    q = ((G @ cols) * cols).sum(axis=1)
    return np.sqrt(np.maximum(q, 0.0)).reshape(v.shape[:1] + v.shape[2:])


def _masked_max(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The largest of the values, (s, ..., m) and at least 0, over the
    entries where the mask, (s, ...), holds, per s and sample: 0 where it
    holds nowhere. A value that is not finite propagates."""
    S, m = len(values), values.shape[-1]
    values = np.ascontiguousarray(values).reshape(S, -1, m)
    kept = np.where(mask.reshape(S, -1, 1), values, 0.0)
    return kept.max(axis=1, initial=0.0)


def _frame_roots(g: MetricField, net: OrthogonalNet) -> list:
    """The frame entries, row by row, that a jet tape holds: none for a
    coordinate net on a metric whose entries between any two of its blocks
    are all the folded zero (scalar_fields._is_zero), whose geometry
    _geometry forms in closed form; every entry of any other frame, constant
    or not, and of the coordinate frame on any other metric."""
    if net.is_coordinate and all(
            _is_zero(g.entries[a][c])
            for b, d in itertools.combinations(net.blocks, 2) for a in b for c in d):
        return []
    return [e for f in net.frame for e in f]


@dataclass(frozen=True)
class _SpanIndex:
    """Index tables of a stack of spans, tuples of frame indices, over n
    frame fields (_span_index); every array is read-only."""

    rank: np.ndarray  # (s,) the ranks
    member: np.ndarray  # (s, n) whether X_a is in span s
    # per rank r > 0: the spans of that rank (spans,) and their fields in
    # span order (spans, r)
    groups: tuple
    sigma: np.ndarray  # (n n, s) 1.0 at [j n + i, s] where X_i is in span s, else 0.0
    kappa: np.ndarray  # (n, s) 1.0 where X_k is outside span s, else 0.0
    pairs: np.ndarray  # (p,) the frame pairs (a, b) whose defect some span reads, as a n + b
    defect: np.ndarray  # (s, p) whether the pair's defect counts in span s
    bracket: np.ndarray  # (s, p) whether its bracket does


@functools.lru_cache(maxsize=256)
def _span_index(spans: tuple, n: int) -> _SpanIndex:
    """The index tables of the spans. A pair (a, b) of a span's fields
    counts for its umbilicity defect when X_a comes no later than X_b in the
    span and its rank is at least 2, and for its bracket when X_a comes
    first. Built once per distinct stack of spans."""
    rank = np.array([len(s) for s in spans], dtype=np.intp)
    pos = np.full((len(spans), n), -1, dtype=np.intp)  # position of X_a in span s
    pos[[t for t, s in enumerate(spans) for _ in s], [a for s in spans for a in s]] = [
        q for s in spans for q in range(len(s))]
    order = np.argsort(np.where(pos >= 0, pos, n), axis=1, kind="stable")
    groups = tuple((np.flatnonzero(rank == r), order[rank == r, :r])
                   for r in sorted(set(rank.tolist()) - {0}))
    pa, pb = pos[:, :, None], pos[:, None, :]
    both = (pa >= 0) & (pb >= 0)
    defect = (both & (pa <= pb) & (rank > 1)[:, None, None]).reshape(-1, n * n)
    pairs = np.flatnonzero(defect.any(axis=0))
    member = pos >= 0
    kappa = (~member.T).astype(float)
    index = _SpanIndex(rank, member, groups, np.tile(member.T, (n, 1)).astype(float), kappa,
                       pairs, defect[:, pairs], (both & (pa < pb)).reshape(-1, n * n)[:, pairs])
    for a in (rank, member, index.sigma, kappa, pairs, index.defect, index.bracket,
              *(a for g in groups for a in g)):
        a.flags.writeable = False
    return index


@dataclass
class _Geometry:
    """The geometry of a stack of spans over the samples (_geometry): the
    frame's terms, then per span, along axis s, its mean curvature normal
    with its partials and covariant derivatives, its umbilicity defects and
    brackets, and its residuals. Vectors are columns along axis 1 (k), and
    the pair axis p runs over index.pairs. The arrays whose entries are
    reduced to residuals, cross and res, hold the samples last, so each
    maximum is taken over whole rows of samples."""

    G: np.ndarray  # (m, n, n) the metric
    gamma: np.ndarray  # (m, k, i, j) Gamma^k_ij
    F: np.ndarray  # (m, n, n) the frame, X_a as row a
    M: np.ndarray  # (m, n, n) <X_a, X_b>, the frame's Gram matrix
    scale: np.ndarray  # (m, n, n) |X_a| |X_b|, the frame's _pair_scale
    spans: tuple  # the spans, tuples of frame indices, along axis s
    index: _SpanIndex
    H: np.ndarray  # (m, s, n) mean curvature normal
    dH: np.ndarray  # (m, s, n, n) d_i H^k at [k, i]
    covH: np.ndarray  # (m, k, s, n) nabla_{X_a} H^k at [k, s, a], every frame field
    cross: np.ndarray  # (s, n, n, m) <nabla_{X_a} H, X_c> / (|X_a| |X_c|) at [s, c, a]
    defects: np.ndarray  # (m, k, s, p) (nabla_{X_a} X_b)^perp - <X_a, X_b> H
    brackets: np.ndarray | None  # (m, k, s, p) [X_a, X_b]^perp; None for the coordinate frame
    res: np.ndarray  # (4, s, m) the residuals of _RESIDUALS

    def derived(self) -> list:
        """Gamma and the derived values of the spans, each with the mask of
        its entries that belong to a span, which broadcasts against its
        values at one sample (None: every entry)."""
        index = self.index
        values = [(self.gamma, None), (self.H, None), (self.dH, None),
                  (self.covH, index.member), (self.defects, index.defect)]
        if self.brackets is not None:
            values.append((self.brackets, index.bracket))
        return values

    def span_values(self, t: int) -> list:
        """The derived values of span t in the order of _DERIVED, in the
        layout of the span alone: H (m, n), dH (m, n, n), nabla H (m, r, n),
        and the defects and brackets (m, pairs, n) over the pairs a <= b and
        a < b of the span's fields, in its order."""
        s = np.array(self.spans[t], dtype=np.intp)
        m, n = self.H.shape[0], self.H.shape[-1]
        le, lt = (np.searchsorted(self.index.pairs, s[a] * n + s[b])
                  for a, b in (_pairs(len(s), 0), _pairs(len(s), 1)))
        if len(s) < 2:
            le = lt  # a single field has no defect
        brackets = (np.zeros((m, len(lt), n)) if self.brackets is None
                    else self.brackets[:, :, t, lt].swapaxes(1, 2))
        return [self.H[:, t], self.dH[:, t], self.covH[:, :, t, s].swapaxes(1, 2),
                self.defects[:, :, t, le].swapaxes(1, 2), brackets]


def _dgamma(Ginv, gamma, dG, d2G) -> np.ndarray:
    """d_p Gamma = g^-1 (d_p B / 2 - (d_p g) Gamma), (m, p, k, ij), with B
    as in chart_calculus._levi_civita and Gamma over rows k, columns ij."""
    m, n = dG.shape[:2]
    dB = d2G.transpose(0, 1, 4, 2, 3) + d2G.transpose(0, 1, 4, 3, 2) - d2G
    T = 0.5 * dB.reshape(m, n * n, n * n) - dG.reshape(m, n * n, n) @ gamma
    T = T.reshape(m, n, n, n * n).swapaxes(1, 2).reshape(m, n, n**3)
    return (Ginv @ T).reshape(m, n, n, n * n).swapaxes(1, 2)


def _geometry(metric: tuple, frame_jets, spans) -> _Geometry:
    """The geometry of the spans, tuples of frame indices, from the metric's
    jets as _metric_jets gives them, (G, dG, G^-1, Gamma, d2G), and the
    jets of the frame entries, (m, 1 + n + n(n+1)/2, n^2) as Tape.jet_sweep
    gives them, or None for the coordinate frame of a metric that is block
    diagonal over the net's blocks (_frame_roots). Per span of rank r > 0

        H          the mean curvature normal
        dH         d_i H^k at [k, i]
        defects    (nabla_{X_a} X_b)^perp - <X_a, X_b> H, a <= b, when r > 1
        nabla H    (dH) X_a + Gamma(X_a, H)
        brackets   [X_a, X_b]^perp, a < b

    H, dH and the normal parts of nabla_{X_a} X_b come in closed form for
    the block-diagonal coordinate net (_block_diagonal), which has no
    brackets (None), and from the frame algebra for a frame on the tape
    (_frame_algebra). A span of rank 0 has H = 0 and residuals 0.

    No step loops over the spans. The frame's Gram matrix and pair scale
    (_pair_scale) are formed once per net; nabla H, the defects, the
    brackets and <nabla_{X_a} H, X_c> are each one product over all spans
    and pairs, and a residual is the largest value over the pairs of each
    span (index masks)."""
    G = metric[0]
    m, n = G.shape[:2]
    index = _span_index(tuple(spans), n)
    rank, S = index.rank, len(index.rank)
    pa, pb = np.divmod(index.pairs, n)
    gamma = metric[3].reshape(m, n, n * n)  # Gamma over rows k, columns ij
    # H, dH, and the normal parts of nabla_{X_a} X_b (and the brackets) over
    # rows k, spans and columns (a, b) in index.pairs
    taped = frame_jets is not None
    if taped:
        F, Gt, M, H, dH, normal, brackets = _frame_algebra(metric, frame_jets, index)
    else:
        F = np.broadcast_to(np.eye(n), (m, n, n))
        Gt = M = G
        H, dH, normal = _block_diagonal(metric, index)
        brackets = None
    scale = _pair_scale(M)
    H[:, rank == 0] = dH[:, rank == 0] = 0.0

    # nabla_{X_a} H = (dH + Gamma(e_i, H)) X_a over rows (k, s), columns a,
    # and its inner products with the frame
    gamH = (gamma.reshape(m, n * n, n) @ H.swapaxes(1, 2)).reshape(m, n, n, S)  # Gamma(e_i, H)^k
    covH = dH.transpose(0, 2, 1, 3) + gamH.swapaxes(2, 3)
    if taped:
        covH = _mul(covH, F.swapaxes(1, 2))
    cross = (Gt.swapaxes(1, 2) @ covH.reshape(m, n, S * n)).reshape(m, n, S, n)
    cross = (cross / scale[:, :, None]).transpose(2, 1, 3, 0).copy()

    defects = normal - H.swapaxes(1, 2)[..., None] * M[:, None, None, pa, pb]
    pair_scale = scale[:, None, pa, pb]
    res = np.zeros((4, S, m))  # umbilicity, sphericity, geodesy, integrability
    res[0] = _masked_max((_colnorm(defects, G) / pair_scale).transpose(1, 2, 0), index.defect)
    member = index.member
    res[1] = _masked_max(np.abs(cross), member[:, None, :] & ~member[:, :, None])
    res[2] = res[0] + _colnorm(H.swapaxes(1, 2), G).T
    if taped:
        res[3] = _masked_max((_colnorm(brackets, G) / pair_scale).transpose(1, 2, 0), index.bracket)
    return _Geometry(G, gamma.reshape(m, n, n, n), F, M, scale, tuple(spans), index,
                     H, dH, covH, cross, defects, brackets, res)


def _block_diagonal(metric: tuple, index: _SpanIndex) -> tuple:
    """H, (m, s, n), dH, (m, s, n, n), and the normal parts of nabla_{e_a}
    e_b over rows k, spans and columns (a, b) in index.pairs, (m, n, s, p),
    for the coordinate frame of a metric that is block diagonal over the
    net's blocks, so over each span and its complement. The normal space of
    a span s is then spanned by the coordinates outside it, G^-1 is block
    diagonal too, and Gamma^k_ab = -g^kl d_l g_ab / 2 for a, b in s and k
    outside it, so that H = -grad^perp log det G_ss / (2 r) (O'Neill,
    Semi-Riemannian Geometry, 1983, ch. 7; Ponge and Reckziegel, Geom.
    Dedicata 48, 1993, where H = -grad^perp log rho). With sigma and kappa
    the coordinate masks of the span and of its complement and A_p = G^-1
    d_p G:

        d_l log det G_ss       = sum_{i in s} (A_l)_ii
        H                      = -kappa G^-1 grad log det G_ss / (2 r)
        d_p d_l log det G_ss   = sum_{i in s} ((G^-1 d_p d_l G)_ii - (A_p A_l)_ii)
        d_p H                  = kappa G^-1 (-d_p grad log det G_ss / (2 r) - (d_p G) H)
        (nabla_{e_a} e_b)^perp = kappa Gamma(e_a, e_b)

    Each sum over i in s is one product over all spans with index.sigma, and
    no projector, inverse of a block, d R or d Gamma is formed. Where the
    jets are finite, every value outside kappa is exactly 0."""
    G, dG, Ginv, gamma, d2G = metric
    m, n = G.shape[:2]
    nn, S = n * n, len(index.rank)
    # X_ji (G^-1)_ij over columns (j, i), times index.sigma, is sum_{i in s} (G^-1 X)_ii
    GinvT = Ginv.swapaxes(1, 2).reshape(m, 1, nn)
    # (A_p)_ij at [p, i, j], and (A_l)_ij (A_p)_ji at [l, p, (j, i)]
    A = (Ginv @ dG.swapaxes(1, 2).reshape(m, n, nn)).reshape(m, n, n, n).swapaxes(1, 2)
    AA = A.swapaxes(2, 3).reshape(m, n, 1, nn) * A.reshape(m, 1, n, nn)
    # d_l log det G_ss at [l, s] and d_l d_p log det G_ss at [(l, p), s]
    grad = ((dG.reshape(m, n, nn) * GinvT).reshape(m * n, nn) @ index.sigma).reshape(m, n, S)
    hess = (d2G.reshape(m, nn, nn) * GinvT - AA.reshape(m, nn, nn)).reshape(m * nn, nn) @ index.sigma

    half, kappa = -0.5 / np.maximum(index.rank, 1), index.kappa  # -1 / (2 r)
    H = ((Ginv @ (grad * half)) * kappa).swapaxes(1, 2)
    dGH = dG.transpose(0, 2, 1, 3).reshape(m, nn, n) @ H.swapaxes(1, 2)  # ((d_p G) H)_l at [(l, p), s]
    dH = Ginv @ (hess.reshape(m, nn, S) * half - dGH).reshape(m, n, n * S)  # d_p H^k at [k, (p, s)]
    dH = (dH.reshape(m, n, n, S) * kappa[:, None]).transpose(0, 3, 1, 2)
    return H, dH, gamma.reshape(m, n, 1, nn)[..., index.pairs] * kappa[:, :, None]


def _frame_algebra(metric: tuple, frame_jets, index: _SpanIndex) -> tuple:
    """The frame F (X_a as row a), g X over rows i, columns c, the frame's
    Gram matrix M, H, dH, and the normal parts of C_ab = nabla_{X_a} X_b and
    of the brackets over rows k, spans and columns (a, b) in index.pairs,
    (m, n, s, p), for a frame on the tape, read off its jets. Per span of
    rank r > 0

        H          (I - R g) K / r
        brackets   [X_a, X_b]^perp

    where X holds the span's fields as rows, M = X g X^T is their Gram
    matrix, R = X^T M^-1 X (so R g projects onto the span and I - R g onto
    its normal space), C_ab = Gamma(X_a, X_b) + X_a(X_b) and K = sum_ab
    (M^-1)_ab C_ab = Gamma : R + sum_b (M^-1 X)_b^i d_i X_b. The partials
    follow by the product rule, with d(M^-1) = -M^-1 (dM) M^-1 and d Gamma
    from _dgamma:

        d_p R = -R (d_p g) R + N_p + N_p^T,   N_p = (I - R g)(d_p X)^T M^-1 X
        d_p H = ((I - R g) d_p K - (d_p R) g K - R (d_p g) K) / r

    The frame's terms are formed once: its Gram matrix, and C_ab over the
    frame pairs that some span reads (index.pairs). Once per span rank,
    over the spans of that rank together: M^-1 (_inv), R, M^-1 X and the
    terms with a frame partial of K, d R and d(M^-1 X). Once over all spans
    stacked: K, d K, d R, I - R g, H and dH."""
    G, dG, Ginv, gamma, d2G = metric
    m, n = G.shape[:2]
    rank, pairs = index.rank, index.pairs
    S, P = len(rank), len(pairs)
    pa, pb = np.divmod(pairs, n)

    # Gamma over rows k, columns ij, and d Gamma over rows (p, k), columns ij
    gamma = gamma.reshape(m, n, n * n)
    dgamma = _dgamma(Ginv, gamma, dG, d2G).reshape(m, n * n, n * n)
    gammaT = np.ascontiguousarray(gamma.swapaxes(1, 2))  # rows ij, columns k

    # the frame's terms: X^T, its Gram matrix, and C_ab over rows k, columns
    # (a, b) in index.pairs, from X_a^i X_b^j over rows ij
    iu, ju = _pairs(n, 0)
    F = frame_jets[:, 0].reshape(m, n, n)
    dF = frame_jets[:, 1 : n + 1].reshape(m, n, n, n)  # d_p X_a^k
    d2F = np.empty((m, n, n, n * n))
    d2F[:, iu, ju] = d2F[:, ju, iu] = frame_jets[:, n + 1 :]
    d2F = d2F.reshape(m, n, n, n, n)  # d_p d_q X_a^k
    Ft = F.swapaxes(1, 2)
    A = (F @ dF.reshape(m, n, n * n)).reshape(m, n, n, n)  # X_a(X_b)^k at [a, b, k]
    C = gamma @ (Ft[:, :, None, pa] * Ft[:, None, :, pb]).reshape(m, n * n, P)
    C += A[:, pa, pb].swapaxes(1, 2)
    Gt = G @ Ft  # g X_c over rows i, columns c
    M = Gt.swapaxes(1, 2) @ Ft

    # per rank, over its spans: M^-1, R and M^-1 X
    R = np.zeros((m, S, n, n))
    terms = []
    for ts, idx in index.groups:
        Minv = _inv(M[:, idx[:, :, None], idx[:, None, :]])
        X = F[:, idx]  # (m, spans, r, n)
        Y = Minv @ X
        R[:, ts] = Y.swapaxes(-1, -2) @ X
        terms.append((ts, idx, X, Minv, Y))
    Rcols = R.reshape(m, S, n * n).swapaxes(1, 2)

    # K = Gamma : R and d_p K = (d_p Gamma) : R + Gamma : d_p R, with
    # d_p R = -R (d_p g) R over rows (s, p, k), columns j
    K = (gamma @ Rcols).swapaxes(1, 2)  # (m, S, k)
    dK = (dgamma @ Rcols).reshape(m, n, n, S).transpose(0, 3, 1, 2)  # (m, S, p, k)
    RdG = R.reshape(m, S * n, n) @ dG.swapaxes(1, 2).reshape(m, n, n * n)
    dR = RdG.reshape(m, S, n * n, n) @ R
    del RdG  # each (m, s, n, n, n) array is freed once read
    dR = np.negative(dR.reshape(m, S, n, n, n).swapaxes(2, 3), order="C")
    Pis = np.eye(n) - (R.reshape(m, S * n, n) @ G).reshape(m, S, n, n)
    for ts, idx, X, Minv, Y in terms:
        # the terms with a frame partial: d_i X_b over rows (b, i)
        Sr, r = idx.shape
        Pi = Pis[:, ts]
        D = dF[:, :, idx]  # (m, p, spans, b, k)
        Db = D.transpose(0, 2, 3, 1, 4).reshape(m, Sr, r * n, n)
        y = Y.reshape(m, Sr, 1, r * n)
        K[:, ts] += (y @ Db)[:, :, 0]
        Z = (D.transpose(0, 2, 1, 4, 3).reshape(m, Sr, n * n, r) @ Y).reshape(m, Sr, n, n, n)
        N = (Pi @ Z.swapaxes(2, 3).reshape(m, Sr, n, n * n)).reshape(m, Sr, n, n, n).swapaxes(2, 3)
        dR[:, ts] += N + N.swapaxes(3, 4)
        # d_p (M^-1 X) = M^-1 ((d_p X)(I - R g)^T - X ((d_p g) R + g Z_p))
        V = D.transpose(0, 2, 1, 3, 4).reshape(m, Sr, n * r, n) @ Pi.swapaxes(2, 3)
        V = V.reshape(m, Sr, n, r, n).swapaxes(2, 3)
        gRZ = (dG.reshape(m, 1, n * n, n) @ R[:, ts]).reshape(m, Sr, n, n, n).swapaxes(2, 3)
        gRZ = gRZ.reshape(m, Sr, n, n * n) + G[:, None] @ Z.swapaxes(2, 3).reshape(m, Sr, n, n * n)
        V = V - (X @ gRZ).reshape(m, Sr, r, n, n)
        dY = (Minv @ V.reshape(m, Sr, r, n * n)).reshape(m, Sr, r, n, n).swapaxes(2, 3)
        dD = d2F[:, :, :, idx].transpose(0, 3, 4, 2, 1, 5).reshape(m, Sr, r * n, n * n)
        dK[:, ts] += dY.reshape(m, Sr, n, r * n) @ Db + (y @ dD).reshape(m, Sr, n, n)
    dK += (dR.reshape(m, S * n, n * n) @ gammaT).reshape(m, S, n, n)

    div = np.maximum(rank, 1)[:, None]
    GK = K @ G
    H = (K - (GK[:, :, None] @ R)[:, :, 0]) / div
    dGK = (dG.reshape(m, n * n, n) @ K.swapaxes(1, 2)).reshape(m, n, n, S).transpose(0, 3, 1, 2)
    dH = dK - (_mul(dK, G) + dGK) @ R - (dR.reshape(m, S, n * n, n) @ GK[..., None]).reshape(m, S, n, n)
    del dR
    dH = (dH / div[..., None]).swapaxes(2, 3)

    # C_ab^perp and [X_a, X_b]^perp over rows (k, s), columns ab
    Pk = Pis.transpose(0, 2, 1, 3).reshape(m, n * S, n)
    normal = (Pk @ C).reshape(m, n, S, P)
    brackets = (Pk @ (A[:, pa, pb] - A[:, pb, pa]).swapaxes(1, 2)).reshape(m, n, S, P)
    return F, Gt, M, H, dH, normal, brackets


class _Samples:
    """A net's metric, frame and span residuals over a batch of sample points.

    metric holds the metric's jets as _metric_jets forms them and ev the
    eigenvalues of G over the same samples, and sweep is a jet sweep whose
    last roots are the frame's entries (_frame_roots) where taped holds:
    that of _net_samples, which also holds the metric's upper triangle and
    has run its checks, or the pass-2 sweep of codazzi._criteria. Only the
    frame's jets are mended here (Sweep.repair). A frame off the tape is the
    coordinate frame of a block-diagonal metric: F is the identity
    broadcast over the samples and its Gram matrix is G.
    One stacked pass (_geometry) computes the geometry and the residuals of
    every distinct span of the requested blocks and their complements
    together; sides[i] holds the positions of block i's span and of its
    complement's on the stack's span axis. Per sample, derived_ok holds whether Gamma and every
    derived value of every span are finite. The net's checks run later,
    when the caller calls check."""

    def __init__(self, net: OrthogonalNet, blocks, metric: tuple, ev: np.ndarray, sweep,
                 taped: bool):
        self.net, self.ev, self.sweep, self.taped = net, ev, sweep, taped
        spans_of = {i: (net.blocks[i], net.complement(i)) for i in blocks}
        spans = list(dict.fromkeys(s for pair in spans_of.values() for s in pair))
        self.sides = {i: (spans.index(b), spans.index(c)) for i, (b, c) in spans_of.items()}

        start = len(sweep.tape.root_slots) - (net.chart.dim**2 if taped else 0)
        # by sample, the error of the frame entries' diff trees where they fail
        self.input_errors = sweep.repair(start=start)
        with np.errstate(all="ignore"):
            self.geo = _geometry(metric, sweep.jets[:, :, start:] if taped else None, spans)
            self.derived_ok = _finite(self.geo.derived())

    def field_error(self, j: int):
        """The error of the field stage at sample j: that of the entries'
        diff trees there, or else InconsistencyError naming the first
        derived value that is not finite, Gamma and then per span those of
        _DERIVED, each read in the layout of the span alone."""
        if j in self.input_errors:
            return self.input_errors[j]
        geo = self.geo
        named = [("Gamma", geo.gamma)] + [
            (f"{name} of span {s}", a)
            for t, s in enumerate(geo.spans) for name, a in zip(_DERIVED, geo.span_values(t))]
        for name, a in named:
            bad = a[j][~np.isfinite(a[j])]
            if bad.size:
                return InconsistencyError(
                    f"{name} is {bad[0]} at {_point(self.sweep.points, j)}; "
                    "derived values must be finite")

    def check(self) -> "_Samples":
        """Run the net's checks, whose caller has run the metric's on the
        same samples: the first sample that fails one raises, with the first
        that fails there (frame evaluation, frame degeneracy, block
        orthogonality, field evaluation); values at a sample past its first
        failure are never read. Returns self."""
        pts = self.sweep.points
        M = self.geo.M
        m, n = M.shape[:2]
        # the roots before the frame's have evaluated at every sample
        frame_ok = self.sweep.first_bad == self.sweep.tape.size
        # off the tape M is G, whose eigenvalues the metric's checks took
        evm = self.ev
        if self.taped:
            evm = np.linalg.eigvalsh(np.where(frame_ok[:, None, None], M, np.eye(n)))
        degenerate = frame_ok & (evm[:, 0] <= _GRAM_COND_FLOOR * np.maximum(evm[:, -1], 1e-300))

        pairs = [(a, c) for b, d in itertools.combinations(self.net.blocks, 2) for a in b for c in d]
        pa, pc = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        ip = np.abs(M[:, pa, pc])
        with np.errstate(all="ignore"):  # read only where frame_ok
            skew = ip / self.geo.scale[:, pa, pc] > _ORTHO_TOL

        # per sample: frame evaluation, degeneracy, each pair's orthogonality, the fields
        _raise_first(
            (~frame_ok, self.sweep.error),
            (degenerate, lambda j: DegenerateFrameError(
                f"frame degenerate at {_point(pts, j)}: Gram eigenvalue ratio "
                f"{evm[j, 0]:.3e}/{evm[j, -1]:.3e}")),
            *((skew[:, t], lambda j, t=t: ConstraintError(
                f"blocks not orthogonal at {_point(pts, j)}: "
                f"|<X_{pairs[t][0]}, X_{pairs[t][1]}>| = {ip[j, t]:.3e}"))
              for t in range(len(pairs))),
            (~self.derived_ok | _keys(self.input_errors, m), self.field_error),
        )
        return self

    def _sides(self, blocks) -> tuple:
        """The span axis positions of the blocks and of their complements."""
        return np.array([self.sides[i] for i in blocks], dtype=np.intp).reshape(-1, 2).T

    def residuals(self, blocks) -> dict:
        """The residuals of DistributionGeometry by name, each (blocks, m)."""
        sides = [self.geo.res[:, t] for t in self._sides(blocks)]
        return {
            name + perp: side[q]
            for q, name in enumerate(_RESIDUALS)
            for side, perp in zip(sides, ("", "_perp"))
        }

    def geometry(self, i: int) -> DistributionGeometry:
        """The DistributionGeometry of block i at the first sample."""
        b, c = self.sides[i]
        res = self.residuals((i,))
        return DistributionGeometry(
            i, self.geo.H[0, b], self.geo.H[0, c], **{k: float(v[0, 0]) for k, v in res.items()}
        )

    def exchange(self, blocks) -> np.ndarray:
        """|<nabla_Z eta_i, X> - <nabla_X H_i, Z>| over normalized pairs of a
        field X of block i and a field Z of its complement, (blocks, m)."""
        tb, tc = self._sides(blocks)
        member = self.geo.index.member
        # over blocks, rows Z, columns X
        d1 = self.geo.cross[tc].swapaxes(1, 2)
        d2 = self.geo.cross[tb]
        ratio = np.abs(d1 - d2) / (1.0 + np.abs(d1) + np.abs(d2))
        return _masked_max(ratio, member[tc][:, :, None] & member[tb][:, None, :])


def _net_samples(g: MetricField, net: OrthogonalNet, blocks, pts) -> _Samples:
    """The net's samples of the blocks over an (m, dim) array of points,
    checked in two phases: one jet sweep of the metric and the frame
    entries (chart_calculus._jets) runs the metric's checks and the frame's
    evaluation over all samples, then _Samples.check the net's own."""
    roots = _frame_roots(g, net)
    metric, _, sweep, ev = _jets(g, roots, pts)
    return _Samples(net, blocks, metric, ev, sweep, bool(roots)).check()


def _finite(arrays) -> np.ndarray:
    """Per sample, whether every array, each (m, ...) with a mask that
    broadcasts against its values at one sample or None, is finite there
    wherever its mask holds. Callers ignore floating-point errors
    (np.errstate)."""
    m = len(arrays[0][0])
    ok = np.ones(m, dtype=bool)
    for a, mask in arrays:
        # a finite array whose sum overflows only takes the exact check
        if not np.isfinite(a.sum()):
            fin = np.isfinite(a) if mask is None else np.isfinite(a) | ~mask
            ok &= fin.reshape(m, -1).all(axis=1)
    return ok


def project(g: MetricField, net: OrthogonalNet, block, v, p) -> np.ndarray:
    """g-orthogonal projection of the numeric vector v onto the span of the
    frame fields indexed by `block` at p. Idempotent; the residual v - Pv is
    g-orthogonal to the span."""
    indices = tuple(block)
    if not indices:
        return np.zeros(g.dim)
    G, F = _at(g, [c for a in indices for c in net.frame[a]], p)
    F = F.reshape(len(indices), g.dim)
    M = F @ G @ F.T
    ev = np.linalg.eigvalsh(M)
    if ev[0] <= _GRAM_COND_FLOOR * max(ev[-1], 1e-300):
        raise DegenerateFrameError(f"frame block degenerate at {_point([p], 0)}")
    v = np.asarray(v, dtype=float)
    coeff = np.linalg.solve(M, F @ G @ v)
    return coeff @ F


# --- distribution geometry ------------------------------------------------------


@dataclass
class DistributionGeometry:
    """Residuals of one block and of its complement at one point."""

    block: int
    H: np.ndarray
    eta: np.ndarray
    umbilicity: float
    umbilicity_perp: float
    sphericity: float
    sphericity_perp: float
    geodesy: float
    geodesy_perp: float
    integrability: float
    integrability_perp: float


def distribution_geometry(g: MetricField, net: OrthogonalNet, i: int, p) -> DistributionGeometry:
    """Second-fundamental residuals of block i and its complement at p."""
    if not 0 <= i < len(net.blocks):
        raise ConstraintError(f"no block {i} in a {len(net.blocks)}-block net")
    return _net_samples(g, net, (i,), [p]).geometry(i)


def cwp_residual(g: MetricField, net: OrthogonalNet, i: int, p, tol: float = 1e-8) -> float:
    """Mean-curvature exchange residual for block i at p. Raises
    NotApplicableError when the umbilicity preconditions fail at p, so the
    caller never mistakes an unevaluable identity for a zero residual."""
    samples = _net_samples(g, net, (i,), [p])
    geom = samples.geometry(i)
    if not (geom.umbilicity <= tol and geom.umbilicity_perp <= tol):
        raise NotApplicableError(
            f"umbilicity preconditions fail at {_point(samples.sweep.points, 0)}: "
            f"block {geom.umbilicity:.3e}, complement {geom.umbilicity_perp:.3e}"
        )
    return float(samples.exchange((i,))[0, 0])


# --- classification -------------------------------------------------------------


@dataclass
class Flag:
    """A verdict: a status and the residual it was decided on."""

    status: str
    residual: float

    def to_dict(self) -> dict:
        """The one verdict dict of every report."""
        return {"status": self.status, "residual": self.residual}


@dataclass
class NetReport:
    flags: dict
    h0_sum_residual: float
    cp_hs0_residual: float | None
    n_samples: int
    # the residuals of DistributionGeometry by name, each (blocks, samples)
    residuals: dict
    # the samples, (n_samples, dim), in the order of the residuals' sample
    # axis; factorize_cwp names its sphericity samples by them (not in to_dict)
    points: np.ndarray

    def to_dict(self) -> dict:
        return {
            "flags": {k: f.to_dict() for k, f in self.flags.items()},
            "h0_sum_residual": self.h0_sum_residual,
            "cp_hs0_residual": self.cp_hs0_residual,
            "n_samples": self.n_samples,
        }


def _status(max_resid: float, tol: float) -> str:
    if max_resid <= tol:
        return "pass"
    if max_resid > 10.0 * tol:
        return "fail"
    return "inconclusive"


def _worst(name: str, resid: np.ndarray, pts) -> float:
    """The largest of the residuals, (m,) over the samples pts, at least 0:
    the one way a residual array becomes a number that is reported or
    compared with a tolerance. A maximum that is not finite raises, naming
    the quantity and the first sample that is not (_first, _point):
    max(0.0, nan) is 0.0, which would read as a pass."""
    worst = float(resid.max())
    if not np.isfinite(worst):
        j = _first(~np.isfinite(resid))[0]
        raise InconsistencyError(f"{name} residual is {resid[j]} at {_point(pts, j)}; "
                                 "residuals must be finite")
    return max(0.0, worst)


def classify_net(
    g: MetricField,
    net: OrthogonalNet,
    plan: SamplePlan | None = None,
    tol: float = 1e-8,
) -> NetReport:
    """Evaluate all residuals over the sample plan and assemble the flags.

    A flag passes when its residual stays within tol at every sample, fails
    when it exceeds 10 tol somewhere, and is inconclusive in between. The
    exchange identity contributes to CWP only at samples where both of its
    umbilicity preconditions hold; if no sample admits it and umbilicity
    stays in the indeterminate band, CWP reports not_applicable.
    """
    plan = plan or SamplePlan()
    pts = sample_points(g.chart, plan)
    samples = _net_samples(g, net, range(len(net.blocks)), pts)
    return _classify(samples, tol)


def _classify(samples: _Samples, tol: float) -> NetReport:
    """classify_net on samples of every block whose checks have passed."""
    blocks = range(len(samples.net.blocks))
    pts = samples.sweep.points
    res = samples.residuals(blocks)
    umb, sph = res["umbilicity"], res["sphericity"]
    umb_p, geo_p, integ_p = (
        res[k] for k in ("umbilicity_perp", "geodesy_perp", "integrability_perp")
    )
    tp = np.maximum(umb, integ_p).max(axis=0)
    wp = np.maximum.reduce([umb[1:], sph[1:], geo_p[1:]]).max(axis=0)
    qw = np.maximum(umb[1:], geo_p[1:]).max(axis=0)
    cqw = np.maximum(umb[1:], umb_p[1:]).max(axis=0)
    cqw0 = np.maximum(cqw, umb_p[0])

    # the exchange identity, per block where both umbilicity preconditions hold
    admitted = (umb <= tol) & (umb_p <= tol)
    exchange = samples.exchange(blocks) if admitted.any() else None
    cwp = cqw
    eq_evaluated = bool(admitted[1:].any())
    if eq_evaluated:
        cwp = np.maximum(cwp, np.where(admitted[1:], exchange[1:], 0.0).max(axis=0))
    cp = np.maximum(cwp, umb_p[0])
    maxes = {
        name: _worst(name, val, pts)
        for name, val in zip(FLAG_NAMES, (tp, wp, qw, cqw, cqw0, cwp, cp))
    }

    # H_0 against the sum of the complements' normals eta_i, i >= 1
    G = samples.geo.G
    tb, tc = samples._sides(blocks)
    H = samples.geo.H[:, np.concatenate([tb[:1], tc[1:]])]
    norms = _gnorm(H, G)
    hsum = H[:, 0] - H[:, 1:].sum(axis=1)
    hscale = 1.0 + norms[:, 0] + norms[:, 1:].sum(axis=1)
    h0_max = _worst("h0_sum_residual", _gnorm(hsum, G) / hscale, pts)

    cp_hs0_max = 0.0
    eq0_evaluated = bool(samples.net.blocks[0]) and bool(admitted[0].any())
    if eq0_evaluated:
        cp_hs0_max = _worst("cp_hs0_residual", np.where(admitted[0], exchange[0], 0.0), pts)
    flags = {name: Flag(_status(maxes[name], tol), maxes[name]) for name in FLAG_NAMES}
    if not eq_evaluated and flags["CWP"].status == "inconclusive":
        flags["CWP"] = Flag("not_applicable", maxes["CWP"])
        flags["CP"] = Flag("not_applicable", maxes["CP"])

    if flags["CP"].status == "pass" and eq0_evaluated and cp_hs0_max > 10.0 * tol:
        raise InconsistencyError(
            "CP flags pass but the exchange identity fails on the base block "
            f"(residual {cp_hs0_max:.3e}); this should be analytically impossible"
        )

    return NetReport(
        flags=flags,
        h0_sum_residual=h0_max,
        cp_hs0_residual=cp_hs0_max if eq0_evaluated else None,
        n_samples=len(pts),
        residuals=res,
        points=pts,
    )
