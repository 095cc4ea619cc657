"""Codazzi tensors with exactly two eigenvalue clusters.

A symmetric (1,1)-tensor field Phi is a Codazzi tensor when the covariant
derivative is symmetric in its two slots: (nabla_X Phi)Y = (nabla_Y Phi)X for
all X, Y. When such a tensor has exactly two distinct eigenvalues lambda and
mu everywhere, the two eigenbundles form an orthogonal net whose geometry is
governed by a handful of scalar identities in lambda, mu and their covariant
Hessians. This module evaluates the defining residual, extracts the
eigenstructure both sample by sample and as closed-form scalar fields, scores
the identities, classifies the pair (metric, tensor), and builds the two
canonical model pairs that realize the classification.

Every field is compiled into an evaluation tape and run once over all sample
points; residuals are stacked numpy over the sample axis. The analysis
jet-sweeps the samples twice: pass 1 the metric and the tensor, whose
partials give the Codazzi residual and the Christoffel symbols; pass 2 the
eigenvalue fields and the eigen-net's frame (none for a diagonal Phi,
whose eigen-net is a coordinate net, on a metric that is block diagonal
over its two blocks), whose jets give, with the
metric's, the eigen-net's mean curvature normals and their partials in the
batch that also classifies the net (nets._Samples). Covariant Hessians and
derivatives are contracted numerically. Errors and warnings are those of
checking one sample at a time in plan order (scalar_fields._raise_first),
each naming its sample with scalar_fields._point, and every maximum
reported or compared with a tolerance is nets._worst's, so one that is not
finite raises InconsistencyError instead of passing.

Units. Only the relation residual |lambda - h(mu)| / (1 + |lambda|) is a
ratio of unitless quantities. Under a homothety g -> c g, which keeps every
verdict of the theory, the Codazzi and warping ODE residuals scale as
c^-1/2 (units of 1/length), as the umbilicity, geodesy and integrability
residuals of nets do; sphericity there scales as c^-1. The identity
residuals below, the along-bundle variations and the self-adjointness
defect divide a magnitude by 1 plus the magnitudes it is formed from: they
read as ratios where those are large against 1, and where they are small
each scales like its terms (1/length for mean_curvature and the variations,
1/length^2 for the other identities, length^2 for G Phi in the defect).
Residuals that pair two fields are divided by the fields' norms in one
place, chart_calculus._pair_scale, which is where they are normalized.

Residual vocabulary:

* codazzi: antisymmetry defect of nabla Phi over coordinate pairs.
* mean_curvature: the eigenbundle of lambda is umbilical with mean curvature
  normal eta solving (lambda I - Phi) eta = (grad lambda) restricted to the
  orthogonal complement; this scores that identity with eta computed
  geometrically by the nets machinery.
* conformal_product: the criterion, in terms of alpha = (lambda + mu)/2 and
  beta = (mu - lambda)/(mu + lambda), for the eigen-net to be conformal to a
  product net. Not applicable where lambda + mu vanishes.
* mu_spherical / lambda_spherical: the second-order criteria equivalent to
  sphericity of the mu (resp. lambda) eigenbundle. When either holds, both
  holding is equivalent to a conformal product structure whose reciprocal
  conformal factor splits as a sum of one function per factor.
* eta_two_path / zeta_two_path: the same scalar <nabla_X eta, Y> computed two
  independent ways, geometrically and by a closed formula in the eigenvalue
  fields; agreement cross-validates the calculus, net and eigen layers.

When the eigenvalues satisfy lambda = h(mu) for a supplied one-variable
function h and mu is constant along its eigenbundle, the classifier lands in
one of two cases: "constant_product" (both eigenvalue fields constant, the
net is a metric product and Phi is a constant multiple of each projector) or
"warped_rank_one" (the lambda bundle has rank one and the metric is a warped
product over it, with the warping tied to mu by a first-order ODE). Anything
else is reported as "outside_hypotheses".
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .chart_calculus import (
    MetricField,
    _block_cholesky_inv_t,
    _blocks,
    _cov,
    _ginner,
    _gnorm,
    _hess,
    _jets,
    _pair_scale,
    _slogdet,
    _stacked,
    _symmetric,
)
from .errors import (
    CoalescenceError,
    ConstraintError,
    InconsistencyError,
    NotCodazziError,
)
from .nets import (
    Flag,
    NetReport,
    OrthogonalNet,
    _classify,
    _frame_roots,
    _Samples,
    _status,
    _worst,
)
from .product_metrics import (
    FactorSpec,
    ProductSpec,
    _check_positive,
    build_metric,
    conformal_scale,
)
from .sampling import SamplePlan, grid_axes, sample_points
from .scalar_fields import (
    Chart,
    Expr,
    ONE,
    ZERO,
    _first,
    _is_zero,
    _keys,
    _pairs,
    _point,
    _raise_first,
    add,
    compile_tape,
    const,
    div,
    free_vars,
    mul,
    powc,
    sub,
    substitute,
    var,
)

__all__ = [
    "GAP_MIN",
    "SymTensorField",
    "EigenPair",
    "CriteriaRecord",
    "CodazziReport",
    "CodazziCandidate",
    "self_adjoint_defect",
    "codazzi_residual",
    "eigen_two",
    "criteria_residuals",
    "classify_codazzi",
    "build_codazzi_candidate",
]

GAP_MIN = 1e-6

# alignment threshold for deciding that an eigenvector is a coordinate axis
_AXIS_TOL = 1e-8


class SymTensorField:
    """A (1,1)-tensor field as a dim x dim matrix of component expressions.

    The optional metric reference records which metric the tensor is
    self-adjoint against; when given, self-adjointness is spot-checked at the
    chart center, to 1e-8, so a transposed or mis-indexed component matrix
    fails fast.
    """

    def __init__(self, chart: Chart, components, metric: MetricField | None = None):
        self.chart = chart
        self.components = tuple(tuple(row) for row in components)
        n = chart.dim
        if len(self.components) != n or any(len(r) != n for r in self.components):
            raise ConstraintError("components must form a dim x dim matrix")
        for row in self.components:
            for e in row:
                bad = [v for v in free_vars(e) if v >= n]
                if bad:
                    raise ConstraintError(
                        f"component uses variable index {max(bad)}, outside the chart"
                    )
        self.metric = metric
        if metric is not None:
            if metric.dim != n:
                raise ConstraintError("metric and tensor dimensions differ")
            defect = self_adjoint_defect(metric, self, chart.center())
            if not defect <= 1e-8:
                raise ConstraintError(
                    f"tensor is not self-adjoint at the chart center: defect {defect:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.chart.dim

    @staticmethod
    def diagonal(chart: Chart, diag_entries, metric: MetricField | None = None) -> "SymTensorField":
        n = chart.dim
        diag_entries = tuple(diag_entries)
        if len(diag_entries) != n:
            raise ConstraintError("need one diagonal entry per dimension")
        comp = [[diag_entries[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        return SymTensorField(chart, comp, metric)


# --- metric, tensor and Codazzi residual over the samples ----------------------


@dataclass
class _Fields:
    """Metric, tensor and Codazzi residual over the samples; the residual is
    zero where no pair vectors were evaluated. metric holds, after a jet
    sweep, the metric's jets as _metric_jets gives them, (G, dG, G^-1,
    Gamma, packed d2G, blocks), and ev the eigenvalues of G its positivity
    check took; both are None otherwise."""

    points: np.ndarray  # (m, n)
    G: np.ndarray  # (m, n, n)
    P: np.ndarray  # (m, n, n)
    codazzi: np.ndarray  # (m,)
    metric: tuple | None = None
    ev: np.ndarray | None = None  # (m, n)


def _metric_tensor(g: MetricField, phi: SymTensorField, pts, tol: float,
                   codazzi: bool = False) -> _Fields:
    """Evaluate the metric and the tensor over the samples with one tape
    run, and with codazzi (and dim > 1) the Codazzi residual: the run is
    then a jet sweep (chart_calculus._jets), whose partials of the metric
    give Gamma and G^-1 (kept, with the packed d2G and the metric's blocks,
    in the result for the eigen-net), and with those of the tensor
    (nabla_i Phi)e_j - (nabla_j Phi)e_i, i < j, with

        (nabla_i Phi)^k_j = d_i Phi^k_j + Gamma^k_il Phi^l_j - Phi^k_l Gamma^l_ij.

    Raises what chart_calculus._checked raises first: metric evaluation,
    positive definiteness, tensor evaluation, self-adjointness beyond tol,
    then, with codazzi, the error of the diff trees of the metric and tensor
    entries where their jets are not finite. Every sample up to that one
    that passes the positivity check warns if it is ill-conditioned."""
    n = g.dim
    nn = n * n
    roots = [e for row in phi.components for e in row]
    codazzi = codazzi and n > 1
    adjoint = (
        nn - 1,
        lambda G, vals: ~(_defect(G, vals) <= tol),
        lambda G, v, at: ConstraintError(
            f"tensor is not self-adjoint at {at}: defect {_defect(G, v):.3e}"),
    )
    metric = ev = None
    if codazzi:
        metric, J, sweep, ev = _jets(g, roots, pts, [adjoint])
        G, pts, vals = metric[0], sweep.points, J[:, 0]
    else:
        G, vals = _stacked(g, roots, pts, [adjoint])
    m = len(G)
    P = vals.reshape(m, n, n)
    codazzi_res = np.zeros(m)
    if codazzi:
        dP = J[:, 1 : n + 1].reshape(m, n, n, n).swapaxes(2, 3)  # d_a Phi^k_b at [:, a, b, k]
        gam = metric[3]
        # (nabla_a Phi)^k_b at [:, a, b, k]
        N = dP + np.einsum("mkal,mlb->mabk", gam, P) - np.einsum("mkl,mlab->mabk", P, gam)
        ia, ib = _pairs(n, 1)
        scale = _pair_scale(G)[:, ia, ib]
        codazzi_res = (_gnorm(N[:, ia, ib] - N[:, ib, ia], G) / scale).max(axis=1)
    return _Fields(pts, G, P, codazzi_res, metric, ev)


def _defect(G, vals):
    """Relative asymmetry |S - S^T| / (1 + |S|) of S = G P, P the tensor
    given by the root values, for stacked samples or one. S is divided
    first by the power of two s at or below its largest entry (np.frexp),
    which is exact, so no square overflows: |A/s| / (1/s + |S/s|)."""
    S = G @ vals.reshape(G.shape)
    s = np.ldexp(1.0, np.frexp(np.abs(S).max(axis=(-2, -1)))[1] - 1)
    S = S / s[..., None, None]
    return np.linalg.norm(S - np.swapaxes(S, -1, -2), axis=(-2, -1)) / (
        1.0 / s + np.linalg.norm(S, axis=(-2, -1))
    )


def self_adjoint_defect(g: MetricField, phi: SymTensorField, p) -> float:
    """Relative asymmetry of g Phi at p; zero iff Phi is g-self-adjoint there.
    A defect that is not finite raises ConstraintError."""
    fields = _metric_tensor(g, phi, [p], np.inf)
    return float(_defect(fields.G, fields.P)[0])


def codazzi_residual(g: MetricField, phi: SymTensorField, p, tol: float = 1e-8) -> float:
    """Max over coordinate pairs of the antisymmetry defect of nabla Phi at p,
    measured in the metric norm and divided by the coordinate norms
    (chart_calculus._pair_scale)."""
    return float(_metric_tensor(g, phi, [p], tol, codazzi=True).codazzi[0])


# --- eigenstructure over the samples ---------------------------------------------


@dataclass
class EigenPair:
    """Two eigenvalue clusters of a g-self-adjoint operator at one point.

    The bases are g-orthonormal. lam is the cluster whose eigenspace carries
    the direction with the largest component along the lowest-index
    coordinate, which keeps the labeling stable across nearby points.
    """

    lam: float
    mu: float
    basis_lambda: tuple
    basis_mu: tuple
    gap: float
    invariance_residual: float

    @property
    def rank_lambda(self) -> int:
        return len(self.basis_lambda)

    @property
    def rank_mu(self) -> int:
        return len(self.basis_mu)


class _Eigen:
    """Eigenvalues of Phi split into two clusters at every sample.

    S v = w G v, S = G Phi symmetrized, is reduced at all samples at once
    as LAPACK sygvd reduces one sample: with G = L L^T (G is SPD, or
    _metric_tensor raised), the eigenvectors U of L^-1 S L^-T give V = L^-T U and
    V^T G V = I. L^-T is taken per diagonal block of G, blocks
    (chart_calculus._blocks, _block_cholesky_inv_t): a 1 x 1 block g gives
    1 / sqrt(g), a larger one the inverse of its Cholesky factor,
    transposed. lam_low[j] says whether lam is the lower cluster at j."""

    def __init__(self, G: np.ndarray, P: np.ndarray, blocks, gap_min: float):
        m, n = G.shape[:2]
        self.n = n
        S = G @ P
        S = 0.5 * (S + S.swapaxes(-1, -2))
        Lti = _block_cholesky_inv_t(G, blocks)  # L^-T
        w, U = np.linalg.eigh(Lti.swapaxes(-1, -2) @ S @ Lti)
        self.w, self.V = w, Lti @ U
        self.spread = w[:, -1] - w[:, 0]
        self.coalesced = (self.spread < gap_min) | (n < 2)
        if n < 2:
            self.split = np.zeros(m, dtype=bool)
            return
        k = np.argmax(np.diff(w, axis=1), axis=1) + 1
        rows = np.arange(m)
        self.k = k
        self.gap = w[rows, k] - w[rows, k - 1]
        self.spreads = (w[rows, k - 1] - w[:, 0], w[:, -1] - w[rows, k])
        self.split = ~self.coalesced & (
            (self.gap < gap_min) | (np.maximum(*self.spreads) >= gap_min)
        )
        # cluster means, and lam is the cluster where coordinate 0 weighs more
        low = np.arange(n) < k[:, None]
        v0 = self.V[:, 0] ** 2
        self.lam_low = ~(np.sum(v0, axis=1, where=~low) > np.sum(v0, axis=1, where=low))
        means = np.sum(w, axis=1, where=low) / k, np.sum(w, axis=1, where=~low) / (n - k)
        self.lam = np.where(self.lam_low, *means)
        self.mu = np.where(self.lam_low, *means[::-1])

    def failed(self) -> np.ndarray:
        return self.coalesced | self.split

    def error(self, j: int, pts) -> CoalescenceError:
        """The error at sample j of the samples pts."""
        if self.coalesced[j]:
            return CoalescenceError(
                f"eigenvalues coalesce at {_point(pts, j)}: spread {self.spread[j]:.3e}"
            )
        lo, hi = self.spreads
        return CoalescenceError(
            f"eigenvalues do not form two clusters at {_point(pts, j)}: "
            f"gap {self.gap[j]:.3e}, cluster spreads {lo[j]:.3e}/{hi[j]:.3e}"
        )

    def align(self, lam_ref: np.ndarray):
        """Relabel so that lam is the cluster nearer lam_ref at every sample."""
        swap = np.abs(self.lam - lam_ref) > np.abs(self.mu - lam_ref)
        self.lam, self.mu = np.where(swap, self.mu, self.lam), np.where(swap, self.lam, self.mu)
        self.lam_low = self.lam_low ^ swap

    def rank_lambda(self) -> np.ndarray:
        return np.where(self.lam_low, self.k, self.n - self.k)

    def bases(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """(m, rank, n) lambda and (m, n - rank, n) mu eigenvectors, where the
        lambda cluster has the given rank."""
        n = self.n
        lam_start = np.where(self.lam_low, 0, self.k)
        mu_start = np.where(self.lam_low, self.k, 0)

        def take(start, r):
            cols = np.minimum(start[:, None] + np.arange(r), n - 1)
            return np.take_along_axis(self.V, cols[:, None, :], axis=2).transpose(0, 2, 1)

        return take(lam_start, rank), take(mu_start, n - rank)

    def pair(self, j: int, G: np.ndarray, P: np.ndarray) -> EigenPair:
        """The EigenPair of sample j; G and P are that sample's matrices."""
        k = int(self.k[j])
        low, high = self.V[j, :, :k].T, self.V[j, :, k:].T
        X, Y = (low, high) if self.lam_low[j] else (high, low)
        lam, mu = float(self.lam[j]), float(self.mu[j])
        # rows P v - value v over both bases
        B = np.concatenate([X, Y])
        R = B @ P.T - np.repeat([lam, mu], [len(X), len(Y)])[:, None] * B
        inv = float(np.max(_gnorm(R[None], G[None]))) / (1.0 + float(np.max(np.abs(self.w[j]))))
        return EigenPair(
            lam=lam,
            mu=mu,
            basis_lambda=tuple(x.copy() for x in X),
            basis_mu=tuple(y.copy() for y in Y),
            gap=float(self.gap[j]),
            invariance_residual=inv,
        )


def eigen_two(g: MetricField, phi: SymTensorField, p, gap_min: float = GAP_MIN,
              tol: float = 1e-8) -> EigenPair:
    """Eigenvalues of Phi at p, required to split into exactly two clusters
    separated by at least gap_min."""
    fields = _metric_tensor(g, phi, [p], tol)
    eig = _Eigen(fields.G, fields.P, _blocks(g), gap_min)
    if eig.failed()[0]:
        raise eig.error(0, fields.points)
    return eig.pair(0, fields.G[0], fields.P[0])


# --- closed-form eigen fields ---------------------------------------------------


def _pivots(a: np.ndarray, rank: int) -> list[int]:
    """The first rank (at most the rank of a) columns that QR with column
    pivoting (Businger & Golub, 1965) picks from a: each step takes the
    column of largest remaining norm and projects it out of the others.
    Norms within 1e-12 of the largest column tie, and a tie goes to the
    lowest index, so rounding does not decide between equal columns."""
    a = np.array(a, dtype=float)
    slack = 1e-12 * np.max(np.linalg.norm(a, axis=0))
    picked = []
    for _ in range(rank):
        norms = np.linalg.norm(a, axis=0)
        norms[picked] = -np.inf
        c = int(np.argmax(norms >= norms.max() - slack))
        picked.append(c)
        q = a[:, c] / norms[c]
        a -= np.outer(q, q @ a)
    return picked


class _EigenModel:
    """Eigenvalue fields, derivative fields and the eigen-net of (g, Phi),
    anchored at the sample point anchor, a tuple of floats, where the
    pointwise decomposition is pair and the tensor's components are P0.

    A Phi whose off-diagonal components are all the folded zero is read off
    its diagonal: the lambda block is the rank_lambda coordinates whose
    entries at the anchor lie nearest pair.lam, the mu block the rest, each
    eigenvalue field is the mean of its block's entries (the entry itself
    on a rank-one block), and the eigen-net is the coordinate net of the two
    blocks, so no frame entry is swept where the metric is block diagonal
    over them (nets._frame_roots). Its anchor values come from P0.

    Any other Phi takes the closed form: with two eigenvalues of constant
    ranks p and q the trace invariants t1 = tr Phi and t2 = tr Phi^2
    determine both eigenvalue fields up to a global sign, which the anchor
    point fixes: one tape holds both sign candidates and runs at the
    anchor. The eigen-net frame is then read off the spectral projectors
    (Phi - mu I)/(lambda - mu) and (Phi - lambda I)/(mu - lambda), taking
    the columns that _pivots selects from their values at the anchor, which
    numpy forms from P0 and the chosen candidates; only those columns are
    built as expressions. Where a projector value is not finite, the
    projector entries are run at the anchor as expressions instead, which
    raises what evaluating them raises.
    """

    def __init__(self, g: MetricField, phi: SymTensorField, anchor: tuple, pair: EigenPair,
                 P0: np.ndarray):
        self.g = g
        at_anchor = np.array([anchor])
        n = g.dim
        pr, qr = pair.rank_lambda, pair.rank_mu
        self.rank_lambda, self.rank_mu = pr, qr

        comp = phi.components
        diagonal = all(_is_zero(comp[i][j]) for i in range(n) for j in range(n) if i != j)
        if diagonal:
            d = np.diag(P0)
            # ties keep the coordinate order
            order = sorted(range(n), key=lambda i: abs(d[i] - pair.lam))
            blocks = (tuple(sorted(order[:pr])), tuple(sorted(order[pr:])))
            candidates = [tuple(
                div(functools.reduce(add, (comp[i][i] for i in b)), const(float(len(b))))
                for b in blocks)]
            vals = [float(np.mean(d[list(b)])) for b in blocks]
        else:
            t1 = functools.reduce(add, (comp[i][i] for i in range(n)), ZERO)
            t2 = functools.reduce(add, (mul(comp[i][j], comp[j][i])
                                        for i in range(n) for j in range(n)), ZERO)
            disc = mul(const(float(pr * qr)), sub(mul(const(float(n)), t2), mul(t1, t1)))
            root = powc(disc, 0.5)
            candidates = []
            for s in (1.0, -1.0):
                lam_e = div(add(mul(const(float(pr)), t1), mul(const(s), root)),
                            const(float(pr * n)))
                mu_e = div(sub(mul(const(float(qr)), t1), mul(const(s), root)),
                           const(float(qr * n)))
                candidates.append((lam_e, mu_e))
            vals = compile_tape([e for pair_e in candidates for e in pair_e]).run(at_anchor)[0]
        errs = [abs(vals[2 * a] - pair.lam) + abs(vals[2 * a + 1] - pair.mu)
                for a in range(len(candidates))]
        best = min(range(len(candidates)), key=errs.__getitem__)
        if errs[best] > 1e-6 * (1.0 + abs(pair.lam) + abs(pair.mu)):
            raise InconsistencyError(
                "closed-form eigenvalue fields disagree with the pointwise "
                f"decomposition at {anchor}: error {errs[best]:.3e}"
            )
        self.lam_expr, self.mu_expr = candidates[best]
        if diagonal:
            self.net = OrthogonalNet.coordinate(g.chart, blocks)
            return
        lam0, mu0 = vals[2 * best], vals[2 * best + 1]

        gap_e = sub(self.lam_expr, self.mu_expr)

        def entry(shift: Expr, i: int, j: int) -> Expr:
            return div(sub(comp[i][j], shift) if i == j else comp[i][j], gap_e)

        # the mu projector is (Phi - lam I)/(mu - lam); reuse gap_e with a sign
        shifts = (self.mu_expr, self.lam_expr)
        with np.errstate(all="ignore"):
            gap = lam0 - mu0
            mats = np.stack([(P0 - s * np.eye(n)) / gap for s in (mu0, lam0)])
        if not (np.isfinite(gap) and np.isfinite(mats).all()):
            mats = compile_tape([entry(s, i, j) for s in shifts for i in range(n)
                                 for j in range(n)]).run(at_anchor).reshape(2, n, n)
        frame = []
        for shift, v, rank, sign in zip(shifts, mats, (pr, qr), (ONE, const(-1.0))):
            for c in sorted(_pivots(v, rank)):
                frame.append(tuple(mul(sign, entry(shift, i, c)) for i in range(n)))
        blocks = (tuple(range(pr)), tuple(range(pr, n)))
        self.net = OrthogonalNet(g.chart, frame, blocks)


@dataclass
class CriteriaRecord:
    """Identity residuals of one point, together with the eigenvalues there.

    conformal_product is None where lambda + mu is too small to divide by.
    """

    lam: float
    mu: float
    mean_curvature: float
    conformal_product: float | None
    mu_spherical: float
    lambda_spherical: float
    eta_two_path: float
    zeta_two_path: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# --- identity residuals over the samples ------------------------------------------


def _rel(*terms) -> np.ndarray:
    """|sum of terms| / (1 + sum of |terms|), summed left to right."""
    total, scale = terms[0], 1.0 + np.abs(terms[0])
    for t in terms[1:]:
        total = total + t
        scale = scale + np.abs(t)
    return np.abs(total) / scale


# the identities _criteria scores at every sample, in the order they are
# reported and reduced to maxima
_IDENTITIES = ("mean_curvature", "conformal_product", "mu_spherical",
               "lambda_spherical", "eta_two_path", "zeta_two_path")


@dataclass
class _Scores:
    """Per-sample eigenvalues and residuals, each of shape (m,).

    identities maps each name of _IDENTITIES to its residuals, with
    conformal_product 0 where cp_ok fails; relation and ode are None
    without a relation h, and ode is None unless lambda has rank one."""

    lam: np.ndarray
    mu: np.ndarray
    identities: dict
    cp_ok: np.ndarray
    lam_along: np.ndarray
    mu_along: np.ndarray
    X: np.ndarray  # (m, rank_lambda, n) lambda eigenvectors
    relation: np.ndarray | None
    ode: np.ndarray | None

    def record(self, j: int) -> CriteriaRecord:
        values = {k: float(v[j]) for k, v in self.identities.items()}
        if not self.cp_ok[j]:
            values["conformal_product"] = None
        return CriteriaRecord(lam=float(self.lam[j]), mu=float(self.mu[j]), **values)


@np.errstate(all="ignore")
def _criteria(fields: _Fields, eig: _Eigen, model: _EigenModel, gap_min: float,
              h_expr: Expr | None = None) -> tuple[_Scores, _Samples]:
    """Score every identity at every sample. Returns the scores and the
    eigen-net's samples, whose checks have not run.

    This is the second jet sweep of the samples; the first (_metric_tensor)
    gave the metric's jets, G^-1, Gamma and the eigenvalues of G. One tape
    holds lambda, mu and h(mu), then the eigen-net's frame entries
    (_frame_roots; none for the coordinate eigen-net of a diagonal Phi on a
    metric that is block diagonal over its two blocks), and its
    jet sweep gives the first and second partials of lambda and mu and,
    with the metric's, the eigen-net's samples (_Samples): the mean
    curvature normals eta and zeta and their partials. The partials of
    alpha = (lambda + mu)/2 and beta = (mu - lambda)/(mu + lambda) follow
    from these where lambda + mu is bounded away from zero, the only samples
    that read them.
    Failures are raised in the order of checking one sample at a time: the
    two clusters, the evaluation of lambda, a change of rank, then the
    fields. Where the jets of lambda or mu are not finite but the values of
    lambda and mu are clean, their diff trees give the jets or the error
    (Sweep.repair; h is read by value only, and _Samples mends the frame's
    jets). The fields fail in this order: the values of mu and h, the diff
    trees of lambda and mu, then the field stage of the eigen-net
    (_Samples.field_error); a frame entry that fails to evaluate is left to
    that stage and to the eigen-net's checks.
    numpy's floating-point errors are ignored here, not warned of: a score
    that overflows is inf or nan (1/(lambda - mu)^2 falls to 0 where the
    gap's square overflows), and _worst raises on every score that is not
    finite where it is reported or compared."""
    n = model.g.dim
    pts = fields.points
    m = len(pts)
    pr = model.rank_lambda

    hs = [h_expr] if h_expr is not None else []
    k = 2 + len(hs)  # the roots before the frame's
    roots = _frame_roots(model.g, model.net)
    tape = compile_tape([model.lam_expr, model.mu_expr, *hs, *roots])
    sweep = tape.jet_sweep(pts)
    errors = sweep.repair(2)
    samples = _Samples(model.net, range(2), fields.metric, fields.ev, sweep, bool(roots))
    fb = sweep.first_bad
    # d_i lambda, d_i mu, d_i d_l lambda and d_i d_l mu from the jets
    dlam, dmu = sweep.jets[:, 1 : n + 1, 0], sweep.jets[:, 1 : n + 1, 1]
    d2lam_v, d2mu_v = (_symmetric(sweep.jets[:, n + 1 :, k], n) for k in range(2))

    lam_ok = fb >= tape.bounds[1]
    eig.align(np.where(lam_ok, sweep.values[:, 0], 0.0))
    # per sample: the two clusters, lambda, a change of rank, then the fields
    _raise_first(
        (eig.failed(), lambda j: eig.error(j, pts)),
        (~lam_ok, sweep.error),
        (eig.rank_lambda() != pr, lambda j: CoalescenceError(
            f"eigenvalue ranks change at {_point(pts, j)}: "
            f"{eig.rank_lambda()[j]} vs {pr} at the anchor")),
        (fb < tape.bounds[k], sweep.error),
        (_keys(errors, m), errors.get),
        (~samples.derived_ok | _keys(samples.input_errors, m), samples.field_error),
    )

    lam, mu = eig.lam, eig.mu
    cp_ok = np.abs(lam + mu) > gap_min * (1.0 + np.abs(lam) + np.abs(mu))
    X, Y = eig.bases(pr)
    lam_c, mu_c, *h_vals = sweep.values[:, :k].T
    # eta, zeta, d_i eta^k, d_i zeta^k and Gamma^k_ij from the eigen-net's jets
    geo = samples.geo
    tl, tm = samples.sides[0]  # the lambda and mu blocks
    eta_v, zeta_v, deta_v, dzeta_v, gam = (
        geo.H[:, tl], geo.H[:, tm], geo.dH[:, tl], geo.dH[:, tm], geo.gamma)
    G, P, Ginv = fields.G, fields.P, fields.metric[2]
    grad_lam = np.einsum("mij,mj->mi", Ginv, dlam)
    grad_mu = np.einsum("mij,mj->mi", Ginv, dmu)

    def along(grad, B):
        """Projection of grad onto the span of the g-orthonormal rows of B."""
        return np.einsum("mb,mbi->mi", _ginner(grad[:, None], G, B), B)

    # mean curvature identity: (lam I - Phi) eta = (grad lam) on the mu side
    lhs = lam[:, None] * eta_v - np.einsum("mij,mj->mi", P, eta_v)
    rhs = along(grad_lam, Y)
    mcn = _gnorm(lhs - rhs, G) / (1.0 + _gnorm(lhs, G) + _gnorm(rhs, G))

    def on(v, B):
        """v(B_a) per basis vector, (m, a)."""
        return np.einsum("mai,mi->ma", B, v)

    Xlam, Xmu, Ylam, Ymu = on(dlam, X), on(dmu, X), on(dlam, Y), on(dmu, Y)
    col, row = (slice(None), slice(None), None), (slice(None), None, slice(None))
    gap = (lam - mu)[:, None, None]
    u1 = 2.0 * Xmu[col] * Ymu[row]
    u2 = -Xmu[col] * Ylam[row]
    u3 = gap * _hess(d2mu_v, gam, dmu, X, Y)
    v1 = 2.0 * Xlam[col] * Ylam[row]
    v2 = u2
    v3 = -gap * _hess(d2lam_v, gam, dlam, X, Y)
    # <nabla_X eta, Y> and <nabla_Y zeta, X> against the closed formulas
    d1 = _ginner(_cov(deta_v, gam, eta_v, X)[:, :, None], G, Y[:, None])
    d2 = _ginner(_cov(dzeta_v, gam, zeta_v, Y)[:, None], G, X[:, :, None])
    inv_gap2 = 1.0 / gap**2
    f1 = -inv_gap2 * (v1 + v2 + v3)
    f2 = -inv_gap2 * (u1 + u2 + u3)

    def pair_max(r) -> np.ndarray:
        return r.max(axis=(1, 2), initial=0.0)

    cp = np.zeros(m)
    if cp_ok.any():
        alpha = (0.5 * (lam + mu))[:, None, None]
        dalpha, d2alpha = 0.5 * (dlam + dmu), 0.5 * (d2lam_v + d2mu_v)
        # the quotient rule for beta, on the closed-form lambda and mu
        plus, minus = (mu_c + lam_c)[:, None], (mu_c - lam_c)[:, None]
        beta = np.where(cp_ok, (mu - lam) / (mu + lam), 0.0)[:, None, None]
        dbeta = np.where(cp_ok[:, None],
                         ((dmu - dlam) * plus - minus * (dmu + dlam)) / plus**2, 0.0)
        Xa, Ya, Xb, Yb = on(dalpha, X), on(dalpha, Y), on(dbeta, X), on(dbeta, Y)
        cp = pair_max(_rel(
            2.0 * beta * Xa[col] * Ya[row],
            alpha * Xa[col] * Yb[row],
            alpha * Ya[row] * Xb[col],
            -alpha * beta * _hess(d2alpha, gam, dalpha, X, Y),
        ))

    relation = ode = None
    if h_expr is not None:
        hval = h_vals[0]
        relation = np.abs(lam - hval) / (1.0 + np.abs(lam))
        if pr == 1:
            # differentiated warping relation along the rank-one direction:
            # X(mu) = (h(mu) - mu) X(log sigma) with X(log sigma) = -<zeta, X>
            xhat = X[:, 0]
            logsig_prime = -_ginner(zeta_v, G, xhat)
            ode = np.abs(np.einsum("mi,mi->m", xhat, dmu) - (hval - mu) * logsig_prime)

    identities = dict(zip(_IDENTITIES, (  # in the order of _IDENTITIES
        mcn,
        # the conformal-product identity only counts where lambda + mu is not small
        np.where(cp_ok, cp, 0.0),
        pair_max(_rel(u1, u2, u3)),
        pair_max(_rel(v1, v2, v3)),
        pair_max(_rel(d1, -f1)),
        pair_max(_rel(d2, -f2)),
    )))
    return _Scores(
        lam=lam,
        mu=mu,
        identities=identities,
        cp_ok=cp_ok,
        lam_along=_gnorm(along(grad_lam, X), G) / (1.0 + _gnorm(grad_lam, G)),
        mu_along=_gnorm(along(grad_mu, Y), G) / (1.0 + _gnorm(grad_mu, G)),
        X=X,
        relation=relation,
        ode=ode,
    ), samples


def _eigen_model(g: MetricField, phi: SymTensorField, fields: _Fields, gap_min: float):
    """The eigenstructure over the samples of fields, the first of the two
    jet sweeps of the samples (_metric_tensor with codazzi), and the eigen
    model anchored at the first sample. Raises the coalescence error of that
    sample before the model is built."""
    eig = _Eigen(fields.G, fields.P, _blocks(g), gap_min)
    if eig.failed()[0]:
        raise eig.error(0, fields.points)
    anchor = _point(fields.points, 0)
    return eig, _EigenModel(g, phi, anchor, eig.pair(0, fields.G[0], fields.P[0]), fields.P[0])


def criteria_residuals(g: MetricField, phi: SymTensorField, p,
                       gap_min: float = GAP_MIN, tol: float = 1e-8) -> CriteriaRecord:
    """Evaluate all eigenvalue identities at one point, anchoring the
    closed-form fields at that same point."""
    fields = _metric_tensor(g, phi, [p], tol, codazzi=True)
    eig, model = _eigen_model(g, phi, fields, gap_min)
    return _criteria(fields, eig, model, gap_min)[0].record(0)


# --- classification -------------------------------------------------------------


@dataclass
class CodazziReport:
    """Grid-level summary of a two-eigenvalue Codazzi analysis."""

    codazzi_residual: float
    rank_lambda: int
    rank_mu: int
    residuals: dict
    flags: dict
    eigen_samples: list
    net_report: NetReport
    relation_case: str | None
    constants: tuple | None
    warping_ode_residual: float | None
    warping_axis: int | None
    warping_samples: list | None
    base_point: tuple | None
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "codazzi_residual": self.codazzi_residual,
            "rank_lambda": self.rank_lambda,
            "rank_mu": self.rank_mu,
            "residuals": dict(self.residuals),
            "flags": {k: f.to_dict() for k, f in self.flags.items()},
            "eigen_samples": [dict(s) for s in self.eigen_samples],
            "net_flags": {
                k: f.to_dict() for k, f in self.net_report.flags.items()
            },
            "relation_case": self.relation_case,
            "constants": list(self.constants) if self.constants else None,
            "warping_ode_residual": self.warping_ode_residual,
            "warping_axis": self.warping_axis,
            "warping_samples": (
                [dict(s) for s in self.warping_samples]
                if self.warping_samples is not None
                else None
            ),
            "base_point": list(self.base_point) if self.base_point else None,
            "n_samples": self.n_samples,
        }


def _h_of_mu(h: Expr, mu_expr: Expr) -> Expr:
    fv = free_vars(h)
    if len(fv) > 1:
        raise ConstraintError("h must be a function of a single variable")
    return substitute(h, {i: mu_expr for i in fv})


def _axis(X: np.ndarray) -> int | None:
    """The coordinate axis that the rank-one eigenvector follows at every
    sample, if there is one."""
    comp = np.abs(X[:, 0])
    a = np.argmax(comp, axis=1)
    others = np.where(np.arange(comp.shape[1]) == a[:, None], 0.0, comp).max(axis=1)
    good = others <= _AXIS_TOL * comp[np.arange(len(a)), a]
    if good.all() and (a == a[0]).all():
        return int(a[0])
    return None


def classify_codazzi(
    g: MetricField,
    phi: SymTensorField,
    h: Expr | None = None,
    plan: SamplePlan | None = None,
    tol: float = 1e-8,
    gap_min: float = GAP_MIN,
) -> CodazziReport:
    """Verify the Codazzi equation on the sample plan, extract the
    eigenstructure, score every identity, classify the eigen-net, and, when a
    one-variable relation lambda = h(mu) is supplied, decide which canonical
    construction the pair belongs to.

    Raises NotCodazziError when the defining equation fails, CoalescenceError
    when the two-cluster eigenstructure degenerates, and InconsistencyError
    when numerics contradict something the two-eigenvalue theory forces (a
    rank >= 2 eigenvalue varying along its own eigenbundle, or a detected
    case whose net flags do not match).
    """
    plan = plan or SamplePlan()
    fields = _metric_tensor(g, phi, sample_points(g.chart, plan), tol, codazzi=True)
    pts = fields.points
    worst = _worst("codazzi", fields.codazzi, pts)
    if not worst <= tol:
        err = NotCodazziError(f"Codazzi residual {worst:.3e} exceeds tol {tol:.1e} at "
                              f"{_point(pts, _first(fields.codazzi == worst)[0])}")
        err.residual = worst
        raise err
    eig, model = _eigen_model(g, phi, fields, gap_min)
    h_expr = _h_of_mu(h, model.mu_expr) if h is not None else None
    sc, samples = _criteria(fields, eig, model, gap_min, h_expr)

    eigen_samples = [
        {"point": list(p), "lam": float(lv), "mu": float(mv)}
        for p, lv, mv in zip(pts.tolist(), sc.lam, sc.mu)
    ]
    maxes = {key: _worst(key, v, pts) for key, v in sc.identities.items()}
    cp_evaluated = bool(sc.cp_ok.any())

    for name, rank, along in (("lambda", model.rank_lambda, sc.lam_along),
                              ("mu", model.rank_mu, sc.mu_along)):
        along = _worst(f"{name}_along", along, pts) if rank >= 2 else 0.0
        if not along <= tol:
            raise InconsistencyError(
                "a rank >= 2 eigenvalue must be constant along its eigenbundle, "
                f"but the {name} field varies by {along:.3e}"
            )

    cp_max = maxes["conformal_product"]
    spherical = max(maxes["mu_spherical"], maxes["lambda_spherical"])
    residuals = {**maxes, "conformal_product": cp_max if cp_evaluated else None}
    flags = {
        "conformal_product": Flag(_status(cp_max, tol) if cp_evaluated else "not_applicable", cp_max),
        "spherical_eigenbundles": Flag(_status(spherical, tol), spherical),
    }

    # the metric checks and their warnings ran in the first pass
    net_report = _classify(samples.check(), tol)

    relation_case = constants = ode_out = axis_out = warping_samples = base_point = None
    if h is not None:
        lam0, mu0 = float(sc.lam[0]), float(sc.mu[0])
        lam_spread = _worst("lambda_spread", np.abs(sc.lam - lam0), pts)
        mu_spread = _worst("mu_spread", np.abs(sc.mu - mu0), pts)
        hyp_ok = (_worst("relation", sc.relation, pts) <= tol
                  and _worst("mu_along", sc.mu_along, pts) <= tol)
        if not hyp_ok:
            relation_case = "outside_hypotheses"
        elif (
            lam_spread <= tol * (1.0 + abs(lam0))
            and mu_spread <= tol * (1.0 + abs(mu0))
        ):
            relation_case = "constant_product"
            constants = (float(np.mean(sc.lam)), float(np.mean(sc.mu)))
            geod = _worst("geodesy", net_report.residuals["geodesy"].max(axis=0), pts)
            if not geod <= tol:
                raise InconsistencyError(
                    "constant eigenvalues force a metric product, but a block "
                    f"has geodesy residual {geod:.3e}"
                )
        elif model.rank_lambda == 1:
            relation_case = "warped_rank_one"
            if net_report.flags["WP"].status == "fail":
                raise InconsistencyError(
                    "a rank-one relation case must produce a warped product "
                    "net, but the WP flag fails with residual "
                    f"{net_report.flags['WP'].residual:.3e}"
                )
            ode_out = _worst("warping_ode", sc.ode, pts)
            axis_out = _axis(sc.X)
            if axis_out is not None:
                warping_samples, base_point = _warping_profile(
                    g, model, axis_out, plan, fields.G
                )
        else:
            relation_case = "outside_hypotheses"

    return CodazziReport(
        codazzi_residual=worst,
        rank_lambda=model.rank_lambda,
        rank_mu=model.rank_mu,
        residuals=residuals,
        flags=flags,
        eigen_samples=eigen_samples,
        net_report=net_report,
        relation_case=relation_case,
        constants=constants,
        warping_ode_residual=ode_out,
        warping_axis=axis_out,
        warping_samples=warping_samples,
        base_point=base_point,
        n_samples=len(pts),
    )


def _warping_profile(g: MetricField, model: _EigenModel, axis: int,
                     plan: SamplePlan, G: np.ndarray):
    """Sample (t, mu, relative sigma) along the rank-one coordinate axis.

    Only meaningful when the chart is adapted: the metric, G over the
    samples, must be block diagonal between the axis and the remaining
    coordinates. The warping is recovered from determinant ratios of the
    complementary block, taken as differences of log-determinants, which do
    not overflow, so it is normalized to 1 at the chart center. One tape
    of the block's entries and mu is swept over the chart center and the
    axis line; the first of these points that fails raises: the entries (mu
    is not read at the center), then a determinant that is not positive.
    """
    n = g.dim
    others = [i for i in range(n) if i != axis]
    off = np.abs(G[:, axis, others]) / _pair_scale(G)[:, axis, others]
    if (off > _AXIS_TOL).any():
        return None, None
    r = len(others)
    entries = [g.entries[others[a]][others[b]] for a, b in zip(*_pairs(r, 0))]
    base = tuple(g.chart.center())
    ts = grid_axes(g.chart, plan.grid, plan.margin)[axis]
    line = np.vstack([base, [[t if i == axis else base[i] for i in range(n)] for t in ts]])
    # the block at the base point first, then per t the block and mu
    sweep = compile_tape([*entries, model.mu_expr]).sweep(line)
    ends = np.full(len(line), sweep.tape.size)
    ends[0] = sweep.tape.bounds[-2]  # mu is not read at the base point
    blocks = _symmetric(sweep.values[:, :-1], r)
    with np.errstate(all="ignore"):  # read only where the entries evaluate
        sign, logdet = _slogdet(blocks)
    _raise_first(
        (sweep.first_bad < ends, sweep.error),
        (~(sign > 0.0), lambda j: ConstraintError(
            f"warping block determinant {np.linalg.det(blocks[j]):.6g} <= 0 at {_point(line, j)}")),
    )
    sigma = np.exp((logdet[1:] - logdet[0]) / (2.0 * model.rank_mu))
    out = [{"t": float(t), "mu_tilde": float(mu), "sigma_ratio": float(sr)}
           for t, mu, sr in zip(ts, sweep.values[1:, -1], sigma)]
    return out, base


# --- canonical constructions -----------------------------------------------------


@dataclass
class CodazziCandidate:
    """A built (metric, tensor) pair plus its verified Codazzi residual."""

    metric: MetricField
    tensor: SymTensorField
    codazzi_residual: float


_COARSE_PLAN = SamplePlan(grid=3, margin=0.1, random=4, seed=7)


def _coarse_codazzi(g: MetricField, phi: SymTensorField) -> float:
    fields = _metric_tensor(g, phi, sample_points(g.chart, _COARSE_PLAN), 1e-8, codazzi=True)
    return _worst("codazzi", fields.codazzi, fields.points)


def build_codazzi_candidate(kind: str, **params) -> CodazziCandidate:
    """Build one of the two canonical (metric, tensor) pairs.

    kind "conformal_product": params factors=(FactorSpec, FactorSpec),
    phi0, phi1 (each an Expr in the matching factor's local coordinates).
    The metric is (phi0 + phi1)^{-2} times the product metric and the tensor
    is phi1 on the first block and -phi0 on the second, so each eigenvalue is
    constant along its own eigenbundle by construction.

    kind "warped_rank_one": params base (1-dim Chart), fiber (FactorSpec),
    h (Expr in one variable), sigma, mu (Exprs in the base coordinate). The
    metric is the warped product dt^2 + sigma(t)^2 g_fiber and the tensor is
    h(mu(t)) on the base direction and mu(t) on the fiber block. The supplied
    triple must satisfy the differentiated warping relation
    mu' = (h(mu) - mu) (log sigma)' to 1e-8 on a base grid, otherwise it is
    rejected.

    The Codazzi residual is verified on a coarse grid and attached; it is
    reported, never assumed.
    """
    if kind == "conformal_product":
        factors, phi0, phi1 = (params.pop(k) for k in ("factors", "phi0", "phi1"))
        if params:
            raise ConstraintError(f"unexpected parameters {sorted(params)}")
        factors = tuple(factors)
        if len(factors) != 2:
            raise ConstraintError("conformal_product takes exactly two factors")
        spec = ProductSpec("product", factors, twists=(ONE, ONE))
        chart = spec.chart
        d0 = factors[0].chart.dim
        bad0 = [v for v in free_vars(phi0) if v >= d0]
        bad1 = [v for v in free_vars(phi1) if v >= factors[1].chart.dim]
        if bad0 or bad1:
            raise ConstraintError(
                "phi0 and phi1 must use only their own factor's coordinates"
            )
        phi1_joint = substitute(phi1, {j: var(d0 + j) for j in free_vars(phi1)})
        recip = add(phi0, phi1_joint)
        _check_positive([(recip, "reciprocal conformal factor")], chart)
        g = conformal_scale(build_metric(spec), div(ONE, recip))
        diag = [phi1_joint] * d0 + [mul(const(-1.0), phi0)] * factors[1].chart.dim
        tensor = SymTensorField.diagonal(chart, diag, metric=g)
        return CodazziCandidate(g, tensor, _coarse_codazzi(g, tensor))

    if kind == "warped_rank_one":
        base, fiber, h, sigma, mu = (params.pop(k) for k in ("base", "fiber", "h", "sigma", "mu"))
        if params:
            raise ConstraintError(f"unexpected parameters {sorted(params)}")
        if base.dim != 1:
            raise ConstraintError("the base of a warped_rank_one pair is an interval")
        for label, e in (("sigma", sigma), ("mu", mu)):
            bad = [v for v in free_vars(e) if v >= 1]
            if bad:
                raise ConstraintError(f"{label} must depend only on the base coordinate")
        h_mu = _h_of_mu(h, mu)
        # differentiated warping relation on a base grid, rejected when violated
        ts = grid_axes(base, 9)[0][:, None]
        J = compile_tape([h_mu, mu, sigma]).run_jets(ts)
        (h_val, mu_val, sig_val), (_, lhs, dsig_val) = J[:, 0].T, J[:, 1].T
        with np.errstate(all="ignore"):
            worst = _worst("warping_relation", np.abs(lhs - (h_val - mu_val) * (dsig_val / sig_val)), ts)
        if not worst <= 1e-8:
            raise ConstraintError(
                f"(h, sigma, mu) violate the warping relation: residual {worst:.3e}"
            )
        base_factor = FactorSpec(base, ((ONE,),))
        spec = ProductSpec("warped", (base_factor, fiber), twists=(ONE, sigma))
        g = build_metric(spec)
        diag = [h_mu] + [mu] * fiber.chart.dim
        tensor = SymTensorField.diagonal(spec.chart, diag, metric=g)
        return CodazziCandidate(g, tensor, _coarse_codazzi(g, tensor))

    raise ConstraintError(
        f"unknown kind {kind!r}; expected 'conformal_product' or 'warped_rank_one'"
    )
