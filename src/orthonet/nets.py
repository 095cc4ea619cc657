"""Orthogonal nets of distributions and their classification.

A net splits a frame of vector fields into mutually orthogonal blocks; each
block spans a distribution E_i with complement E_i^perp spanned by the other
blocks. The module reads the metric through the checked jet sweep every
consumer uses (chart_calculus._jets): one tape of the metric entries, and
of the frame entries unless the frame is constant, swept once over every
sample point, which carries their first and second partials through the
tape by forward propagation (Tape.jet_sweep; a clean run builds no
derivative tree), and hands back the metric's jets with G^-1, the
Christoffel symbols and their partials. codazzi._criteria passes the
metric's jets of its own first pass with a sweep of the frame entries
instead. From these second-order jets, stacked numpy gives per block and
complement the projector onto the span, nabla_{X_a} X_b, the mean
curvature normal H and its partials by the product rule, so
nabla_X H = (dH) X + Gamma(X, H) needs no derivative tree of H (O'Neill,
Semi-Riemannian Geometry, 1983, ch. 4 and 7). numpy then reduces the
stacked values to residuals:

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
first check that fails there (frame degeneracy, block orthogonality, field
evaluation). Where the jets are finite but a derived value is not (Gamma,
or H, its partials, nabla H, a defect or a bracket of a span), the field
stage raises InconsistencyError naming the quantity, the span and the
sample. A residual that is not finite raises InconsistencyError instead of
passing.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .chart_calculus import MetricField, _at, _ginner, _gnorm, _inv, _jets
from .errors import (
    ConstraintError,
    DegenerateFrameError,
    InconsistencyError,
    NotApplicableError,
)
from .sampling import SamplePlan, sample_points
from .scalar_fields import Chart, Const, ONE, ZERO, _pairs

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

# the net's checks at one sample, in the order a failure there is reported
_FRAME_DOMAIN, _DEGENERATE, _NOT_ORTHOGONAL, _FIELD_DOMAIN, _CLEAN = range(5)


# DistributionGeometry name -> _Side field of each residual of a span
_RESIDUALS = {"umbilicity": "umb", "sphericity": "sph", "geodesy": "geo", "integrability": "integ"}
# the derived values of a span by name -> _Side field, in the order the first
# that is not finite at a sample is named
_DERIVED = {"H": "H", "dH": "dH", "nabla H": "covH", "umbilicity defect": "defects",
            "bracket": "brackets"}


def _mul(T: np.ndarray, B: np.ndarray) -> np.ndarray:
    """T @ B per sample: T is (m, ..., i) and B is (m, i, j), or (i, j) for
    every sample, which takes one product over all rows of T."""
    rows = T.reshape(-1, T.shape[-1]) if B.ndim == 2 else T.reshape(len(T), -1, T.shape[-1])
    return (rows @ B).reshape(T.shape[:-1] + B.shape[-1:])


def _frame_roots(net: OrthogonalNet) -> list:
    """The frame entries, row by row, that a jet tape holds: none when
    every entry is a constant."""
    entries = [e for f in net.frame for e in f]
    return [] if all(isinstance(e, Const) for e in entries) else entries


def _geometry(metric: tuple, frame_jets, spans, frame) -> tuple:
    """The geometry of each of the spans, tuples of frame indices, from the
    metric's jets as _metric_jets gives them, (G, dG, G^-1, Gamma,
    d Gamma), and, for a frame that is not constant, the jets of the frame
    entries, (m, 1 + n + n(n+1)/2, n^2) as Tape.jet_sweep gives them.

    frame is the frame as an (n, n) array when all its entries are
    constants: frame_jets is then None, F is the frame broadcast over the
    samples, and the terms with a frame partial are skipped. It is None
    otherwise. Per span of rank r > 0 the result holds

        H          (m, n)         (I - R g) K / r
        defects    (m, pairs, n)  C_ab^perp - M_ab H, a <= b, when r > 1
        nabla H    (m, r, n)      (dH) X_a + Gamma(X_a, H)
        brackets   (m, pairs, n)  [X_a, X_b]^perp, a < b
        dH         (m, n, n)      d_i H^k at [k, i]

    where X holds the span's fields as rows, M = X g X^T is their Gram
    matrix, R = X^T M^-1 X (so R g projects onto the span and I - R g onto
    its normal space), C_ab = nabla_{X_a} X_b and K = sum_ab (M^-1)_ab C_ab
    = Gamma : R + sum_b (M^-1 X)_b^i d_i X_b. The partials follow by the
    product rule, with d(M^-1) = -M^-1 (dM) M^-1:

        d_p R = -R (d_p g) R + N_p + N_p^T,   N_p = (I - R g)(d_p X)^T M^-1 X
        d_p H = ((I - R g) d_p K - (d_p R) g K - R (d_p g) K) / r

    Spans of rank 0 map to None. All spans go through each step together.
    Returns the metric G (m, n, n), its inverse, the Christoffel symbols
    Gamma^k_ij (m, k, i, j), the frame F (m, n, n) and that map."""
    G, dG, Ginv, gamma, dgamma = metric
    m, n = G.shape[:2]
    if frame is None:
        iu, ju = _pairs(n, 0)
        F = frame_jets[:, 0].reshape(m, n, n)
        dF = frame_jets[:, 1 : n + 1].reshape(m, n, n, n)  # d_p X_a^k
        d2F = np.empty((m, n, n, n * n))
        d2F[:, iu, ju] = d2F[:, ju, iu] = frame_jets[:, n + 1 :]
        d2F = d2F.reshape(m, n, n, n, n)  # d_p d_q X_a^k
    else:
        F = np.broadcast_to(frame, (m, n, n))

    # Gamma over rows k, columns ij, and d Gamma over rows (p, k), columns ij
    gamma, dgamma = gamma.reshape(m, n, n * n), dgamma.reshape(m, n * n, n * n)
    gammaT = np.ascontiguousarray(gamma.swapaxes(1, 2))  # rows ij, columns k

    live = [s for s in spans if s]
    S = len(live)
    rank = np.array([len(s) for s in live], dtype=float)[:, None, None]
    X = [F[:, list(s)] if frame is None else frame[list(s)] for s in live]
    Xt = [x.swapaxes(-1, -2) for x in X]
    M = [_mul(_mul(G, xt).swapaxes(1, 2), xt) for xt in Xt]
    Y = [_mul(_inv(a), x) for a, x in zip(M, X)]  # M^-1 X
    R = np.empty((m, S, n, n))
    for t, (y, x) in enumerate(zip(Y, X)):
        R[:, t] = _mul(y.swapaxes(1, 2), x)
    Rcols = R.reshape(m, S, n * n).swapaxes(1, 2)

    # K = Gamma : R and d_p K = (d_p Gamma) : R + Gamma : d_p R, with
    # d_p R = -R (d_p g) R over rows (s, p, k), columns j
    K = (gamma @ Rcols).swapaxes(1, 2)  # (m, S, k)
    dK = (dgamma @ Rcols).reshape(m, n, n, S).transpose(0, 3, 1, 2)  # (m, S, p, k)
    RdG = R.reshape(m, S * n, n) @ dG.swapaxes(1, 2).reshape(m, n, n * n)
    dR = -(RdG.reshape(m, S, n * n, n) @ R).reshape(m, S, n, n, n).swapaxes(2, 3).copy()
    Pis = np.eye(n) - (R.reshape(m, S * n, n) @ G).reshape(m, S, n, n)
    if frame is None:
        for t, s in enumerate(live):
            # the terms with a frame partial: d_i X_b over rows (b, i)
            r, y, Pi = len(s), Y[t], Pis[:, t]
            D = dF[:, :, list(s)]
            Db = D.swapaxes(1, 2).reshape(m, r * n, n)
            K[:, t] += (y.reshape(m, 1, r * n) @ Db)[:, 0]
            Z = (D.swapaxes(2, 3).reshape(m, n * n, r) @ y).reshape(m, n, n, n)
            N = (Pi @ Z.swapaxes(1, 2).reshape(m, n, n * n)).reshape(m, n, n, n).swapaxes(1, 2)
            dR[:, t] += N + N.swapaxes(2, 3)
            # d_p (M^-1 X) = M^-1 ((d_p X)(I - R g)^T - X ((d_p g) R + g Z_p))
            V = (D.reshape(m, n * r, n) @ Pi.swapaxes(1, 2)).reshape(m, n, r, n).swapaxes(1, 2)
            gRZ = (dG.reshape(m, n * n, n) @ R[:, t]).reshape(m, n, n, n).swapaxes(1, 2)
            gRZ = gRZ.reshape(m, n, n * n) + G @ Z.swapaxes(1, 2).reshape(m, n, n * n)
            V = V - (X[t] @ gRZ).reshape(m, r, n, n)
            dY = (_inv(M[t]) @ V.reshape(m, r, n * n)).reshape(m, r, n, n).swapaxes(1, 2)
            dD = d2F[:, :, :, list(s)].transpose(0, 3, 2, 1, 4).reshape(m, r * n, n * n)
            dK[:, t] += dY.reshape(m, n, r * n) @ Db + (y.reshape(m, 1, r * n) @ dD).reshape(m, n, n)
    dK += (dR.reshape(m, S * n, n * n) @ gammaT).reshape(m, S, n, n)

    GK = K @ G
    H = (K - (GK[:, :, None] @ R)[:, :, 0]) / rank[..., 0]
    dGK = (dG.reshape(m, n * n, n) @ K.swapaxes(1, 2)).reshape(m, n, n, S).transpose(0, 3, 1, 2)
    dH = dK - (_mul(dK, G) + dGK) @ R - (dR.reshape(m, S, n * n, n) @ GK[..., None]).reshape(m, S, n, n)
    dH /= rank
    gamH = (gamma.reshape(m, n * n, n) @ H.swapaxes(1, 2)).reshape(m, n, n, S)  # Gamma(e_i, H)^k

    out = dict.fromkeys(spans)
    for t, s in enumerate(live):
        r = len(s)
        covH = _mul(dH[:, t].swapaxes(1, 2) + gamH[..., t], Xt[t]).swapaxes(1, 2)
        defects, brackets = np.zeros((m, 0, n)), np.zeros((m, r * (r - 1) // 2, n))
        if r > 1:
            # C^perp_ab over rows k, columns ab; the Gamma term is symmetric
            Pi = Pis[:, t]
            C = _mul(_mul(gamma.reshape(m, n * n, n), Xt[t]).reshape(m, n, n, r).swapaxes(2, 3), Xt[t])
            if frame is None:
                A = (X[t] @ dF[:, :, list(s)].reshape(m, n, r * n)).reshape(m, r, r, n)  # X_a(X_b)
                C = C + A.transpose(0, 3, 1, 2)
                ia, ib = _pairs(r, 1)
                brackets = (A[:, ia, ib] - A[:, ib, ia]) @ Pi.swapaxes(1, 2)
            ia, ib = _pairs(r, 0)
            Sp = Pi @ C.reshape(m, n, r * r)
            defects = (Sp[:, :, ia * r + ib] - H[:, t, :, None] * M[t][:, ia, ib][:, None]).swapaxes(1, 2)
        out[s] = (H[:, t], defects, covH, brackets, dH[:, t].swapaxes(1, 2))
    return G, Ginv, gamma.reshape(m, n, n, n), F, out


@dataclass
class _Side:
    """Residuals of one span (a block or a complement) over the samples."""

    H: np.ndarray  # (m, n) mean curvature normal
    dH: np.ndarray  # (m, n, n) d_i H^k at [k, i]
    covH: np.ndarray  # (m, rank, n) nabla_{X_a} H over the span's fields
    defects: np.ndarray  # (m, pairs, n) umbilicity defects, a <= b
    brackets: np.ndarray  # (m, pairs, n) [X_a, X_b]^perp, a < b
    umb: np.ndarray  # (m,) each
    sph: np.ndarray
    geo: np.ndarray
    integ: np.ndarray


class _Samples:
    """A net's metric, frame and span residuals over a batch of sample points.

    metric holds the metric's jets as _metric_jets forms them, and sweep is
    a jet sweep whose last roots are the frame's entries (_frame_roots):
    that of _net_samples, which also holds the metric's upper triangle and
    has run its checks, or the pass-2 sweep of codazzi._criteria. Only the
    frame's jets are mended here (Sweep.repair). A constant frame, as every
    coordinate net has, stays off the tape and F is that frame broadcast
    over the samples.
    _geometry computes, per requested block, the geometry of its span and
    of its complement, and the residuals. The net's checks run later, when
    the caller calls check."""

    def __init__(self, net: OrthogonalNet, blocks, labels, metric: tuple, sweep):
        self.net, self.labels, self.sweep = net, labels, sweep
        self.spans = {i: (net.blocks[i], net.complement(i)) for i in blocks}
        unique = list(dict.fromkeys(s for pair in self.spans.values() for s in pair))

        roots = _frame_roots(net)
        frame = None if roots else np.array([[e.value for e in f] for f in net.frame])
        start = len(sweep.tape.root_slots) - len(roots)
        # by sample, the error of the frame entries' diff trees where they fail
        self.input_errors = sweep.repair(start=start)
        with np.errstate(all="ignore"):
            self.G, self.Ginv, self.gamma, self.F, geometry = _geometry(
                metric, sweep.jets[:, :, start:] if roots else None, unique, frame)
            # the Gram matrix of the frame, and the g-norms of its fields
            self.M = self.F @ self.G @ self.F.transpose(0, 2, 1)
            self.norms = np.sqrt(np.maximum(np.einsum("maa->ma", self.M), 0.0))
            self.sides = {s: self._side(s, geometry[s]) for s in unique}
            # per sample, whether Gamma and every derived value of every span
            # are finite there
            self.derived_ok = _finite([self.gamma] + [
                getattr(side, f) for side in self.sides.values() for f in _DERIVED.values()])

    def field_error(self, j: int):
        """The error of the field stage at sample j: that of the entries'
        diff trees there, or else InconsistencyError naming the first
        derived value that is not finite, Gamma and then per span those of
        _DERIVED."""
        if j in self.input_errors:
            return self.input_errors[j]
        named = [("Gamma", self.gamma)] + [
            (f"{name} of span {s}", getattr(side, f))
            for s, side in self.sides.items() for name, f in _DERIVED.items()]
        for name, a in named:
            bad = a[j][~np.isfinite(a[j])]
            if bad.size:
                return InconsistencyError(
                    f"{name} is {bad[0]} at {self.labels[j]}; derived values must be finite")

    def check(self) -> "_Samples":
        """Run the net's checks, whose caller has run the metric's on the
        same samples: the first sample that fails one raises, with the first
        that fails there (frame evaluation, frame degeneracy, block
        orthogonality, field evaluation); values at a sample past its first
        failure are never read. Returns self."""
        labels = self.labels
        m, n = self.M.shape[:2]
        fb = self.sweep.first_bad
        stage = np.full(m, _CLEAN)
        stage[~self.derived_ok] = _FIELD_DOMAIN
        stage[list(self.input_errors)] = _FIELD_DOMAIN

        # the roots before the frame's have evaluated at every sample
        frame_ok = fb == self.sweep.tape.size
        evm = np.linalg.eigvalsh(np.where(frame_ok[:, None, None], self.M, np.eye(n)))
        degenerate = frame_ok & (evm[:, 0] <= _GRAM_COND_FLOOR * np.maximum(evm[:, -1], 1e-300))

        pairs = [(a, c) for b, d in itertools.combinations(self.net.blocks, 2) for a in b for c in d]
        pa, pc = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        ip = np.abs(self.M[:, pa, pc])
        with np.errstate(all="ignore"):  # read only where frame_ok
            skew = ip / np.maximum(self.norms[:, pa] * self.norms[:, pc], 1e-300) > _ORTHO_TOL

        stage[frame_ok & ~degenerate & skew.any(axis=1)] = _NOT_ORTHOGONAL
        stage[degenerate] = _DEGENERATE
        stage[~frame_ok] = _FRAME_DOMAIN

        failed = np.flatnonzero(stage != _CLEAN)
        if not failed.size:
            return self
        j = int(failed[0])
        if stage[j] == _FRAME_DOMAIN:
            raise self.sweep.error(j)
        if stage[j] == _FIELD_DOMAIN:
            raise self.field_error(j)
        if stage[j] == _DEGENERATE:
            raise DegenerateFrameError(
                f"frame degenerate at {labels[j]}: Gram eigenvalue ratio "
                f"{evm[j, 0]:.3e}/{evm[j, -1]:.3e}"
            )
        q = int(np.argmax(skew[j]))
        raise ConstraintError(
            f"blocks not orthogonal at {labels[j]}: "
            f"|<X_{pairs[q][0]}, X_{pairs[q][1]}>| = {ip[j, q]:.3e}"
        )

    def _side(self, span, geometry) -> _Side:
        G, F, norms = self.G, self.F, self.norms
        m, n = G.shape[:2]
        zero = np.zeros(m)
        if geometry is None:
            none = np.zeros((m, 0, n))
            return _Side(np.zeros((m, n)), np.zeros((m, n, n)), none, none, none,
                         zero, zero, zero, zero)
        H, defects, covH, brackets, dH = geometry
        r = len(span)
        idx = np.array(span, dtype=np.intp)
        other = np.array([k for k in range(n) if k not in span], dtype=np.intp)

        def pair_max(vectors, a, b) -> np.ndarray:
            if not len(a):
                return zero
            scale = np.maximum(norms[:, idx[a]] * norms[:, idx[b]], 1e-300)
            return (_gnorm(vectors, G) / scale).max(axis=1)

        umb = pair_max(defects, *_pairs(r, 0)) if r > 1 else zero
        sph = zero
        if other.size:
            ip = np.abs(_ginner(covH[:, :, None], G, F[:, None, other]))
            scale = np.maximum(norms[:, idx, None] * norms[:, None, other], 1e-300)
            sph = (ip / scale).max(axis=(1, 2))
        geo = umb + _gnorm(H, G)
        integ = pair_max(brackets, *_pairs(r, 1))
        return _Side(H, dH, covH, defects, brackets, umb, sph, geo, integ)

    def block(self, i: int) -> tuple[_Side, _Side]:
        b, c = self.spans[i]
        return self.sides[b], self.sides[c]

    def residuals(self, blocks) -> dict:
        """The residuals of DistributionGeometry by name, each (blocks, m)."""
        sides = [self.block(i) for i in blocks]
        return {
            name + perp: np.stack([getattr(pair[k], attr) for pair in sides])
            for name, attr in _RESIDUALS.items()
            for k, perp in enumerate(("", "_perp"))
        }

    def geometry(self, i: int) -> DistributionGeometry:
        """The DistributionGeometry of block i at the first sample."""
        b, c = self.block(i)
        res = self.residuals((i,))
        return DistributionGeometry(
            i, b.H[0], c.H[0], **{k: float(v[0, 0]) for k, v in res.items()}
        )

    def exchange(self, i: int) -> np.ndarray:
        """|<nabla_Z eta_i, X> - <nabla_X H_i, Z>| over normalized pairs of a
        block field X and a complement field Z, per sample."""
        bf, cf = self.spans[i]
        b, c = self.block(i)
        G, F, norms = self.G, self.F, self.norms
        if not (bf and cf):
            return np.zeros(G.shape[0])
        blk = np.array(bf, dtype=np.intp)
        comp = np.array(cf, dtype=np.intp)
        scale = np.maximum(norms[:, blk, None] * norms[:, None, comp], 1e-300)
        d1 = _ginner(c.covH[:, None, :], G, F[:, blk, None]) / scale
        d2 = _ginner(b.covH[:, :, None], G, F[:, None, comp]) / scale
        return (np.abs(d1 - d2) / (1.0 + np.abs(d1) + np.abs(d2))).max(axis=(1, 2))


def _net_samples(g: MetricField, net: OrthogonalNet, blocks, pts, labels) -> _Samples:
    """The net's samples of the blocks over an (m, dim) array of points,
    checked in two phases: one jet sweep of the metric and the frame
    entries (chart_calculus._jets) runs the metric's checks and the frame's
    evaluation over all samples, then _Samples.check the net's own."""
    metric, _, sweep = _jets(g, _frame_roots(net), pts, labels)
    return _Samples(net, blocks, labels, metric, sweep).check()


def _finite(arrays) -> np.ndarray:
    """Per sample, whether every array, each (m, ...), is finite there.
    Callers ignore floating-point errors (np.errstate)."""
    m = len(arrays[0])
    ok = np.ones(m, dtype=bool)
    for a in arrays:
        # a finite array whose sum overflows only takes the exact check
        if not np.isfinite(a.sum()):
            ok &= np.isfinite(a.reshape(m, -1)).all(axis=1)
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
        raise DegenerateFrameError(f"frame block degenerate at {tuple(p)}")
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
    return _net_samples(g, net, (i,), [p], [tuple(p)]).geometry(i)


def cwp_residual(g: MetricField, net: OrthogonalNet, i: int, p, tol: float = 1e-8) -> float:
    """Mean-curvature exchange residual for block i at p. Raises
    NotApplicableError when the umbilicity preconditions fail at p, so the
    caller never mistakes an unevaluable identity for a zero residual."""
    samples = _net_samples(g, net, (i,), [p], [tuple(p)])
    geom = samples.geometry(i)
    if geom.umbilicity > tol or geom.umbilicity_perp > tol:
        raise NotApplicableError(
            f"umbilicity preconditions fail at {tuple(p)}: "
            f"block {geom.umbilicity:.3e}, complement {geom.umbilicity_perp:.3e}"
        )
    return float(samples.exchange(i)[0])


# --- classification -------------------------------------------------------------


@dataclass
class Flag:
    status: str
    residual: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class NetReport:
    flags: dict
    h0_sum_residual: float
    cp_hs0_residual: float | None
    n_samples: int
    # the residuals of DistributionGeometry by name, each (blocks, samples)
    residuals: dict

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


def _worst(name: str, resid: np.ndarray, labels) -> float:
    """The largest residual over the samples, at least 0. A maximum that is
    not finite raises, naming the flag and the first sample that is not:
    max(0.0, nan) is 0.0, which would read as a pass."""
    worst = float(resid.max())
    if not np.isfinite(worst):
        j = int(np.flatnonzero(~np.isfinite(resid))[0])
        raise InconsistencyError(
            f"{name} residual is {resid[j]} at {labels[j]}; residuals must be finite"
        )
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
    samples = _net_samples(g, net, range(len(net.blocks)), pts, [tuple(p) for p in pts.tolist()])
    return _classify(samples, tol)


def _classify(samples: _Samples, tol: float) -> NetReport:
    """classify_net on samples of every block whose checks have passed."""
    nblocks = len(samples.net.blocks)
    labels = samples.labels
    sides = [samples.block(i) for i in range(nblocks)]
    res = samples.residuals(range(nblocks))
    umb, sph = res["umbilicity"], res["sphericity"]
    umb_p, geo_p, integ_p = (
        res[k] for k in ("umbilicity_perp", "geodesy_perp", "integrability_perp")
    )
    tp = np.maximum(umb, integ_p).max(axis=0)
    wp = np.maximum.reduce([umb[1:], sph[1:], geo_p[1:]]).max(axis=0)
    qw = np.maximum(umb[1:], geo_p[1:]).max(axis=0)
    cqw = np.maximum(umb[1:], umb_p[1:]).max(axis=0)
    cqw0 = np.maximum(cqw, umb_p[0])

    cwp = cqw
    eq_evaluated = False
    for i in range(1, nblocks):
        admitted = (umb[i] <= tol) & (umb_p[i] <= tol)
        if admitted.any():
            cwp = np.where(admitted, np.maximum(cwp, samples.exchange(i)), cwp)
            eq_evaluated = True
    cp = np.maximum(cwp, umb_p[0])
    maxes = {
        name: _worst(name, val, labels)
        for name, val in zip(FLAG_NAMES, (tp, wp, qw, cqw, cqw0, cwp, cp))
    }

    G = samples.G
    H0 = sides[0][0].H
    etas = [c.H for _, c in sides[1:]]
    hsum = H0 - sum(etas)
    hscale = 1.0 + _gnorm(H0, G) + sum(_gnorm(e, G) for e in etas)
    h0_max = _worst("h0_sum_residual", _gnorm(hsum, G) / hscale, labels)

    cp_hs0_max = 0.0
    admitted = (umb[0] <= tol) & (umb_p[0] <= tol)
    eq0_evaluated = bool(samples.net.blocks[0]) and bool(admitted.any())
    if eq0_evaluated:
        exchange = np.where(admitted, samples.exchange(0), 0.0)
        cp_hs0_max = _worst("cp_hs0_residual", exchange, labels)
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
        n_samples=len(labels),
        residuals=res,
    )
