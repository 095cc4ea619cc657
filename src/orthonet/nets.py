"""Orthogonal nets of distributions and their classification.

A net splits a frame of vector fields into mutually orthogonal blocks; each
block spans a distribution E_i with complement E_i^perp spanned by the other
blocks. For every block the module builds second-fundamental-form data
symbolically, compiles the metric, the frame, those fields and the
Christoffel symbols into one evaluation tape, and runs it once over every
sample point. The same sweep carries tangents forward to give the first
partials of each mean curvature normal H, so nabla_X H = (dH) X + Gamma(X, H)
is a stacked contraction and no derivative tree of H is built. numpy then
reduces the stacked values to residuals:

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

Errors and warnings are those of checking one sample at a time in plan
order: the first sample that fails raises, with the first check that fails
there (metric evaluation, positive definiteness, frame evaluation, frame
degeneracy, block orthogonality, field evaluation), and every sample up to
it that passes the positivity check warns if it is ill-conditioned. A field
evaluation error names the sub-expression the pointwise definition, which
differentiates H symbolically, fails on first. A residual that is not
finite raises InconsistencyError instead of passing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart_calculus import (
    MetricField,
    _at,
    _cov,
    _ginner,
    _gnorm,
    _metric_checks,
    _warn_conditions,
    cov_deriv_exprs,
    inner_exprs,
    lie_bracket_exprs,
)
from .errors import (
    ConstraintError,
    DegenerateFrameError,
    InconsistencyError,
    NotApplicableError,
    NotSPDError,
)
from .sampling import SamplePlan, sample_points
from .scalar_fields import (
    Chart,
    Const,
    ONE,
    ZERO,
    _is_zero,
    add,
    compile_tape,
    const,
    div,
    mul,
    sub,
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


# --- cached symbolic geometry of a sub-frame ---------------------------------


class _SpanFields:
    """Symbolic second-fundamental data of the span of a frame subset."""

    def __init__(self, g: MetricField, net: OrthogonalNet, indices):
        self.indices = tuple(indices)
        r = len(self.indices)
        self.rank = r
        n = g.dim
        fields = [net.frame[a] for a in self.indices]
        others = [k for k in range(n) if k not in self.indices]
        self.other_indices = tuple(others)

        self.fields = fields
        # coordinates the fields may read; along the others every field
        # component is a folded zero, so nabla_{X_a} H never reads d_i H
        self.support = tuple(i for i in range(n) if any(not _is_zero(f[i]) for f in fields))

        if r == 0:
            self.H = tuple([ZERO] * n)
            self.gamma_read = ()
            self.umb_defects = ()
            self.bracket_perp = ()
            return

        gram = [[inner_exprs(g, fields[a], fields[b]) for b in range(r)] for a in range(r)]
        from .chart_calculus import inverse_exprs

        gram_inv = inverse_exprs(gram)

        def proj(v):
            # g-orthogonal projection onto the span
            ips = [inner_exprs(g, v, fields[b]) for b in range(r)]
            comps = []
            for a in range(r):
                coeff = ZERO
                for b in range(r):
                    coeff = add(coeff, mul(gram_inv[a][b], ips[b]))
                comps.append(coeff)
            out = [ZERO] * n
            for a in range(r):
                for k in range(n):
                    out[k] = add(out[k], mul(comps[a], fields[a][k]))
            return tuple(out)

        sperp = {}
        for a in range(r):
            for b in range(r):
                cv = cov_deriv_exprs(g, fields[a], fields[b])
                pv = proj(cv)
                sperp[(a, b)] = tuple(sub(cv[k], pv[k]) for k in range(n))

        H = [ZERO] * n
        for a in range(r):
            for b in range(r):
                for k in range(n):
                    H[k] = add(H[k], mul(gram_inv[a][b], sperp[(a, b)][k]))
        self.H = tuple(div(h, const(float(r))) for h in H)
        # the Christoffel symbols Gamma^k_ij that nabla_{X_a} H reads
        gamma = g.christoffel_entries()
        self.gamma_read = tuple(
            (k, i, j)
            for k in range(n)
            for i in self.support
            for j in range(n)
            if not _is_zero(self.H[j]) and not _is_zero(gamma[k][i][j])
        )

        # umbilicity defect per ordered pair a <= b
        defects = []
        for a in range(r):
            for b in range(a, r):
                defects.append(
                    (
                        a,
                        b,
                        tuple(
                            sub(sperp[(a, b)][k], mul(gram[a][b], self.H[k]))
                            for k in range(n)
                        ),
                    )
                )
        self.umb_defects = tuple(defects)

        brackets = []
        for a in range(r):
            for b in range(a + 1, r):
                lb = lie_bracket_exprs(fields[a], fields[b], n)
                pv = proj(lb)
                brackets.append((a, b, tuple(sub(lb[k], pv[k]) for k in range(n))))
        self.bracket_perp = tuple(brackets)


def _span_fields(g: MetricField, net: OrthogonalNet, indices) -> _SpanFields:
    key = (net, frozenset(indices))
    cache = getattr(g, "_span_cache", None)
    if cache is None:
        cache = {}
        g._span_cache = cache
    out = cache.get(key)
    if out is None:
        out = _SpanFields(g, net, indices)
        cache[key] = out
    return out


# --- batched evaluation ---------------------------------------------------------

# checks at one sample, in the order a failure there is reported
_METRIC_DOMAIN, _NOT_SPD, _FRAME_DOMAIN, _DEGENERATE, _NOT_ORTHOGONAL, _FIELD_DOMAIN = range(6)
_CLEAN = 6


# DistributionGeometry name -> _Side field of each residual of a span
_RESIDUALS = {"umbilicity": "umb", "sphericity": "sph", "geodesy": "geo", "integrability": "integ"}


@dataclass
class _Side:
    """Residuals of one span (a block or a complement) over the samples."""

    H: np.ndarray  # (m, n) mean curvature normal
    covH: np.ndarray  # (m, rank, n) nabla_{X_a} H over the span's fields
    umb: np.ndarray  # (m,) each
    sph: np.ndarray
    geo: np.ndarray
    integ: np.ndarray


def _layout(g: MetricField, unique, frame, symbolic_cov: bool):
    """Roots in the order the pointwise definition reads them: the metric
    entries, the frame, then per span its H, its umbilicity defects when the
    rank exceeds one, nabla_{X_a} H built symbolically when symbolic_cov,
    and its bracket projections. Without symbolic_cov the Christoffel
    symbols that nabla H reads come last instead.

    Returns the roots, the slices of the metric, the frame and the
    Christoffel symbols, the triples (k, i, j) of those symbols, and per
    span (by id) the slices of H, the defects, nabla H and the brackets."""
    roots: list = []

    def take(vectors) -> slice:
        start = len(roots)
        for v in vectors:
            roots.extend(v)
        return slice(start, len(roots))

    metric = take(g.entries)
    frame = take(frame)
    parts = {}
    for sf in unique:
        if sf.rank:
            parts[id(sf)] = (
                take([sf.H]),
                take([d for _, _, d in sf.umb_defects] if sf.rank > 1 else []),
                take([cov_deriv_exprs(g, f, sf.H) for f in sf.fields] if symbolic_cov else []),
                take([b for _, _, b in sf.bracket_perp]),
            )
    triples = [] if symbolic_cov else sorted({t for sf in unique for t in sf.gamma_read})
    gamma = g.christoffel_entries()
    gam = take([[gamma[k][i][j] for k, i, j in triples]])
    return roots, metric, frame, gam, triples, parts


class _Samples:
    """A net's metric, frame and span residuals over a batch of sample points.

    The metric entries, the frame, and per requested block its span and its
    complement (H, the umbilicity defects when the rank exceeds one, the
    bracket projections) go into one tape, with the Christoffel symbols that
    nabla H reads. One sweep gives their values and the first partials d_i H
    for i in the support of each span's fields, and
    nabla_{X_a} H = (dH) X_a + Gamma(X_a, H) is a stacked contraction.
    The checks then run per stage over all samples, and the first sample
    that fails any of them raises, with the stage that fails first there.
    Condition warnings are issued for every sample up to that one.

    The pointwise definition reads nabla H as a symbolic tree, after the
    defects and before the brackets. A sample that fails past the frame, or
    whose tangents or nabla H are not finite, is swept again on those trees
    in that order: the error is the one that sweep raises first, and where
    it is clean its nabla H is used."""

    def __init__(self, g: MetricField, net: OrthogonalNet, blocks, pts, labels):
        n = g.dim
        self.net = net
        self.spans = {
            i: (_span_fields(g, net, net.blocks[i]), _span_fields(g, net, net.complement(i)))
            for i in blocks
        }
        unique = list({id(sf): sf for pair in self.spans.values() for sf in pair}.values())

        roots, metric, frame, gam, triples, parts = _layout(g, unique, net.frame, False)
        partials = [
            (parts[id(sf)][0].start + k, i)
            for sf in unique
            if sf.rank
            for k in range(n)
            for i in sf.support
        ]
        tape = compile_tape(roots)
        sweep = tape.sweep(pts, partials)
        vals = sweep.values
        m = vals.shape[0]

        def stack(sl) -> np.ndarray:
            return vals[:, sl].reshape(m, -1, n)

        self.G, self.F = stack(metric), stack(frame)
        gamma = np.zeros((m, n, n, n))
        if triples:
            k, i, j = np.array(triples, dtype=np.intp).T
            gamma[:, k, i, j] = vals[:, gam]
        covH = {}
        q = 0
        for sf in unique:
            if sf.rank:
                support = list(sf.support)
                width = n * len(support)
                dH = np.zeros((m, n, n))
                dH[:, :, support] = sweep.partials[:, q : q + width].reshape(m, n, -1)
                q += width
                X = self.F[:, list(sf.indices)]
                covH[id(sf)] = _cov(dH, gamma, stack(parts[id(sf)][0])[:, 0], X)

        frame_end = tape.bounds[frame.stop]
        suspect = sweep.tangent_bad | (sweep.first_bad < tape.size)
        for c in covH.values():
            suspect |= ~np.isfinite(c).all(axis=(1, 2))
        js = np.flatnonzero(suspect & (sweep.first_bad >= frame_end))
        field_errors = {}
        if js.size:
            exact_roots, _, _, _, _, exact_parts = _layout(g, unique, net.frame, True)
            exact = compile_tape(exact_roots).sweep(sweep.points[js])
            for r, j in enumerate(js):
                if exact.first_bad[r] < exact.tape.size:
                    field_errors[int(j)] = (exact, r)
                    continue
                for sf in unique:
                    if sf.rank:
                        covH[id(sf)][j] = exact.values[r, exact_parts[id(sf)][2]].reshape(-1, n)

        self.norms = self._check(sweep, tape.bounds[metric.stop], frame_end, labels, field_errors)
        self.sides = {
            id(sf): self._side(sf, parts.get(id(sf)), stack, covH.get(id(sf))) for sf in unique
        }

    def _check(self, sweep, metric_end, frame_end, labels, field_errors) -> np.ndarray:
        """Raise what the pointwise definition raises first, and warn on the
        way; values at a sample past its first failure are never read.
        field_errors maps the samples whose fields fail to the sweep and row
        that name the failure. Returns the g-norms of the frame fields, (m, n)."""
        G, F = self.G, self.F
        m, n = G.shape[:2]
        eye = np.eye(n)
        fb = sweep.first_bad
        stage = np.full(m, _CLEAN)
        stage[np.array(sorted(field_errors), dtype=np.intp)] = _FIELD_DOMAIN

        metric_ok = fb >= metric_end
        Gs, ev, cond, not_spd, ill = _metric_checks(G, metric_ok)

        frame_ok = metric_ok & ~not_spd & (fb >= frame_end)
        Fs = np.where(frame_ok[:, None, None], F, eye)
        M = Fs @ Gs @ Fs.transpose(0, 2, 1)
        evm = np.linalg.eigvalsh(M)
        degenerate = frame_ok & (evm[:, 0] <= _GRAM_COND_FLOOR * np.maximum(evm[:, -1], 1e-300))

        groups = [b for b in self.net.blocks if b]
        pairs = [
            (a, c)
            for bi in range(len(groups))
            for bj in range(bi + 1, len(groups))
            for a in groups[bi]
            for c in groups[bj]
        ]
        pa = np.array([a for a, _ in pairs], dtype=np.intp)
        pc = np.array([c for _, c in pairs], dtype=np.intp)
        norms = np.sqrt(np.maximum(np.einsum("maa->ma", M), 0.0))
        ip = np.abs(M[:, pa, pc])
        skew = ip / np.maximum(norms[:, pa] * norms[:, pc], 1e-300) > _ORTHO_TOL

        stage[frame_ok & ~degenerate & skew.any(axis=1)] = _NOT_ORTHOGONAL
        stage[degenerate] = _DEGENERATE
        stage[metric_ok & ~not_spd & (fb < frame_end)] = _FRAME_DOMAIN
        stage[not_spd] = _NOT_SPD
        stage[~metric_ok] = _METRIC_DOMAIN

        failed = np.flatnonzero(stage != _CLEAN)
        j = int(failed[0]) if failed.size else m
        _warn_conditions(cond, ill, labels, j, j < m and stage[j] > _NOT_SPD)
        if j == m:
            return norms
        if stage[j] in (_METRIC_DOMAIN, _FRAME_DOMAIN):
            raise sweep.error(j)
        if stage[j] == _FIELD_DOMAIN:
            exact, r = field_errors[j]
            raise exact.error(r)
        if stage[j] == _NOT_SPD:
            raise NotSPDError(
                f"metric not positive definite at {labels[j]}: "
                f"smallest eigenvalue {ev[j, 0]:.3e}"
            )
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

    def _side(self, sf: _SpanFields, part, stack, covH) -> _Side:
        G, F, norms = self.G, self.F, self.norms
        m, n = G.shape[:2]
        zero = np.zeros(m)
        if part is None:
            return _Side(np.zeros((m, n)), np.zeros((m, 0, n)), zero, zero, zero, zero)
        h_sl, d_sl, _, b_sl = part
        idx = np.array(sf.indices, dtype=np.intp)
        other = np.array(sf.other_indices, dtype=np.intp)
        H = stack(h_sl)[:, 0]

        def pair_max(vectors, pairs) -> np.ndarray:
            if not pairs:
                return zero
            a = idx[[p[0] for p in pairs]]
            b = idx[[p[1] for p in pairs]]
            scale = np.maximum(norms[:, a] * norms[:, b], 1e-300)
            return (_gnorm(vectors, G) / scale).max(axis=1)

        umb = pair_max(stack(d_sl), sf.umb_defects if sf.rank > 1 else ())
        sph = zero
        if other.size:
            ip = np.abs(_ginner(covH[:, :, None], G, F[:, None, other]))
            scale = np.maximum(norms[:, idx, None] * norms[:, None, other], 1e-300)
            sph = (ip / scale).max(axis=(1, 2))
        geo = umb + _gnorm(H, G)
        integ = pair_max(stack(b_sl), sf.bracket_perp)
        return _Side(H, covH, umb, sph, geo, integ)

    def block(self, i: int) -> tuple[_Side, _Side]:
        bf, cf = self.spans[i]
        return self.sides[id(bf)], self.sides[id(cf)]

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
        if not (bf.rank and cf.rank):
            return np.zeros(G.shape[0])
        blk = np.array(bf.indices, dtype=np.intp)
        comp = np.array(cf.indices, dtype=np.intp)
        scale = np.maximum(norms[:, blk, None] * norms[:, None, comp], 1e-300)
        d1 = _ginner(c.covH[:, None, :], G, F[:, blk, None]) / scale
        d2 = _ginner(b.covH[:, :, None], G, F[:, None, comp]) / scale
        return (np.abs(d1 - d2) / (1.0 + np.abs(d1) + np.abs(d2))).max(axis=(1, 2))


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
    return _Samples(g, net, (i,), [p], [tuple(p)]).geometry(i)


def cwp_residual(g: MetricField, net: OrthogonalNet, i: int, p, tol: float = 1e-8) -> float:
    """Mean-curvature exchange residual for block i at p. Raises
    NotApplicableError when the umbilicity preconditions fail at p, so the
    caller never mistakes an unevaluable identity for a zero residual."""
    samples = _Samples(g, net, (i,), [p], [tuple(p)])
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
        return {"status": self.status, "residual": self.residual}


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
    nblocks = len(net.blocks)
    if nblocks < 2:
        raise ConstraintError("classification needs at least two blocks")

    labels = [tuple(float(x) for x in p) for p in pts]
    samples = _Samples(g, net, range(nblocks), pts, labels)
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
    eq0_evaluated = bool(net.blocks[0]) and bool(admitted.any())
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
        n_samples=len(pts),
        residuals=res,
    )
