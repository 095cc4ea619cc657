"""Product-structured metrics: constructors, identities, and factorization.

A ProductSpec assembles a block-diagonal metric on a product chart from
factor metrics and twist functions,

    g = sum_i rho_i^2 * (pullback of factor metric i),

optionally followed by a global conformal scale phi^2. Kind tags impose
syntactic constraints on the twists (checked via free variables):

    product       all rho_i constant 1
    warped        rho_0 = 1, rho_i a function of block-0 coordinates
    quasi_warped  rho_0 = 1, rho_i a function of blocks 0 and i
    twisted       no constraint beyond positivity

The module also provides the connection identity relating the twisted and
product Levi-Civita connections, multiplicative-separability residuals, the
constructive conformal factorization of CWP metrics, and the three-way
spherical-factor equivalence check.

Factorization gauge: per block, rho_i(x) = (det G_i(x) / det G_i(base))
^(1/(2 d_i)) is the unique twist normalized to 1 at the base point whose
quotient G_i / rho_i^2 is block-local. phi = rho_0 and the warpings are
psi_i = rho_i / rho_0, read off the block determinants of the metric's
values. The line integral of d log(rho_i / rho_0) along an axis-parallel
path from the base is exactly the difference of log(rho_i / rho_0) at its
ends, so the path-order test sums those differences leg by leg; its
independence of the order of the axes is the numerical surrogate for the
gradient condition that the analysis guarantees.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chart_calculus import (
    MetricField,
    _cov,
    _first_fault,
    _ginner,
    _gnorm,
    _jets,
    _levi_civita,
    _symmetric,
)
from .errors import (
    ConstraintError,
    NotApplicableError,
    OrthonetError,
    PathInconsistencyError,
)
from .nets import OrthogonalNet, classify_net
from .sampling import MAX_POINTS, SamplePlan, _mesh, grid_axes
from .scalar_fields import (
    Chart,
    Expr,
    ONE,
    ZERO,
    _pairs,
    compile_tape,
    const,
    div,
    free_vars,
    is_const_one,
    log,
    mul,
    powc,
    substitute,
    var,
)

__all__ = [
    "FactorSpec",
    "ProductSpec",
    "Factorization",
    "CpSection",
    "SphericalSection",
    "SphericalCheck",
    "build_metric",
    "conformal_scale",
    "verify_connection_identity",
    "separability_residual",
    "factorize_cwp",
    "spherical_factor_check",
]

KINDS = ("product", "warped", "quasi_warped", "twisted")

PATH_ORDER_TOL = 1e-7
_POSITIVITY_GRID = 5


@dataclass(frozen=True)
class FactorSpec:
    """A factor manifold: local chart plus metric in factor coordinates."""

    chart: Chart
    metric: tuple

    def __post_init__(self):
        d = self.chart.dim
        rows = tuple(tuple(r) for r in self.metric)
        object.__setattr__(self, "metric", rows)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ConstraintError("factor metric must be dim x dim")
        for a in range(d):
            for b in range(d):
                bad = [v for v in free_vars(rows[a][b]) if v >= d]
                if bad:
                    raise ConstraintError(
                        f"factor metric entry ({a},{b}) uses variable index "
                        f"{max(bad)}, outside the factor chart"
                    )


@dataclass(frozen=True)
class ProductSpec:
    """Product chart + twists; `kind` fixes which twists are allowed."""

    kind: str
    factors: tuple
    twists: tuple
    conformal_factor: Expr | None = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "twists", tuple(self.twists))
        if self.kind not in KINDS:
            raise ConstraintError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if len(self.twists) != len(self.factors):
            raise ConstraintError("one twist per factor required")
        names = [n for f in self.factors for n in f.chart.names]
        if len(set(names)) != len(names):
            raise ConstraintError("factor coordinate names collide across factors")
        blocks = self.blocks
        allowed_all = set(range(sum(f.chart.dim for f in self.factors)))
        for i, rho in enumerate(self.twists):
            fv = free_vars(rho)
            if not fv <= allowed_all:
                raise ConstraintError(f"twist {i} uses out-of-chart variables")
            if self.kind == "product" and not is_const_one(rho):
                raise ConstraintError("product kind requires all twists identically 1")
            if self.kind in ("warped", "quasi_warped"):
                if i == 0:
                    if not is_const_one(rho):
                        raise ConstraintError(f"{self.kind} requires twist 0 identically 1")
                else:
                    allowed = set(blocks[0])
                    if self.kind == "quasi_warped":
                        allowed |= set(blocks[i])
                    if not fv <= allowed:
                        raise ConstraintError(
                            f"{self.kind} twist {i} may only use coordinates of "
                            f"block 0{'' if self.kind == 'warped' else f' and block {i}'}"
                        )

    @property
    def blocks(self) -> tuple:
        out = []
        off = 0
        for f in self.factors:
            out.append(tuple(range(off, off + f.chart.dim)))
            off += f.chart.dim
        return tuple(out)

    @functools.cached_property
    def chart(self) -> Chart:
        domain = [iv for f in self.factors for iv in f.chart.domain]
        names = tuple(n for f in self.factors for n in f.chart.names)
        return Chart.box(domain, names=names, blocks=self.blocks)

    @functools.cached_property
    def _metric(self) -> MetricField:
        """The block-diagonal metric of build_metric, built once per spec."""
        chart = self.chart
        n = chart.dim
        gates = [(rho, f"twist {i}") for i, rho in enumerate(self.twists) if not is_const_one(rho)]
        if self.conformal_factor is not None:
            gates.append((self.conformal_factor, "conformal factor"))
        if gates:
            _check_positive(gates, chart)
        entries = [[ZERO] * n for _ in range(n)]
        off = 0
        for f, rho in zip(self.factors, self.twists):
            remap = {j: var(off + j) for j in range(f.chart.dim)}
            rho2 = mul(rho, rho)
            for a in range(f.chart.dim):
                for b in range(a, f.chart.dim):
                    e = substitute(f.metric[a][b], remap)
                    entries[off + a][off + b] = mul(rho2, e)
            off += f.chart.dim
        if self.conformal_factor is not None:
            phi = self.conformal_factor
            phi2 = mul(phi, phi)
            entries = [
                [mul(phi2, e) if e is not ZERO else ZERO for e in row] for row in entries
            ]
        g = MetricField(chart, entries)
        g.provenance = self
        return g

    @functools.cached_property
    def _product_metric(self) -> MetricField:
        """The metric of the same factors with every twist 1, built once per
        spec."""
        return dataclasses.replace(self, kind="product", twists=(ONE,) * len(self.twists))._metric


def _check_positive(gates, chart: Chart):
    """Check that each expression of gates, (expression, label) pairs, is
    evaluable and positive on the positivity grid; raise ConstraintError
    naming the label and the first grid point where the first gate in order
    fails.

    The gates go on one tape, swept once over the grid, and are checked root
    by root. The roots before root r have passed at every point, so every
    slot before bounds[r] is clean, and root r fails to evaluate at point j
    when first_bad[j] < bounds[r + 1]; elsewhere its value is read. Within a
    gate, the first point that fails either way wins, an evaluation error
    before the value at one point; a gate equal to an earlier one has no
    slots of its own and raises nothing new."""
    pts = _mesh(grid_axes(chart, _POSITIVITY_GRID))
    tape = compile_tape([e for e, _ in gates])
    sweep = tape.sweep(pts)
    for r, (_, label) in enumerate(gates):
        broken = sweep.first_bad < tape.bounds[r + 1]
        hit = np.flatnonzero(broken | (sweep.values[:, r] <= 0.0))
        if hit.size:
            j = int(hit[0])
            at = tuple(pts[j].tolist())
            if broken[j]:
                exc = sweep.error(j)
                raise ConstraintError(f"{label} not evaluable at {at}: {exc}") from exc
            raise ConstraintError(f"{label} is {sweep.values[j, r]:.6g} <= 0 at {at}")


def build_metric(spec: ProductSpec) -> MetricField:
    """Assemble the block-diagonal metric of the spec on its product chart."""
    return spec._metric


def conformal_scale(g: MetricField, phi: Expr) -> MetricField:
    """phi^2 * g with a sampled positivity gate on phi."""
    _check_positive([(phi, "conformal factor")], g.chart)
    phi2 = mul(phi, phi)
    n = g.dim
    entries = [[mul(phi2, g.entries[a][b]) for b in range(n)] for a in range(n)]
    out = MetricField(g.chart, entries)
    prov = getattr(g, "provenance", None)
    if isinstance(prov, ProductSpec):
        combined = phi if prov.conformal_factor is None else mul(prov.conformal_factor, phi)
        out.provenance = dataclasses.replace(prov, conformal_factor=combined)
    return out


def _connection_residuals(spec: ProductSpec, pts, X, Y) -> np.ndarray:
    """verify_connection_identity at every sample of an (m, dim) array of
    points. X and Y are component expression sequences shared by the
    samples, and the result is (m,); or they are (m, ..., dim) arrays of
    constant fields, and the result has their shape without the last axis,
    so that several pairs at one sample share its sweep.

    One jet sweep (chart_calculus._jets) of the metric of the spec, the
    fields when they are expressions, the upper triangle of the product
    metric and the twists gives the Christoffel symbols of the metric, those
    of the product metric (_levi_civita) and the partials of the twists'
    logs, d rho / rho. The identity is tensorial, so the partials of the
    fields are never read. Errors are those of _jets in root order; a twist
    that is not positive fails right after its value."""
    if spec.conformal_factor is not None:
        raise ConstraintError("connection identity applies to unscaled twisted specs")
    g, product = build_metric(spec), spec._product_metric
    n = g.dim
    nt = n * (n + 1) // 2
    fields = [] if isinstance(X, np.ndarray) else [*X, *Y]
    roots = fields + [product.entries[a][b] for a, b in zip(*_pairs(n, 0))]
    twisted = [i for i, rho in enumerate(spec.twists) if not is_const_one(rho)]
    checks = []
    for i in twisted:
        r = len(roots)
        checks.append((
            r,
            lambda G, vals, r=r: vals[:, r] <= 0.0,
            lambda G, v, label, r=r, i=i: ConstraintError(f"twist {i} is {v[r]:.6g} <= 0 at {label}"),
        ))
        roots.append(spec.twists[i])
    (G, _, Ginv, gam, _), J, _ = _jets(g, roots, pts, checks=checks)
    if fields:
        X, Y = J[:, 0, :n], J[:, 0, n : 2 * n]
    P = J[:, : n + 1, len(fields) : len(fields) + nt]  # the product metric's values and d_p
    rho = J[:, : n + 1, len(fields) + nt :]
    gam_product = _levi_civita(_symmetric(P[:, 0], n), _symmetric(P[:, 1:], n))[1]
    # nabla_X Y = X(Y) + Gamma(X, Y) under either connection; X(Y) cancels
    # in lhs - rhs, so only the Gamma terms are kept
    lhs = np.einsum("mkij,m...i,m...j->m...k", gam, X, Y)
    rhs = np.einsum("mkij,m...i,m...j->m...k", gam_product, X, Y)
    unorm_sum = 0.0
    pairs = (slice(None),) + (None,) * (X.ndim - 2)
    for t, i in enumerate(twisted):
        dlog = rho[:, 1:, t] / rho[:, :1, t]
        U = -np.einsum("mkl,ml->mk", Ginv, dlog)[pairs]
        block = np.isin(np.arange(n), spec.blocks[i])
        Xi, Yi = np.where(block, X, 0.0), np.where(block, Y, 0.0)
        rhs = (
            rhs
            + _ginner(Xi, G, Yi)[..., None] * U
            - _ginner(X, G, U)[..., None] * Yi
            - _ginner(Y, G, U)[..., None] * Xi
        )
        unorm_sum += _gnorm(U, G)
    denom = np.maximum(_gnorm(X, G) * _gnorm(Y, G) * (1.0 + unorm_sum), 1e-30)
    return _gnorm(lhs - rhs, G) / denom


def verify_connection_identity(spec: ProductSpec, X, Y, p) -> float:
    """Residual of the twisted-vs-product connection identity at p.

    LHS is the Levi-Civita derivative of Y along X for the twisted metric;
    RHS adds to the product-metric derivative the twist correction
    sum_i (<X^i, Y^i> U_i - <X, U_i> Y^i - <Y, U_i> X^i) with
    U_i = -grad log rho_i taken in the twisted metric. Inner products and
    norms use the twisted metric; the residual is normalized by
    ||X|| ||Y|| (1 + sum ||U_i||).
    """
    return float(_connection_residuals(spec, [p], tuple(X), tuple(Y))[0])


def separability_residual(rho: Expr, block_a, block_b, p) -> float:
    """max |d^2 log rho / dx_a dx_b| over a in block_a, b in block_b at p,
    from the jets of log rho."""
    n = len(p)
    J = compile_tape([log(rho)]).run_jets(np.array([p], dtype=float))
    hess = _symmetric(J[0, n + 1 :, 0], n)
    return float(np.abs(hess[np.ix_(list(block_a), list(block_b))]).max(initial=0.0))


# --- factorization --------------------------------------------------------------


@dataclass
class CpSection:
    constants: dict
    fit_residual: float
    phi: np.ndarray
    base_factor: np.ndarray | None
    fiber_factors: dict


@dataclass
class SphericalSection:
    kind: str
    phi0: np.ndarray
    phis: dict
    residual: float


@dataclass
class Factorization:
    base: tuple
    axes: tuple
    blocks: tuple
    phi: np.ndarray
    phi_expr: Expr | None
    base_factor: np.ndarray | None
    warpings: dict
    fiber_factors: dict
    reconstruction_residual: float
    path_order_residual: float
    cp: CpSection | None
    spherical: SphericalSection | None
    report: object
    names: tuple  # the chart's coordinate names, for phi_expr

    def to_dict(self) -> dict:
        out = {
            "base": [float(x) for x in self.base],
            "axes": [[float(x) for x in ax] for ax in self.axes],
            "blocks": [list(b) for b in self.blocks],
            "phi": self.phi.tolist(),
            "reconstruction_residual": float(self.reconstruction_residual),
            "path_order_residual": float(self.path_order_residual),
            "warpings": {str(i): w.tolist() for i, w in self.warpings.items()},
            "base_factor": None
            if self.base_factor is None
            else self.base_factor.tolist(),
            "fiber_factors": {str(i): m.tolist() for i, m in self.fiber_factors.items()},
        }
        if self.phi_expr is not None:
            from .scalar_fields import format_expr

            out["phi_expr"] = format_expr(self.phi_expr, self.names)
        if self.cp is not None:
            out["cp"] = {
                "constants": {str(i): float(a) for i, a in self.cp.constants.items()},
                "fit_residual": float(self.cp.fit_residual),
                "phi": self.cp.phi.tolist(),
            }
        if self.spherical is not None:
            out["spherical"] = {
                "kind": self.spherical.kind,
                "phi0": self.spherical.phi0.tolist(),
                "phis": {str(i): v.tolist() for i, v in self.spherical.phis.items()},
                "residual": float(self.spherical.residual),
            }
        return out


def factorize_cwp(
    g: MetricField,
    net: OrthogonalNet | None = None,
    base=None,
    tol: float = 1e-8,
    plan: SamplePlan | None = None,
    grid: int = 9,
) -> Factorization:
    """Factor a CWP metric as phi^2 * (warped product) constructively.

    Requires a coordinate-block net and a block-diagonal metric; classifies
    first and refuses anything whose CWP flag does not pass. Returns grids
    for phi, the recovered warpings, and the factor metrics, a reconstruction
    residual over a `grid`-per-axis box, and the path-order residual of the
    defining line integrals. Adds a conformal-to-product section when CP
    passes and a separable-sum section for 1/phi when sphericity holds.
    `grid` is an integer >= 1, and the point sets below hold at most
    sampling.MAX_POINTS points together.

    Every point set goes into one (m, n) array, in this order: the base
    point, the block-0 subgrid (the grid over block 0, the other axes at
    base), each block-i subgrid, the full grid, and the n + 1 vertices of the
    paths from base to every box corner, the base and the center that fix
    the axes in forward and in reverse order. One tape of the metric's upper
    triangle is swept over it once, and the block determinants det G_b are
    one np.linalg.det per block over all points; with them
    rho_b = (det G_b / det G_b(base))^(1/(2 d_b)). On the block-0 subgrid the
    base factor is G_0 / rho_0^2 and the warping psi_i = rho_i / rho_0; on the
    block-i subgrid, where psi_i is 1, fiber factor i is G_i / rho_0^2;
    phi = rho_0 on the full grid. The path-order residual takes
    log(rho_i / rho_0) at the path vertices. Per path, alpha and beta sum its
    leg differences over the axes of block 0 and of block i, and gamma their
    absolute values over the other axes; the residual is the largest
    |alpha_f - alpha_r|, |beta_f - beta_r|, gamma_f or gamma_r over every i
    and target.

    The point sets are checked in their order, so the base point comes
    first, then failures are raised in this order:

    1. base factor (block-0 subgrid);
    2. warpings (block-0 subgrid);
    3. fiber factors (block-i subgrids, i = 1, 2, ...);
    4. full grid;
    5. path vertices;
    6. the CP, spherical and closed-form sections.

    Within each point set, an entry's domain error at the first point that
    fails comes before a nonpositive block determinant; determinants are
    checked block by block, the set's own block first (block 0 on the
    block-0 subgrid, so the base factor precedes the warpings), each at its
    first nonpositive point. Points go in itertools.product order.
    """
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral) or grid < 1:
        raise ValueError("grid must have at least one point per axis")
    grid = int(grid)
    chart = g.chart
    n = chart.dim
    if net is None:
        net = OrthogonalNet.coordinate(chart)
    if not net.is_coordinate:
        raise NotApplicableError("factorization supports coordinate-block nets only")
    blocks = net.blocks
    k = len(blocks) - 1
    dims = [len(blk) for blk in blocks]
    # the point sets in the order they are checked: the base point, the block
    # subgrids, the full grid, then two paths of n + 1 vertices to each of the
    # 2^n box corners, the base and the center
    sizes = [1, *(grid**d for d in dims), grid**n, (2**n + 2) * 2 * (n + 1)]
    if sum(sizes) > MAX_POINTS:
        raise OrthonetError(
            f"factorization of grid {grid} over {n} axes needs {sum(sizes)} points, "
            f"more than {MAX_POINTS}"
        )

    report = classify_net(g, net, plan or SamplePlan(), tol)
    if report.flags["CWP"].status != "pass":
        raise ConstraintError(
            f"CWP precondition fails: flag {report.flags['CWP'].status} "
            f"with residual {report.flags['CWP'].residual:.3e}"
        )

    if base is None:
        base = chart.center()
    base = tuple(float(x) for x in base)
    if not chart.contains(base):
        raise ConstraintError(f"base point {base} outside the chart domain")

    # block-diagonality gate
    off = [
        (a, b)
        for bi, bj in itertools.combinations(range(k + 1), 2)
        for a in blocks[bi]
        for b in blocks[bj]
    ]
    if off:
        probe = _mesh(grid_axes(chart, 3))
        sweep = compile_tape([g.entries[a][b] for a, b in off]).sweep(probe)
        hit = _first_fault(sweep, np.abs(sweep.values) > 1e-12)
        if hit and hit[2]:
            raise sweep.error(hit[0])
        if hit:
            a, b = off[hit[1]]
            at = tuple(probe[hit[0]].tolist())
            raise ConstraintError(f"metric has off-block entry ({a},{b}) at {at}")

    axes = grid_axes(chart, grid)
    ends = np.cumsum(sizes)
    sets = [slice(int(lo), int(hi)) for lo, hi in zip([0, *ends[:-1]], ends)]
    subs, full, path = sets[1:-2], sets[-2], sets[-1]
    pts = np.empty((int(ends[-1]), n))
    pts[:] = base
    for blk, s in zip(blocks, subs):
        pts[s, list(blk)] = _mesh([axes[a] for a in blk])
    pts[full] = _mesh(axes)
    targets = np.array(list(itertools.product(*chart.domain)) + [base, chart.center()])
    orders = np.array([range(n), range(n - 1, -1, -1)])
    V = pts[path].reshape(len(targets), 2, n + 1, n)
    for o, order in enumerate(orders):
        for j, ax in enumerate(order):
            V[:, o, j + 1 :, ax] = targets[:, ax, None]

    def block(G, blk) -> np.ndarray:
        sel = np.array(blk, dtype=np.intp)
        return G[:, sel[:, None], sel]

    upper = compile_tape([g.entries[a][b] for a, b in zip(*_pairs(n, 0))])

    def checked_sweep():
        """G, (m, n, n), and rho_b = (det G_b / det G_b(base))^(1/(2 d_b)),
        (k + 1, m), over every point set, from one sweep; an empty block has
        det 1, so its rho is 1. Walks the sets in order and raises the entry
        error of a set's first point that fails, then, block by block with
        the set's own first, its first nonpositive determinant."""
        sweep = upper.sweep(pts)
        G = _symmetric(sweep.values, n)
        with np.errstate(all="ignore"):  # read only at points whose entries evaluate
            dets = [np.linalg.det(block(G, blk)) for blk in blocks]
        for s, own in zip(sets, [0, *range(k + 1), 0, 0]):
            failed = np.flatnonzero(sweep.first_bad[s] < upper.size)
            if failed.size:
                raise sweep.error(s.start + int(failed[0]))
            for b in [own, *(b for b in range(k + 1) if b != own)]:
                bad = np.flatnonzero(dets[b][s] <= 0.0)
                if bad.size:
                    j = s.start + int(bad[0])
                    raise ConstraintError(
                        f"block {b} determinant {dets[b][j]:.6g} <= 0 at {tuple(pts[j].tolist())}"
                    )
        return G, np.array([(d / d[0]) ** (0.5 / max(dim, 1)) for d, dim in zip(dets, dims)])

    G, rho = checked_sweep()

    b0 = blocks[0]
    shape0 = (grid,) * len(b0)

    # base factor G_0 / rho_0^2 and warpings psi_i = rho_i / rho_0 on the
    # block-0 subgrid
    r = rho[:, subs[0]]
    phi_sub = {0: r[0]}
    base_factor = None
    if b0:
        base_factor = (block(G[subs[0]], b0) / (r[0] ** 2)[:, None, None]).reshape(shape0 + (dims[0],) * 2)
    warpings = {i: (r[i] / r[0]).reshape(shape0) for i in range(1, k + 1)}

    # fiber factors G_i / rho_0^2 on block-i subgrids, where psi_i is 1
    fiber_factors = {}
    for i in warpings:
        phi_sub[i] = rho[0, subs[i]]
        fiber = block(G[subs[i]], blocks[i]) / (phi_sub[i] ** 2)[:, None, None]
        fiber_factors[i] = fiber.reshape((grid,) * dims[i] + (dims[i], dims[i]))

    # phi on the full grid + reconstruction residual
    G, r0 = G[full], rho[0, full]
    phi_grid = r0.reshape((grid,) * n)
    index = np.unravel_index(np.arange(len(G)), phi_grid.shape)

    def spread(vals, blk) -> np.ndarray:
        """At each point of the full grid, vals at its projection onto the
        subgrid of blk."""
        flat = vals.reshape((grid ** len(blk),) + vals.shape[len(blk):])
        if not blk:
            return flat[np.zeros(len(G), dtype=np.intp)]
        return flat[np.ravel_multi_index([index[a] for a in blk], (grid,) * len(blk))]

    def norm(X) -> np.ndarray:
        return np.sqrt(np.einsum("mab,mab->m", X, X))

    R = np.zeros_like(G)
    r2 = r0 * r0
    for i, blk in enumerate(blocks):
        sel = np.array(blk)
        if i == 0 and blk:
            R[:, sel[:, None], sel] = r2[:, None, None] * spread(base_factor, blk)
        elif i:
            psi = spread(warpings[i], b0)
            fiber = spread(fiber_factors[i], blk)
            R[:, sel[:, None], sel] = (r2 * psi * psi)[:, None, None] * fiber
    worst = np.max(norm(R - G) / np.maximum(norm(G), 1e-300))

    # path-order residual over box corners + center: along leg j of a path,
    # log(rho_i / rho_0) changes by the difference at its ends
    r = rho[:, path]
    path_worst = 0.0
    for i in warpings:
        legs = np.diff(np.log(r[i] / r[0]).reshape(len(targets), 2, n + 1), axis=2)
        # per path, the legs' sums over block 0 and block i, and |legs| over the rest
        alpha = np.where(np.isin(orders, b0), legs, 0.0).sum(axis=2)
        beta = np.where(np.isin(orders, blocks[i]), legs, 0.0).sum(axis=2)
        gamma = np.where(np.isin(orders, b0 + blocks[i]), 0.0, np.abs(legs)).sum(axis=2)
        path_worst = max(
            path_worst,
            float(np.abs(alpha[:, 0] - alpha[:, 1]).max()),
            float(np.abs(beta[:, 0] - beta[:, 1]).max()),
            float(gamma.max()),
        )
    if path_worst > PATH_ORDER_TOL:
        raise PathInconsistencyError(
            f"axis-order dependence {path_worst:.3e} exceeds {PATH_ORDER_TOL:.1e}; "
            "the twist logs are not numerically gradient-consistent"
        )

    # conformal-to-product section
    cp = None
    if report.flags["CP"].status == "pass" and k >= 1:
        logpsi = {i: np.log(warpings[i]) for i in warpings}
        constants = {1: 1.0}
        fit = 0.0
        for i in range(2, k + 1):
            d = logpsi[i] - logpsi[1]
            la = float(np.mean(d))
            constants[i] = math.exp(la)
            fit = max(fit, float(np.max(np.abs(d - la))) if d.size else 0.0)
        cp_base = None
        if base_factor is not None:
            cp_base = base_factor / (warpings[1] ** 2)[..., None, None]
        cp_fibers = {1: fiber_factors[1]}
        for i in range(2, k + 1):
            cp_fibers[i] = constants[i] ** 2 * fiber_factors[i]
        cp = CpSection(
            constants=constants,
            fit_residual=fit,
            phi=phi_grid * spread(warpings[1], b0).reshape(phi_grid.shape),
            base_factor=cp_base,
            fiber_factors=cp_fibers,
        )

    # separable-sum section for 1/phi under sphericity
    spherical = None
    res = report.residuals
    sph_ok = bool(
        (np.maximum(res["sphericity"][1:], res["sphericity_perp"][1:]) <= tol).all()
    )
    if sph_ok and k >= 1:
        kind = "warped"
        if cp is not None and (res["sphericity_perp"][0] <= tol).all():
            kind = "product"
        Kb = 1.0
        phi0 = (1.0 / phi_sub[0]).reshape(shape0)
        phis = {i: (1.0 / phi_sub[i] - Kb).reshape((grid,) * dims[i]) for i in warpings}
        Kv = 1.0 / r0
        rebuilt = spread(phi0, b0)
        for i in warpings:
            rebuilt = rebuilt + spread(warpings[i], b0) * spread(phis[i], blocks[i])
        sph_worst = float(np.max(np.abs(Kv - rebuilt) / (1.0 + np.abs(Kv))))
        spherical = SphericalSection(kind=kind, phi0=phi0, phis=phis, residual=sph_worst)

    # closed-form conformal factor when provenance provides one that matches:
    # the candidate divided by its value at base, checked on the full grid,
    # where the check stops at the first mismatch, as the pointwise one did.
    # One sweep of the candidate over base and the full grid gives both, and
    # numpy divides; where a quotient fails, the quotient's tape names the
    # failing sub-expression
    phi_expr = None
    prov = getattr(g, "provenance", None)
    if isinstance(prov, ProductSpec):
        cand = prov.conformal_factor
        if cand is None and prov.kind in ("product", "warped"):
            cand = ONE
        if cand is not None:
            sweep = compile_tape([cand]).sweep(np.vstack([pts[:1], pts[full]]))
            if sweep.first_bad[0] < sweep.tape.size:
                raise sweep.error(0)
            c = float(sweep.values[0, 0])
            cand = div(cand, const(c))
            with np.errstate(all="ignore"):
                vals = sweep.values[1:, 0] / c
            failed = (sweep.first_bad[1:] < sweep.tape.size) | ~np.isfinite(vals)
            mismatch = np.abs(vals - r0) > 1e-8 * (1.0 + np.abs(r0))
            hit = np.flatnonzero(failed | mismatch)
            if not hit.size:
                phi_expr = cand
            elif failed[hit[0]]:
                raise compile_tape([cand]).sweep(pts[full][hit[:1]]).error(0)

    return Factorization(
        base=base,
        axes=tuple(axes),
        blocks=blocks,
        phi=phi_grid,
        phi_expr=phi_expr,
        base_factor=base_factor,
        warpings=warpings,
        fiber_factors=fiber_factors,
        reconstruction_residual=float(worst),
        path_order_residual=float(path_worst),
        cp=cp,
        spherical=spherical,
        report=report,
        names=chart.names,
    )


# --- spherical-factor equivalence ----------------------------------------------


@dataclass
class SphericalCheck:
    residual_ii: float
    residual_iii: float
    residual_v: float

    def to_dict(self) -> dict:
        return {
            "residual_ii": self.residual_ii,
            "residual_iii": self.residual_iii,
            "residual_v": self.residual_v,
        }


def _spherical_residuals(spec: ProductSpec, phi: Expr, i: int, pts) -> np.ndarray:
    """spherical_factor_check at every sample of an (m, dim) array of points:
    (m, 3) residuals ii, iii and v.

    One jet sweep (chart_calculus._jets) of the scaled metric, log phi, phi,
    1/phi and the twist rho of block i gives every partial, and errors are
    those of _jets in that order. W = -grad log phi, its partials and the
    Christoffel symbols are numpy: d_i W = -g^-1 ((d_i g) W + d_i d log phi),
    and the residual_v terms are, for a in the block and b outside it,

        d_b (d_a (1/phi) / rho) = (d_a d_b (1/phi) - d_a (1/phi) d_b rho / rho) / rho."""
    if spec.kind not in ("product", "warped"):
        raise ConstraintError("spherical factor check expects a product or warped spec")
    if spec.conformal_factor is not None:
        raise ConstraintError("pass phi separately; spec must be unscaled")
    if not 1 <= i <= len(spec.factors) - 1:
        raise ConstraintError(f"block index {i} out of range for the spec")
    g = conformal_scale(build_metric(spec), phi)
    n = g.dim
    blk = list(spec.blocks[i])
    other = [a for a in range(n) if a not in blk]

    (G, dG, Ginv, gam, _), J, _ = _jets(g, [log(phi), phi, powc(phi, -1.0), spec.twists[i]], pts)
    m = len(G)
    dl, df, dinv, drho = np.moveaxis(J[:, 1 : n + 1], 2, 0)
    d2l, d2f, d2inv, _ = np.moveaxis(_symmetric(J[:, n + 1 :].swapaxes(1, 2), n), 1, 0)
    rho = J[:, 0, 3, None, None]
    r5 = (d2inv[:, blk][:, :, other] - dinv[:, blk, None] * drho[:, None, other] / rho) / rho
    Wv = -np.einsum("mkl,ml->mk", Ginv, dl)
    dW = -np.einsum("mka,mia->mki", Ginv, np.einsum("miab,mb->mia", dG, Wv) + d2l)

    norms = np.sqrt(np.einsum("maa->ma", G))
    scale = np.maximum(norms[:, other, None] * norms[:, None, blk], 1e-300)  # (m, c, a)
    # <nabla_Z W, X> = <Z, W><X, W> for Z = d_c, X = d_a
    E = np.broadcast_to(np.eye(n)[other], (m, len(other), n))
    GdW = np.einsum("mij,mcj->mci", G, _cov(dW, gam, Wv, E))
    GW = np.einsum("mij,mj->mi", G, Wv)
    lhs = GdW[:, :, blk] / scale
    rhs = GW[:, other, None] * GW[:, None, blk] / scale
    r2 = np.abs(lhs - rhs).max(axis=(1, 2), initial=0.0)
    # Hess phi(d_a, d_c) = d_a d_c phi - Gamma^k_ac d_k phi
    T = np.einsum("mkij,mk->mji", gam, df)[:, other][:, :, blk]
    r3 = (np.abs(d2f[:, other][:, :, blk] - T) / scale).max(axis=(1, 2), initial=0.0)
    return np.stack([r2, r3, np.abs(r5).max(axis=(1, 2), initial=0.0)], axis=1)


def spherical_factor_check(spec: ProductSpec, phi: Expr, i: int, p) -> SphericalCheck:
    """Three equivalent sphericity tests for block i of phi^2 * spec at p.

    residual_ii checks <nabla_Z W, X> = <Z, W><X, W> for W = -grad log phi;
    residual_iii checks the covariant Hessian of phi across the block split;
    residual_v checks that (1/rho_i) * d(1/phi)/dx_a is independent of the
    non-block coordinates. All derivatives use the scaled metric except
    residual_v, which reads no metric.
    """
    r2, r3, r5 = _spherical_residuals(spec, phi, i, [p])[0].tolist()
    return SphericalCheck(residual_ii=r2, residual_iii=r3, residual_v=r5)
