"""Product specs: metric assembly, connection identity, factor recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_expr, random_twisted_spec
from orthonet import chart_calculus, fixtures, nets, product_metrics, sampling, scalar_fields
from orthonet.chart_calculus import MetricField, metric_at
from orthonet.codazzi import build_codazzi_candidate
from orthonet.errors import (
    ConstraintError,
    EvalDomainError,
    InconsistencyError,
    OrthonetError,
    PathInconsistencyError,
)
from orthonet.nets import OrthogonalNet, classify_net
from orthonet.product_metrics import (
    FactorSpec,
    ProductSpec,
    _connection_residuals,
    _spherical_residuals,
    build_metric,
    conformal_scale,
    factorize_cwp,
    separability_residual,
    spherical_factor_check,
    verify_connection_identity,
)
from orthonet.sampling import SamplePlan, sample_points
from orthonet.scalar_fields import (
    Chart,
    ONE,
    Tape,
    const,
    evaluate,
    format_expr,
    is_const_one,
    mul,
    parse_expr,
    var,
)


def _line(lo, hi, name):
    return FactorSpec(Chart.box([(lo, hi)], names=(name,)), ((ONE,),))


def test_build_metric_places_blocks_and_twists():
    spec = fixtures.polar_spec()
    g = build_metric(spec)
    G, _ = metric_at(g, (1.7, 0.3))
    assert np.allclose(G, np.diag([1.0, 1.7**2]), atol=1e-15)
    assert g.provenance is spec
    assert spec.blocks == ((0,), (1,))


def test_build_metric_scales_factor_metrics():
    ch = Chart.box([(0.5, 1.5)], names=("s",))
    f0 = FactorSpec(ch, ((parse_expr("s^2", ch),),))
    f1 = _line(0.0, 1.0, "y")
    rho = parse_expr("1 + s", Chart.box([(0.5, 1.5), (0.0, 1.0)], names=("s", "y")))
    spec = ProductSpec("warped", (f0, f1), twists=(ONE, rho))
    g = build_metric(spec)
    s, y = 1.2, 0.4
    G, _ = metric_at(g, (s, y))
    assert np.allclose(G, np.diag([s**2, (1 + s) ** 2]), atol=1e-14)


def test_conformal_factor_multiplies_everything():
    spec = fixtures.exp_sum_spec()
    g = build_metric(spec)
    p = (0.3, 0.8)
    G, _ = metric_at(g, p)
    w = math.exp(2.0 * (p[0] + p[1]))
    assert np.allclose(G, np.diag([w, w]), rtol=1e-14)


def test_kind_validation():
    f0 = _line(0.0, 1.0, "a")
    f1 = _line(0.0, 1.0, "b")
    joint = Chart.box([(0.0, 1.0)] * 2, names=("a", "b"))
    rho = parse_expr("1 + b", joint)
    with pytest.raises(ConstraintError):
        ProductSpec("product", (f0, f1), twists=(ONE, rho))
    with pytest.raises(ConstraintError):
        # warped twist may only use base coordinates, 1 + b uses its own block
        ProductSpec("warped", (f0, f1), twists=(ONE, rho))
    ProductSpec("quasi_warped", (f0, f1), twists=(ONE, rho))  # allowed
    with pytest.raises(ConstraintError):
        ProductSpec("warped", (f0, f1), twists=(rho, ONE))
    with pytest.raises(ConstraintError):
        ProductSpec("bogus", (f0, f1), twists=(ONE, ONE))
    with pytest.raises(ConstraintError):
        ProductSpec("product", (f0, f1), twists=(ONE,))
    with pytest.raises(ConstraintError):
        ProductSpec("product", (f0, _line(0.0, 1.0, "a")), twists=(ONE, ONE))


def test_twist_positivity_gate():
    f0 = _line(0.0, 1.0, "a")
    f1 = _line(0.0, 1.0, "b")
    joint = Chart.box([(0.0, 1.0)] * 2, names=("a", "b"))
    bad = parse_expr("1 - 2*a", joint)  # negative for a > 1/2
    with pytest.raises(ConstraintError):
        build_metric(ProductSpec("twisted", (f0, f1), twists=(ONE, bad)))


def test_conformal_scale_squares_factor_and_keeps_provenance():
    g = fixtures.polar()
    phi = parse_expr("exp(t)", g.chart)
    gs = conformal_scale(g, phi)
    p = (1.1, 0.6)
    G, _ = metric_at(g, p)
    Gs, _ = metric_at(gs, p)
    assert np.allclose(Gs, math.exp(2.0 * p[0]) * G, rtol=1e-14)
    assert gs.provenance is not None
    assert gs.provenance.conformal_factor is not None
    with pytest.raises(ConstraintError):
        conformal_scale(g, parse_expr("t - 1.5", g.chart))  # changes sign


def test_connection_identity_random_twisted_specs():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        spec = random_twisted_spec(rng)
        n = spec.chart.dim
        worst = 0.0
        for _ in range(6):
            X = tuple(const(float(v)) for v in rng.uniform(-1.0, 1.0, n))
            Y = tuple(const(float(v)) for v in rng.uniform(-1.0, 1.0, n))
            p = tuple(float(v) for v in rng.uniform(0.35, 1.15, n))
            worst = max(worst, verify_connection_identity(spec, X, Y, p))
        assert worst <= 1e-9


def test_connection_identity_rejects_scaled_specs():
    spec = fixtures.exp_sum_spec()
    X = (const(1.0), const(0.0))
    with pytest.raises(ConstraintError):
        verify_connection_identity(spec, X, X, (0.5, 0.5))


# --- stacked checks against their one-sample wrappers --------------------------
#
# Row j of a stacked residual is the one-sample call at sample j, bit for bit:
# the stacked arithmetic is the one-sample arithmetic per row.

PLAN = SamplePlan(grid=3, margin=0.1, random=6, seed=4)


def test_stacked_connection_identity_rows_match_single_point():
    rng = np.random.default_rng(7)
    for _ in range(4):
        spec = random_twisted_spec(rng)
        n = spec.chart.dim
        pts = sample_points(spec.chart, PLAN)
        X, Y = rng.uniform(-1.0, 1.0, (2, len(pts), n))
        rows = _connection_residuals(spec, pts, X, Y)
        for j, p in enumerate(pts):
            Xj = tuple(const(v) for v in X[j].tolist())
            Yj = tuple(const(v) for v in Y[j].tolist())
            assert rows[j] == verify_connection_identity(spec, Xj, Yj, p)
        # fields given as expressions are shared by every sample
        Xe = tuple(random_expr(rng, n, depth=1) for _ in range(n))
        Ye = tuple(random_expr(rng, n, depth=1) for _ in range(n))
        rows = _connection_residuals(spec, pts, Xe, Ye)
        assert rows.max() <= 1e-9
        for j, p in enumerate(pts):
            assert rows[j] == verify_connection_identity(spec, Xe, Ye, p)


def test_connection_identity_tapes_fields_without_partials(monkeypatch):
    # the identity is tensorial: X(Y) cancels in lhs - rhs, so the jet sweep
    # takes the 2n components of X and Y and no partial of them is read
    taped = []
    jets = product_metrics._jets

    def spy(g, roots, *args, **kwargs):
        taped.append(list(roots))
        return jets(g, roots, *args, **kwargs)

    monkeypatch.setattr(product_metrics, "_jets", spy)
    rng = np.random.default_rng(11)
    spec = random_twisted_spec(rng)
    n = spec.chart.dim
    X = tuple(random_expr(rng, n, depth=1) for _ in range(n))
    Y = tuple(random_expr(rng, n, depth=1) for _ in range(n))
    assert verify_connection_identity(spec, X, Y, spec.chart.center()) <= 1e-9
    twisted = [rho for rho in spec.twists if not is_const_one(rho)]
    (roots,) = taped
    # then the upper triangle of the product metric and the twists other than 1
    product = spec._product_metric
    upper = [product.entries[a][b] for a, b in zip(*np.triu_indices(n))]
    assert roots == [*X, *Y, *upper, *twisted]


def test_stacked_spherical_check_rows_match_single_point():
    spec, phi_sum, phi_ctl = fixtures.sum_reciprocal()
    pts = sample_points(spec.chart, PLAN)
    for phi in (phi_sum, phi_ctl):
        rows = _spherical_residuals(spec, phi, 1, pts)
        for j, p in enumerate(pts):
            chk = spherical_factor_check(spec, phi, 1, p)
            assert rows[j].tolist() == [chk.residual_ii, chk.residual_iii, chk.residual_v]
    assert rows.min() > 1e-3  # the control fails at every sample


def test_separability_residual():
    ch = Chart.box([(0.2, 1.2)] * 2, names=("x0", "x1"))
    non_sep = parse_expr("1 + x0^2 * x1", ch)
    sep = parse_expr("exp(x0) * (1 + x1)", ch)
    p = (0.5, 0.5)
    assert separability_residual(non_sep, (0,), (1,), p) > 1e-3
    assert separability_residual(sep, (0,), (1,), p) <= 1e-12


def test_factorize_polar_recovers_warping():
    fac = factorize_cwp(fixtures.polar())
    assert fac.blocks == ((0,), (1,))
    assert fac.reconstruction_residual <= 1e-9
    assert fac.path_order_residual <= 1e-7
    # no conformal part: phi is the constant gauge 1
    assert np.allclose(fac.phi, 1.0, atol=1e-10)
    # recovered warping is t, gauge-normalized to one at the base point
    t_axis = fac.axes[0]
    assert np.allclose(fac.warpings[1], t_axis / fac.base[0], atol=1e-9)


def test_factorize_conformally_flat_sum():
    fac = factorize_cwp(fixtures.exp_sum_conformal())
    assert fac.reconstruction_residual <= 1e-9
    assert fac.cp is not None
    assert fac.cp.fit_residual <= 1e-9
    # recovered conformal grid matches exp(x0 + x1) up to a single gauge
    xs, ys = fac.axes
    want = np.exp(xs[:, None] + ys[None, :])
    ratio = fac.phi / want
    assert np.allclose(ratio, ratio[0, 0], rtol=1e-9)
    # provenance lets the factorization report a closed-form factor
    assert fac.phi_expr is not None
    r0 = evaluate(fac.phi_expr, (0.2, 0.3)) / math.exp(0.5)
    r1 = evaluate(fac.phi_expr, (0.9, 0.6)) / math.exp(1.5)
    assert math.isclose(r0, r1, rel_tol=1e-12)


def test_factorize_scaled_warped_product():
    g = fixtures.polar()
    gs = conformal_scale(g, parse_expr("exp(t + theta)", g.chart))
    fac = factorize_cwp(gs)
    assert fac.reconstruction_residual <= 1e-6
    assert fac.path_order_residual <= 1e-7


def test_factorize_refuses_non_cwp_metric():
    with pytest.raises(ConstraintError, match="CWP precondition"):
        factorize_cwp(fixtures.twisted_flat())


def test_spherical_factor_check_split_vs_control():
    spec, phi_sum, phi_ctl = fixtures.sum_reciprocal()
    for p in ((0.3, 0.4), (0.7, 0.9)):
        chk = spherical_factor_check(spec, phi_sum, 1, p)
        assert max(chk.residual_ii, chk.residual_iii, chk.residual_v) <= 1e-9
        chk = spherical_factor_check(spec, phi_ctl, 1, p)
        assert min(chk.residual_ii, chk.residual_iii, chk.residual_v) > 1e-3


def test_spherical_factor_check_argument_validation():
    spec, phi_sum, _ = fixtures.sum_reciprocal()
    with pytest.raises(ConstraintError):
        spherical_factor_check(spec, phi_sum, 0, (0.5, 0.5))
    with pytest.raises(ConstraintError):
        spherical_factor_check(fixtures.twisted_flat_spec(), phi_sum, 1, (0.5, 0.5))


def test_factor_spec_rejects_foreign_variables():
    ch = Chart.box([(0.0, 1.0)], names=("a",))
    with pytest.raises(ConstraintError):
        FactorSpec(ch, ((var(1),),))


# --- factorization failures: the error the pointwise definition meets first ---
#
# The expected messages are those of the pointwise implementation: points in
# itertools.product order, and grid coordinates printed as that loop held them.


def _unit_chart(n):
    names = tuple(f"x{a}" for a in range(n))
    return Chart.box([(0.0, 1.0)] * n, names=names, blocks=tuple((a,) for a in range(n)))


def _bump(center):
    """1e-9 at the center, below 1e-40 at every sample point."""
    terms = " + ".join(f"(x{a} - {c})^2" for a, c in enumerate(center))
    return f"1e-9*exp(-10000*({terms}))"


def test_factorize_off_block_entry_names_first_probe_point():
    ch = _unit_chart(3)
    upper = {(0, 1): _bump((1.0, 0.5, 0.0)), (1, 2): _bump((0.5, 0.0, 1.0))}
    text = [[upper.get((min(a, b), max(a, b)), "1" if a == b else "0")
             for b in range(3)] for a in range(3)]
    g = MetricField(ch, [[parse_expr(t, ch) for t in row] for row in text])
    # (0.5, 0, 1) precedes (1, 0.5, 0) on the 3^3 probe grid
    with pytest.raises(ConstraintError) as err:
        factorize_cwp(g)
    assert str(err.value) == "metric has off-block entry (1,2) at (0.5, 0.0, 1.0)"


@pytest.mark.parametrize("coord, block, point", [
    ("x0", 0, "(0.0, 0.5)"),  # base factor subgrid
    ("x1", 1, "(0.5, 0.0)"),  # fiber subgrid, after its path integrals
])
def test_factorize_block_determinant_off_the_sample_plan(coord, block, point):
    # conformally flat with factor x - 0.05: positive on every sample, negative
    # on the boundary of the factor grid
    ch = _unit_chart(2)
    u = parse_expr(f"{coord} - 0.05", ch)
    with pytest.raises(ConstraintError) as err:
        factorize_cwp(MetricField.diagonal(ch, [u, u]))
    assert str(err.value) == f"block {block} determinant -0.05 <= 0 at {point}"


def test_factorize_warping_determinant_fails_on_the_base_subgrid():
    # the block 1 determinant x0 - 0.05 is 0.45 on the fiber subgrid x0 = 0.5
    # and negative on the block-0 subgrid, where the warpings read it right
    # after the base factor's block 0
    ch = _unit_chart(2)
    g = MetricField.diagonal(ch, [ONE, parse_expr("x0 - 0.05", ch)])
    with pytest.raises(ConstraintError) as err:
        factorize_cwp(g)
    assert str(err.value) == "block 1 determinant -0.05 <= 0 at (0.0, 0.5)"


def test_factorize_entry_failing_at_a_box_corner_raises_at_the_full_grid():
    # 1 at every sample; the first term fails only at the corner (1, 1, 1),
    # on the full grid, and the second only at (1, 1, 0.3), a vertex of the
    # path from the base (0.3, 0.3, 0.3) to the corner (1, 1, 0) that no grid
    # reaches: the full grid raises before the path vertices
    ch = _unit_chart(3)
    g00 = parse_expr("1 + 1e-30/((x0 - 1)^2 + (x1 - 1)^2 + (x2 - 1)^2)"
                     " + 1e-30/((x0 - 1)^2 + (x1 - 1)^2 + (x2 - 0.3)^2)", ch)
    g = MetricField.diagonal(ch, [g00, ONE, ONE])
    with pytest.raises(EvalDomainError) as err:
        factorize_cwp(g, base=(0.3, 0.3, 0.3))
    assert err.value.subexpr == "1e-30/((x0 - 1)^2 + (x1 - 1)^2 + (x2 - 1)^2)"


def _sweeps_of(monkeypatch, module, pick) -> list:
    """Patch compile_tape in module and Tape.sweep: the returned list gets the
    number of points of every sweep of a tape compiled there from roots that
    pick accepts."""
    compile_ = module.compile_tape
    picked, counts = set(), []

    def compiled(roots):
        roots = list(roots)
        tape = compile_(roots)
        if pick(roots):
            picked.add(id(tape))
        return tape

    sweep = Tape.sweep

    def counted(self, points):
        if id(self) in picked:
            counts.append(len(points))
        return sweep(self, points)

    monkeypatch.setattr(module, "compile_tape", compiled)
    monkeypatch.setattr(Tape, "sweep", counted)
    return counts


def test_factorize_sweeps_the_metric_tape_once(monkeypatch):
    g = fixtures.warped_three()
    upper = [g.entries[a][b] for a in range(3) for b in range(a, 3)]
    counts = _sweeps_of(monkeypatch, product_metrics,
                        lambda roots: [id(e) for e in roots] == [id(e) for e in upper])
    fac = factorize_cwp(g)
    # base, three subgrids of 9, the full grid of 9^3, 2 paths of 4 vertices to 10 targets
    assert counts == [1 + 3 * 9 + 9**3 + 10 * 2 * 4]
    assert fac.phi.shape == (9, 9, 9)


def test_build_metric_runs_one_positivity_sweep(monkeypatch):
    ch = _unit_chart(2)
    spec = ProductSpec("twisted", (_line(0.0, 1.0, "x0"), _line(0.0, 1.0, "x1")),
                       twists=(parse_expr("2 + x1", ch), parse_expr("1 + x0", ch)),
                       conformal_factor=parse_expr("exp(x0 - x1)", ch))
    counts = _sweeps_of(monkeypatch, product_metrics, lambda roots: True)
    build_metric(spec)
    assert counts == [25]


def test_scaled_polar_factorization_compiles_four_tapes(monkeypatch):
    # the positivity gates, the classification, the metric's upper triangle
    # and the closed-form candidate, which one sweep over the base point and
    # the full grid checks; the off-block entries are the constant 0, so no
    # block-diagonality probe is compiled
    ch = Chart.box([(0.5, 2.5), (0.0, 2.0)], names=("t", "theta"))
    spec = ProductSpec("warped", (_line(0.5, 2.5, "t"), _line(0.0, 2.0, "theta")),
                       twists=(ONE, parse_expr("t", ch)),
                       conformal_factor=parse_expr("exp(0.5*t + 0.4*theta)", ch))
    tapes = []
    for module in (product_metrics, chart_calculus, scalar_fields):
        def compiled(roots, compile_=module.compile_tape):
            tapes.append(roots)
            return compile_(roots)

        monkeypatch.setattr(module, "compile_tape", compiled)
    fac = factorize_cwp(build_metric(spec), grid=17)
    assert len(tapes) == 4
    assert format_expr(fac.phi_expr, ch.names).startswith("exp(0.5*t + 0.4*theta)/")


@pytest.mark.parametrize("grid", [0, -3, 2.5, "9", True])
def test_factorize_refuses_a_grid_that_is_not_a_positive_integer(grid):
    with pytest.raises(ValueError) as err:
        factorize_cwp(fixtures.polar(), grid=grid)
    assert str(err.value) == "grid must have at least one point per axis"


def test_factorize_refuses_point_sets_beyond_max_points(monkeypatch):
    # 316^2 full-grid points fit, but with the base, the two subgrids of 316
    # and the 36 path vertices the sets hold 100525; refused before classifying
    def refuse(*args):
        raise AssertionError("classified")

    monkeypatch.setattr(product_metrics, "classify_net", refuse)
    with pytest.raises(OrthonetError) as err:
        factorize_cwp(fixtures.polar(), grid=316)
    assert str(err.value) == (
        "factorization of grid 316 over 2 axes needs 100525 points, more than 100000"
    )


def test_factorize_isolated_degeneracy_off_every_vertex():
    # |x0 - 1/64|^0.2 |x0 - 63/128|^0.2 vanishes between nodes of the grid of
    # 17 and off every path vertex, so no point set reads it there
    ch = _unit_chart(2)
    w = "exp(0.1*log((x0 - 0.015625)^2) + 0.1*log((x0 - 0.4921875)^2))"
    fac = factorize_cwp(MetricField.diagonal(ch, [ONE, parse_expr(w, ch)]), grid=17)
    x, b = fac.axes[0], fac.base[0]
    want = (np.abs(x - 1 / 64) * np.abs(x - 63 / 128)) ** 0.1
    want /= (abs(b - 1 / 64) * abs(b - 63 / 128)) ** 0.1
    assert np.allclose(fac.warpings[1], want, rtol=1e-13, atol=0.0)
    assert fac.path_order_residual <= 1e-15


def test_factorize_refuses_an_axis_order_dependent_twist():
    # a bump of 1e-3 at the corner (0, 0), where no sample reaches: CWP passes
    # on the sample plan, but log(rho_1 / rho_0) is not additively separable
    # across the corner's two paths
    ch = _unit_chart(2)
    g11 = parse_expr("(1 + 1e-3*exp(-10000*(x0^2 + x1^2)))^2", ch)
    g = MetricField.diagonal(ch, [ONE, g11])
    assert classify_net(g, OrthogonalNet.coordinate(ch), SamplePlan()).flags["CWP"].status == "pass"
    with pytest.raises(PathInconsistencyError) as err:
        factorize_cwp(g)
    assert str(err.value) == (
        "axis-order dependence 9.995e-04 exceeds 1.0e-07; "
        "the twist logs are not numerically gradient-consistent"
    )


@pytest.mark.parametrize("twist, message", [
    ("1/(x0 - 0.75) + 3", "twist 1 is -1 <= 0 at (0.5, 0.0)"),
    ("1/(x0 - 0.75) + 5", "twist 1 not evaluable at (0.75, 0.0): "
                          "division by zero: 1/(x0 - 0.75)"),
])
def test_positivity_gate_names_first_grid_point(twist, message):
    ch = _unit_chart(2)
    spec = ProductSpec("warped", (_line(0.0, 1.0, "x0"), _line(0.0, 1.0, "x1")),
                       twists=(ONE, parse_expr(twist, ch)))
    with pytest.raises(ConstraintError) as err:
        build_metric(spec)
    assert str(err.value) == message


def _twisted_square(twist, phi):
    ch = _unit_chart(2)
    return ProductSpec("twisted", (_line(0.0, 1.0, "x0"), _line(0.0, 1.0, "x1")),
                       twists=(ONE, parse_expr(twist, ch)), conformal_factor=parse_expr(phi, ch))


def test_positivity_gate_twist_fails_before_the_conformal_factor():
    # the conformal factor fails at the first grid point, the twist only at
    # the 21st; the twist is checked first
    with pytest.raises(ConstraintError) as err:
        build_metric(_twisted_square("0.9 - x0", "x0 + x1"))
    assert str(err.value) == "twist 1 is -0.1 <= 0 at (1.0, 0.0)"


@pytest.mark.parametrize("twist, message", [
    ("(x0 - 0.8)/(x0 - 0.25)", "twist 1 not evaluable at (0.25, 0.0): "
                               "division by zero: (x0 - 0.8)/(x0 - 0.25)"),
    ("(x0 - 0.3)/(x0 - 0.75)", "twist 1 is -0.8 <= 0 at (0.5, 0.0)"),
])
def test_positivity_gate_first_point_wins_within_a_gate(twist, message):
    # a domain error and a nonpositive value in one gate: the earlier point wins
    with pytest.raises(ConstraintError) as err:
        build_metric(_twisted_square(twist, "1 + x0"))
    assert str(err.value) == message


def test_positivity_gate_equal_to_an_earlier_gate_raises_nothing_new():
    ch = _unit_chart(3)
    factors = tuple(_line(0.0, 1.0, f"x{a}") for a in range(3))
    rho = "1 + x0*x1"
    spec = ProductSpec("twisted", factors, twists=(ONE, parse_expr(rho, ch), parse_expr(rho, ch)),
                       conformal_factor=parse_expr(rho, ch))
    assert build_metric(spec).dim == 3
    bad = "x0 - 0.5"
    spec = ProductSpec("twisted", factors, twists=(ONE, parse_expr(bad, ch), parse_expr(bad, ch)),
                       conformal_factor=parse_expr(bad, ch))
    with pytest.raises(ConstraintError) as err:
        build_metric(spec)
    assert str(err.value) == "twist 1 is -0.5 <= 0 at (0.0, 0.0, 0.0)"


@pytest.mark.parametrize("phi, message", [
    ("t - 1.5", "conformal factor is -1 <= 0 at (0.5, 0.0)"),
    ("log(t - 1)", "conformal factor not evaluable at (0.5, 0.0): "
                   "log of a nonpositive value: log(x0 - 1)"),
])
def test_conformal_scale_gate_messages(phi, message):
    g = fixtures.polar()
    with pytest.raises(ConstraintError) as err:
        conformal_scale(g, parse_expr(phi, g.chart))
    assert str(err.value) == message


def test_codazzi_reciprocal_gate_message():
    factors = (_line(0.0, 1.0, "x0"), _line(0.0, 1.0, "x1"))
    with pytest.raises(ConstraintError) as err:
        build_codazzi_candidate("conformal_product", factors=factors,
                                phi0=parse_expr("x0 - 0.75", factors[0].chart),
                                phi1=parse_expr("x1", factors[1].chart))
    assert str(err.value) == "reciprocal conformal factor is -0.75 <= 0 at (0.0, 0.0)"


@settings(max_examples=20)
@given(a=st.floats(-2.0, 2.0), c=st.floats(0.5, 3.0))
def test_factorize_recovers_warpings_in_closed_form(a, c):
    ch = _unit_chart(3)
    twists = (ONE, parse_expr(f"exp({a!r}*x0)", ch), parse_expr(f"{c!r} + x0^2", ch))
    factors = tuple(_line(0.0, 1.0, f"x{i}") for i in range(3))
    fac = factorize_cwp(build_metric(ProductSpec("warped", factors, twists=twists)))
    x, b = fac.axes[0], fac.base[0]
    want = {1: np.exp(a * x) / math.exp(a * b), 2: (c + x**2) / (c + b**2)}
    for i, rho in want.items():
        assert np.allclose(fac.warpings[i], rho, rtol=1e-13, atol=0.0)
    assert fac.reconstruction_residual <= 1e-13


@pytest.mark.parametrize("point, name", [(1 + 9 + 9, "reconstruction"), (1 + 9 + 9 + 81, "path_order")])
def test_factorize_refuses_a_residual_that_is_not_finite(point, name, monkeypatch):
    # polar at grid 9 sweeps the base, two subgrids of 9, the full grid of 81,
    # then the paths: a nan metric entry at the first full grid point, or at
    # the first path vertex, whose target is the corner (0.5, 0.0), raises,
    # naming the residual and that point; a nan path-order entry was dropped
    # by max(0.0, nan), and a nan reconstruction read as inconclusive
    symmetric = product_metrics._symmetric

    def poisoned(cols, n):
        G = symmetric(cols, n)
        G[point, 1, 1] = np.nan
        return G

    monkeypatch.setattr(product_metrics, "_symmetric", poisoned)
    with pytest.raises(InconsistencyError) as info:
        factorize_cwp(fixtures.polar())
    assert str(info.value) == f"{name} residual is nan at (0.5, 0.0); residuals must be finite"


def test_factorize_draws_the_sample_plan_once(monkeypatch):
    # the sphericity section reads classify_net's samples (NetReport.points)
    # instead of drawing the plan a second time
    drawn = []
    draw = sampling.sample_points

    def counted(*args):
        drawn.append(args)
        return draw(*args)

    for module in (sampling, nets, product_metrics):
        monkeypatch.setattr(module, "sample_points", counted, raising=False)
    fac = factorize_cwp(fixtures.polar())
    assert len(drawn) == 1
    assert np.array_equal(fac.report.points, draw(fixtures.polar().chart, SamplePlan()))
