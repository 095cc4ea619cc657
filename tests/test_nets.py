"""Orthogonal nets: flag classification, span geometry, invariances."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_positive_scale
from orthonet import fixtures
from orthonet.chart_calculus import MetricField, christoffel, lc_axiom_residuals, metric_at
from orthonet import chart_calculus, codazzi, nets
from orthonet.errors import (
    ConditionNumberWarning,
    ConstraintError,
    DegenerateFrameError,
    EvalDomainError,
    InconsistencyError,
    NotApplicableError,
    NotSPDError,
)
from orthonet.nets import (
    NetReport,
    OrthogonalNet,
    classify_net,
    cwp_residual,
    distribution_geometry,
    project,
)
from orthonet.product_metrics import conformal_scale
from orthonet.sampling import SamplePlan, sample_points
from orthonet.scalar_fields import Chart, ONE, ZERO, const, mul, parse_expr

PLAN = SamplePlan(grid=4, margin=0.1, random=6, seed=1)


def _statuses(report: NetReport) -> dict:
    return {k: f.status for k, f in report.flags.items()}


def _coordinate(g) -> OrthogonalNet:
    return OrthogonalNet.coordinate(g.chart)


def test_net_construction_validation():
    ch = Chart.box([(0.0, 1.0)] * 2, blocks=((0,), (1,)))
    frame = [(ONE, ZERO), (ZERO, ONE)]
    with pytest.raises(ConstraintError):
        OrthogonalNet(ch, frame, ((0,),))  # fewer than two blocks
    with pytest.raises(ConstraintError):
        OrthogonalNet(ch, frame, ((0,), (1, 1)))  # not a partition
    with pytest.raises(ConstraintError):
        OrthogonalNet(ch, frame, ((0, 1), ()))  # only block 0 may be empty
    net = OrthogonalNet(ch, frame, ((), (0, 1)))
    assert net.blocks[0] == ()


def test_flag_set_polar():
    rep = classify_net(fixtures.polar(), _coordinate(fixtures.polar()), PLAN)
    assert _statuses(rep) == {k: "pass" for k in ("TP", "WP", "QW", "CQW", "CQW0", "CWP", "CP")}


def test_flag_set_twisted_control():
    g = fixtures.twisted_flat()
    rep = classify_net(g, _coordinate(g), PLAN)
    st = _statuses(rep)
    assert st == {
        "TP": "pass",
        "WP": "fail",
        "QW": "pass",
        "CQW": "pass",
        "CQW0": "pass",
        "CWP": "fail",
        "CP": "fail",
    }
    # the twist is genuinely non-separable, far outside tolerance
    assert rep.flags["CWP"].residual > 1e-3


def test_flag_set_warped_three():
    g = fixtures.warped_three()
    rep = classify_net(g, _coordinate(g), PLAN)
    st = _statuses(rep)
    assert st == {
        "TP": "pass",
        "WP": "pass",
        "QW": "pass",
        "CQW": "pass",
        "CQW0": "fail",
        "CWP": "pass",
        "CP": "fail",
    }
    assert 0.4 < rep.flags["CQW0"].residual < 0.6


def test_flag_set_quasi_warped_three():
    g = fixtures.qw_three()
    rep = classify_net(g, _coordinate(g), PLAN)
    st = _statuses(rep)
    assert st["TP"] == "pass"
    assert st["QW"] == "pass"
    assert st["CQW"] == "pass"
    assert st["WP"] == "fail"
    assert st["CWP"] == "fail"
    assert st["CP"] == "fail"


def test_flag_set_conformally_flat_sum():
    g = fixtures.exp_sum_conformal()
    rep = classify_net(g, _coordinate(g), PLAN)
    st = _statuses(rep)
    assert st == {
        "TP": "pass",
        "WP": "fail",
        "QW": "fail",
        "CQW": "pass",
        "CQW0": "pass",
        "CWP": "pass",
        "CP": "pass",
    }


def test_three_block_mean_curvature_sum():
    # H of the base block equals the sum of the complements' normals
    g = fixtures.cqw_three()
    rep = classify_net(g, _coordinate(g), PLAN)
    assert rep.flags["CQW"].status == "pass"
    assert rep.h0_sum_residual <= 1e-9


def test_h0_sum_residual_small_on_all_fixtures():
    for g in (
        fixtures.polar(),
        fixtures.twisted_flat(),
        fixtures.warped_three(),
        fixtures.exp_sum_conformal(),
        fixtures.cqw_three(),
    ):
        rep = classify_net(g, _coordinate(g), PLAN)
        assert rep.h0_sum_residual <= 1e-9


def test_flags_invariant_under_frame_change_within_blocks():
    ch = Chart.box([(0.0, 1.0)] * 3, blocks=((0,), (1, 2)))
    rho2 = parse_expr("exp(2*x0)", ch)
    g = MetricField.diagonal(ch, [ONE, rho2, rho2])
    rep_coord = classify_net(g, OrthogonalNet.coordinate(ch), PLAN)
    skew = OrthogonalNet(
        ch,
        [
            (ONE, ZERO, ZERO),
            (ZERO, ONE, ONE),
            (ZERO, const(-0.5), ONE),
        ],
        ((0,), (1, 2)),
    )
    rep_skew = classify_net(g, skew, PLAN)
    assert _statuses(rep_coord) == _statuses(rep_skew)
    assert rep_coord.flags["WP"].status == "pass"


def test_flags_invariant_under_constant_scaling():
    g = fixtures.twisted_flat()
    scaled = MetricField(
        g.chart,
        [[mul(const(3.7), e) for e in row] for row in g.entries],
    )
    a = _statuses(classify_net(g, _coordinate(g), PLAN))
    b = _statuses(classify_net(scaled, _coordinate(scaled), PLAN))
    assert a == b


# The 2+1+1 conformally twisted construction and the 3-dim conformally
# quasi-warped one of the benchmark's classify ops, with constants drawn
# from the same ranges


def _twisted4(a0, b0, p2, p3, c, q2, q3, e0, e1, e2, perm=(0, 1, 2, 3), scale=1.0):
    """The metric with its coordinates relabelled by perm (names, entries and
    blocks together) and multiplied by scale, and its coordinate net."""
    phi2 = f"exp({e0}*x0 - {e1}*x2 + {e2}*x3)^2"
    off = f"{phi2} * {c}*x0*x1"
    rows = [
        [f"{phi2} * ({a0} + x1^2)", off, "0", "0"],
        [off, f"{phi2} * ({b0} + x0^2)", "0", "0"],
        ["0", "0", f"{phi2} * ({p2} + x0^2*x2 + {q2}*x3)^2", "0"],
        ["0", "0", "0", f"{phi2} * ({p3} + x1*x3^2 + {q3}*x2)^2"],
    ]
    return _relabelled(("x0", "x1", "x2", "x3"), [(0.2, 1.2)] * 4, ((0, 1), (2,), (3,)), rows,
                       perm, scale)


def _cqw3(a, c0, c1, c2, scale=1.0):
    phi2 = f"exp({c0}*x0 + {c1}*x1 + {c2}*x2)^2"
    rows = [[phi2, "0", "0"], ["0", f"{phi2} * exp({a}*x0*x1)^2", "0"], ["0", "0", phi2]]
    return _relabelled(("x0", "x1", "x2"), [(0.0, 1.0)] * 3, ((0,), (1,), (2,)), rows,
                       (0, 1, 2), scale)


def _relabelled(names, domain, blocks, rows, perm, scale):
    n = len(rows)
    where = [perm.index(i) for i in range(n)]  # coordinate i moves to where[i]
    chart = Chart.box(domain, names=tuple(names[perm[i]] for i in range(n)))
    g = MetricField(chart, [[mul(const(scale), parse_expr(rows[perm[a]][perm[b]], chart))
                             for b in range(n)] for a in range(n)])
    return g, OrthogonalNet.coordinate(chart, tuple(tuple(where[i] for i in b) for b in blocks))


_WIDE, _NARROW, _SMALL = st.floats(1.3, 1.7), st.floats(1.2, 1.8), st.floats(0.2, 0.5)
_O5_PLAN = SamplePlan(grid=2, margin=0.1, random=4, seed=5)


@settings(max_examples=20)
@given(st.tuples(*[_WIDE] * 4, *[_SMALL] * 6))
def test_flags_invariant_under_swapping_coordinates_within_a_block(constants):
    # x0 and x1 swap inside the dense 2-dim block of the twisted construction
    g, net = _twisted4(*constants)
    h, swapped = _twisted4(*constants, perm=(1, 0, 2, 3))
    assert h.chart.names == ("x1", "x0", "x2", "x3") and swapped.blocks[0] == (1, 0)
    assert _statuses(classify_net(h, swapped, _O5_PLAN)) == _statuses(classify_net(g, net, _O5_PLAN))


@settings(max_examples=20)
@given(st.one_of(st.tuples(st.just(_twisted4), st.tuples(*[_WIDE] * 4, *[_SMALL] * 6)),
                 st.tuples(st.just(_cqw3), st.tuples(_NARROW, *[st.floats(0.3, 0.7)] * 3))),
       st.floats(0.25, 4.0))
def test_flags_invariant_under_constant_rescaling(case, c):
    # g -> c^2 g changes no flag
    make, constants = case
    g, net = make(*constants)
    h, same = make(*constants, scale=c * c)
    assert _statuses(classify_net(h, same, _O5_PLAN)) == _statuses(classify_net(g, net, _O5_PLAN))


def test_cwp_cp_statuses_conformally_invariant_seeded():
    for g in (fixtures.polar(), fixtures.twisted_flat()):
        base = classify_net(g, _coordinate(g), PLAN)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            phi = random_positive_scale(rng, g.chart)
            gs = conformal_scale(g, phi)
            rep = classify_net(gs, _coordinate(gs), PLAN)
            assert rep.flags["CWP"].status == base.flags["CWP"].status
            assert rep.flags["CP"].status == base.flags["CP"].status


def test_cross_block_orthogonality_enforced():
    ch = Chart.box([(0.0, 1.0)] * 2, blocks=((0,), (1,)))
    g = MetricField(ch, [[ONE, const(0.3)], [const(0.3), ONE]])
    with pytest.raises(ConstraintError):
        classify_net(g, OrthogonalNet.coordinate(ch), PLAN)


def test_degenerate_frame_rejected():
    g = fixtures.polar()
    net = OrthogonalNet(
        g.chart, [(ONE, ZERO), (const(2.0), ZERO)], ((0,), (1,))
    )
    with pytest.raises(DegenerateFrameError):
        classify_net(g, net, PLAN)


def test_cwp_residual_requires_umbilicity():
    # block (1, 2) of the warped three-factor metric has two distinct
    # normal curvatures, so the exchange identity must refuse to evaluate
    g = fixtures.warped_three()
    net = OrthogonalNet.coordinate(g.chart, ((1, 2), (0,)))
    with pytest.raises(NotApplicableError):
        cwp_residual(g, net, 0, (0.5, 0.5, 0.5))
    # on the correct split it evaluates to a small number
    r = cwp_residual(g, _coordinate(g), 1, (0.5, 0.5, 0.5))
    assert r <= 1e-9


def test_cwp_residual_names_a_numpy_point_by_its_floats():
    g = fixtures.warped_three()
    net = OrthogonalNet.coordinate(g.chart, ((1, 2), (0,)))
    with pytest.raises(NotApplicableError) as info:
        cwp_residual(g, net, 0, np.array([0.5, 0.5, 0.5]))
    assert str(info.value) == (
        "umbilicity preconditions fail at (0.5, 0.5, 0.5): block 5.000e-01, complement 0.000e+00")


def test_distribution_geometry_polar_closed_form():
    g = fixtures.polar()
    net = _coordinate(g)
    t = 1.5
    geom = distribution_geometry(g, net, 1, (t, 0.8))
    assert np.allclose(geom.H, [-1.0 / t, 0.0], atol=1e-12)
    assert geom.umbilicity == 0.0  # rank one is vacuously umbilical
    assert geom.sphericity <= 1e-12
    geom0 = distribution_geometry(g, net, 0, (t, 0.8))
    assert np.allclose(geom0.eta, geom.H, atol=1e-12)
    assert geom0.geodesy <= 1e-12


def test_project_splits_vectors():
    g = fixtures.exp_sum_conformal()
    net = _coordinate(g)
    p = (0.4, 0.7)
    v = np.array([0.8, -0.3])
    v0 = project(g, net, net.blocks[0], v, p)
    v1 = project(g, net, net.blocks[1], v, p)
    assert np.allclose(v0 + v1, v, atol=1e-12)


def test_report_serialization_shape():
    g = fixtures.polar()
    rep = classify_net(g, _coordinate(g), PLAN)
    d = rep.to_dict()
    assert set(d) == {"flags", "h0_sum_residual", "cp_hs0_residual", "n_samples"}
    assert set(d["flags"]) == {"TP", "WP", "QW", "CQW", "CQW0", "CWP", "CP"}
    assert d["n_samples"] == rep.n_samples
    assert all(r.shape == (2, rep.n_samples) for r in rep.residuals.values())


# --- failure order over the sample plan ----------------------------------------

# grid points in plan order: x0 = 1 for samples 0-2, 1.5 for 3-5, 2 for 6-8
ORDER_PLAN = SamplePlan(grid=3, margin=0.0, random=0)


def _diag2(g00: str, g11: str) -> MetricField:
    ch = Chart.box([(1.0, 2.0), (0.0, 1.0)], blocks=((0,), (1,)))
    return MetricField.diagonal(ch, [parse_expr(g00, ch), parse_expr(g11, ch)])


def _classify_recording(g):
    """classify_net's outcome and the condition warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = classify_net(g, _coordinate(g), ORDER_PLAN)
        except Exception as e:  # noqa: BLE001 - the outcome under test
            outcome = e
    texts = [str(w.message) for w in caught if w.category is ConditionNumberWarning]
    return outcome, texts


def _pointwise_warnings(g, samples):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for p in samples:
            metric_at(g, tuple(float(x) for x in p))
    return [str(w.message) for w in caught]


def test_domain_error_precedes_a_later_non_spd_sample():
    # the metric is positive definite up to x0 = 1.5 and not at x0 = 2
    # (sample 6); earlier samples fail evaluation in different stages
    in_field = _diag2("1.75 - x0", "1 + sqrt(x0 - 1)")  # d/dx0 at x0 = 1
    outcome, _ = _classify_recording(in_field)
    assert isinstance(outcome, EvalDomainError)
    assert outcome.subexpr == "1/(2*sqrt(x0 - 1))"

    in_metric = _diag2("1.75 - x0", "1 + log(x0 - 1.2)^2")  # samples 0-2
    outcome, _ = _classify_recording(in_metric)
    assert isinstance(outcome, EvalDomainError)
    assert outcome.subexpr == "log(x0 - 1.2)"

    # and the other way round: the first failing sample decides
    outcome, _ = _classify_recording(_diag2("x0 - 1.25", "1 + sqrt(2 - x0)"))
    assert isinstance(outcome, NotSPDError)
    assert "at (1.0, 0.0)" in str(outcome)


def test_metric_checks_run_over_all_samples_before_the_net_checks():
    # the blocks are not orthogonal at sample 0, (1.0, 0.0), and the metric is
    # not positive definite from sample 6, (2.0, 0.0): the metric's checks
    # run over every sample first, so the later sample decides
    ch = Chart.box([(1.0, 2.0), (0.0, 1.0)], blocks=((0,), (1,)))
    g = MetricField(ch, [[parse_expr("1.75 - x0", ch), const(0.1)], [const(0.1), ONE]])
    outcome, texts = _classify_recording(g)
    assert isinstance(outcome, NotSPDError)
    assert str(outcome) == "metric not positive definite at (2.0, 0.0): smallest eigenvalue -2.579e-01"
    assert texts == []

    # where the metric passes everywhere, every ill-conditioned sample warns
    # before the net's check raises at sample 0
    g = MetricField(ch, [[ONE, parse_expr("1e-6*(1.5 - x0)", ch)], [ZERO, parse_expr("1e-9*x0", ch)]])
    outcome, texts = _classify_recording(g)
    assert isinstance(outcome, ConstraintError)
    assert str(outcome).startswith("blocks not orthogonal at (1.0, 0.0): ")
    assert len(texts) == 9
    assert texts == _pointwise_warnings(g, sample_points(ch, ORDER_PLAN))


def test_condition_warnings_once_each_in_plan_order():
    g = _diag2("1", "1e-9*(1 + x0*x1)")
    outcome, texts = _classify_recording(g)
    assert isinstance(outcome, NetReport)
    samples = sample_points(g.chart, ORDER_PLAN)
    assert len(texts) == len(samples) == 9
    assert texts == _pointwise_warnings(g, samples)


def test_condition_warnings_name_the_caller():
    g = _diag2("1", "1e-9*(1 + x0*x1)")
    p = (1.5, 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        classify_net(g, _coordinate(g), ORDER_PLAN)
        distribution_geometry(g, _coordinate(g), 1, p)
        cwp_residual(g, _coordinate(g), 1, p)
    assert len(caught) == 11
    assert {w.filename for w in caught} == {__file__}


def test_condition_warnings_stop_at_the_failing_sample():
    # ill-conditioned at samples 0-5, not positive definite from sample 6
    g = _diag2("1.75 - x0", "1e-9*(1 + x1)")
    outcome, texts = _classify_recording(g)
    assert isinstance(outcome, NotSPDError)
    samples = sample_points(g.chart, ORDER_PLAN)
    assert texts == _pointwise_warnings(g, samples[:6])

    # a failure after the metric check at sample 0 keeps that sample's warning
    g = _diag2("1", "1e-9*(1 + sqrt(x0 - 1))")
    outcome, texts = _classify_recording(g)
    assert isinstance(outcome, EvalDomainError)
    assert texts == _pointwise_warnings(g, samples[:1])


def test_ill_conditioned_geodesy_keeps_rounding_at_the_scale_of_k():
    # on diag(1, 1e-9 (1 + x0 x1)) the mean curvature normal of block 1
    # vanishes at x1 = 0, but H = (I - R g) K / r cancels the tangential part
    # of K, so the geodesy residual there reads 1.88e-12 (x0 = 1) and 3.77e-12
    # (x0 = 1.5, 2) instead of 0; the slack is bounded at 1e-11
    g = _diag2("1", "1e-9*(1 + x0*x1)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionNumberWarning)
        rep = classify_net(g, _coordinate(g), ORDER_PLAN)
        pts = sample_points(g.chart, ORDER_PLAN)
        at = pts[:, 1] == 0.0
        assert rep.residuals["geodesy"][1][at].max() <= 1e-11
        for x0, x1 in pts[at]:
            # Gamma^1_11 = x0 / (2 (1 + x0 x1)) is the only one not zero at x1 = 0
            want = np.zeros((2, 2, 2))
            want[1, 1, 1] = x0 / 2.0
            assert np.allclose(christoffel(g, (x0, x1)), want, rtol=1e-12, atol=0.0)
        # compatibility and torsion measure 4.1e-25 and 6.1e-21 at most
        assert max(max(lc_axiom_residuals(g, tuple(p))) for p in pts) <= 1e-16


# --- samples whose jets are not finite ---------------------------------------------

# where an entry evaluates but its jet is not finite, the diff trees of the
# entries give the jet or raise their error at the field stage


@pytest.mark.parametrize("blocks", [((0,), (1,), (2,)), ((0,), (1, 2))])
def test_singular_partial_of_h_raises_the_pointwise_error(blocks):
    # d_1 H reads (x1 - 0.5)^-0.5, which fails at x1 = 0.5 (sample 0)
    ch = Chart.box([(0.5, 1.5)] * 3, blocks=blocks)
    g = MetricField.diagonal(
        ch, [parse_expr(t, ch) for t in ("1", "1 + (x1 - 0.5)^1.5", "1 + x0^2")]
    )
    with pytest.raises(EvalDomainError) as raised:
        classify_net(g, OrthogonalNet.coordinate(ch), ORDER_PLAN)
    assert str(raised.value) == "zero raised to a negative power: (x1 - 0.5)^-0.5"
    assert raised.value.subexpr == "(x1 - 0.5)^-0.5"


def test_metric_that_is_not_twice_differentiable_raises_the_diff_tree_error():
    # d_0 d_0 g_11 reads (x0 - 1)^-0.5, which fails at x0 = 1 (sample 0): the
    # metric is not C^2 there, although block 1, spanned by d/dx1, reads no
    # d_0 H
    g = _diag2("1", "1 + (x0 - 1)^1.5")
    outcome, texts = _classify_recording(g)
    assert isinstance(outcome, EvalDomainError)
    assert str(outcome) == "zero raised to a negative power: (x0 - 1)^-0.5"
    assert texts == []


def test_jet_of_a_folded_zero_is_repaired_from_the_diff_trees():
    # the jet of sqrt(x1 - x1) is inf * 0 at every sample, but its diff trees
    # fold to zero, so the report is that of the metric without the term
    ch = fixtures.warped_three().chart
    reports = [
        classify_net(
            MetricField.diagonal(ch, [parse_expr(t, ch) for t in ("1", g11, "exp(4*x0)")]),
            OrthogonalNet.coordinate(ch, ((0,), (1,), (2,))),
            PLAN,
        ).to_dict()
        for g11 in ("exp(2*x0) + sqrt(x1 - x1)", "exp(2*x0)")
    ]
    assert reports[0] == reports[1]


def test_constant_frame_stays_off_the_jet_tape():
    # the tape of a coordinate net holds the metric's upper triangle only, and
    # F is the frame broadcast over the samples
    g = fixtures.warped_three()
    pts = sample_points(g.chart, PLAN)
    samples = nets._net_samples(g, _coordinate(g), range(3), pts)
    assert len(samples.sweep.tape.root_slots) == 6
    assert samples.geo.F.shape == (len(pts), 3, 3)
    assert (samples.geo.F == np.eye(3)).all()


def test_non_finite_residual_raises(monkeypatch):
    # the sphericity of span (1,) is not finite at sample 2
    geometry = nets._geometry

    def poisoned(*args):
        geo = geometry(*args)
        geo.res[nets._RESIDUALS.index("sphericity"), geo.spans.index((1,)), 2] = np.nan
        return geo

    monkeypatch.setattr(nets, "_geometry", poisoned)
    g = fixtures.polar()
    with pytest.raises(InconsistencyError, match=r"^WP residual is nan at \(") as raised:
        classify_net(g, _coordinate(g), PLAN)
    label = tuple(float(x) for x in sample_points(g.chart, PLAN)[2])
    assert str(label) in str(raised.value)


def test_non_finite_derived_value_raises_at_the_field_stage(monkeypatch):
    # the entries' jets are finite, but nabla H of span (1,) is not at sample
    # 3 and H of span (2,) at sample 1: the first such sample raises, naming
    # the quantity, the span and the sample
    geometry = nets._geometry

    def poisoned(*args):
        geo = geometry(*args)
        geo.covH[3, geo.spans.index((1,))] = np.nan
        geo.H[1, geo.spans.index((2,)), 0] = -np.inf
        return geo

    monkeypatch.setattr(nets, "_geometry", poisoned)
    g = fixtures.cqw_three()
    with pytest.raises(InconsistencyError) as raised:
        classify_net(g, _coordinate(g), PLAN)
    label = tuple(sample_points(g.chart, PLAN)[1].tolist())
    assert str(raised.value) == f"H of span (2,) is -inf at {label}; derived values must be finite"


def test_cwp_residual_refuses_an_umbilicity_that_is_not_finite(monkeypatch):
    # a nan umbilicity fails the precondition instead of admitting the
    # exchange identity
    geometry = nets._geometry

    def poisoned(*args):
        geo = geometry(*args)
        geo.res[nets._RESIDUALS.index("umbilicity"), geo.spans.index((1,))] = np.nan
        return geo

    monkeypatch.setattr(nets, "_geometry", poisoned)
    g = fixtures.warped_three()
    with pytest.raises(NotApplicableError, match=r"^umbilicity preconditions fail .*: block nan,"):
        cwp_residual(g, _coordinate(g), 1, (0.5, 0.5, 0.5))


def _twisted_four():
    # a conformally scaled 2+1+1 twisted product: a dense 2 x 2 block in
    # (x0, x1) and two lines whose twists depend on the other blocks
    ch = Chart.box([(0.2, 1.2)] * 4, names=("x0", "x1", "x2", "x3"), blocks=((0, 1), (2,), (3,)))
    phi2 = "exp(0.3*x0 - 0.4*x2 + 0.2*x3)^2"
    off = f"{phi2} * 0.3*x0*x1"
    rows = [
        [f"{phi2} * (1.5 + x1^2)", off, "0", "0"],
        [off, f"{phi2} * (1.4 + x0^2)", "0", "0"],
        ["0", "0", f"{phi2} * (1.6 + x0^2*x2 + 0.3*x3)^2", "0"],
        ["0", "0", "0", f"{phi2} * (1.3 + x1*x3^2 + 0.4*x2)^2"],
    ]
    return MetricField(ch, [[parse_expr(t, ch) for t in row] for row in rows])


def _stacked_and_alone(g, net):
    """The geometry of every span of the net's blocks and complements in
    one stacked pass, and that of each span alone, from the same jets."""
    pts = sample_points(g.chart, PLAN)
    roots = nets._frame_roots(net)
    metric, _, sweep = chart_calculus._jets(g, roots, pts)
    jets = sweep.jets[:, :, len(sweep.tape.root_slots) - len(roots):] if roots else None
    spans = list(dict.fromkeys(
        s for i in range(len(net.blocks)) for s in (net.blocks[i], net.complement(i))))
    with np.errstate(all="ignore"):
        return (nets._geometry(metric, jets, spans),
                [nets._geometry(metric, jets, [s]) for s in spans])


@pytest.mark.parametrize(
    "make, ranks",
    [
        (lambda: (fixtures.cqw_three(), _coordinate(fixtures.cqw_three())), {1, 2}),
        (lambda: (_twisted_four(), _coordinate(_twisted_four())), {1, 2, 3}),
        (lambda: _skew_net(), {1, 2}),
    ],
    ids=["cqw_three", "twisted_four", "skew_warped_three"],
)
def test_stacked_pass_matches_each_span_alone(make, ranks):
    # H, dH, nabla H, the defects and brackets and the four residuals of
    # each span are the same whether the span is stacked with the others or
    # computed alone; the moving frame exercises the brackets and the terms
    # with a frame partial
    def same(a, b):
        # within 1e-15 of the quantity's largest magnitude, or of 1 where
        # that is smaller: the two passes take their sums over products of
        # different shapes, so an entry formed by cancellation, or one that
        # is rounding noise about 0, may differ in its last bits
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15 * max(1.0, np.abs(b).max(initial=0.0)))

    g, net = make()
    stacked, alone = _stacked_and_alone(g, net)
    assert set(stacked.index.rank.tolist()) == ranks
    assert (stacked.brackets is None) == net.is_coordinate
    for t, single in enumerate(alone):
        assert single.spans == (stacked.spans[t],)
        for a, b in zip(stacked.span_values(t), single.span_values(0)):
            same(a, b)
        for a, b in zip(stacked.res[:, t], single.res[:, 0]):
            same(a, b)
    if not net.is_coordinate:
        t = stacked.spans.index((1, 2))
        assert np.abs(stacked.span_values(t)[4]).max() > 1e-3  # a bracket leaves the block


@pytest.mark.parametrize(
    "make", [fixtures.cqw_three, lambda: _twisted_four(), fixtures.warped_three],
    ids=["cqw_three", "twisted_four", "warped_three"],
)
def test_coordinate_frame_matches_the_taped_identity_frame(make):
    # the coordinate branch of _geometry forms the geometry without frame
    # algebra; the taped branch, fed the jets of the identity frame's
    # entries, must give the same H, partials, nabla H, defects and
    # residuals, and brackets that vanish
    g = make()
    net = _coordinate(g)
    entries = [e for f in net.frame for e in f]
    metric, jets, _ = chart_calculus._jets(g, entries, sample_points(g.chart, PLAN))
    spans = list(dict.fromkeys(
        s for i in range(len(net.blocks)) for s in (net.blocks[i], net.complement(i))))
    with np.errstate(all="ignore"):
        coordinate = nets._geometry(metric, None, spans)
        taped = nets._geometry(metric, jets, spans)
    for name in ("H", "dH", "covH", "defects", "res"):
        a, b = getattr(coordinate, name), getattr(taped, name)
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15 * np.abs(b).max(initial=0.0), err_msg=name)
    assert coordinate.brackets is None and not taped.brackets.any()
    assert (coordinate.M == metric[0]).all()


def test_a_field_outside_the_span_does_not_spoil_its_nabla_h():
    # Gamma^0_{0j} = 1e308 overflows Gamma(e_0, H) of span (1,), whose H has
    # H^0 = -10, so nabla_{X_0} H is not finite; X_0 lies outside the span,
    # and in the coordinate frame nothing carries it into the span's own
    # values: they and the residuals stay as they were. A product with the
    # identity frame (the taped branch) spreads it over every field.
    ch = Chart.box([(0.0, 1.0)] * 2, blocks=((0,), (1,)))
    g = MetricField.diagonal(ch, [ONE, parse_expr("exp(20*x0)", ch)])
    net = _coordinate(g)
    metric, jets, _ = chart_calculus._jets(
        g, [e for f in net.frame for e in f], sample_points(ch, PLAN))
    poisoned = list(metric)
    poisoned[3] = metric[3].copy()
    poisoned[3][:, 0, 0, :] = 1e308
    with np.errstate(all="ignore"):
        clean = nets._geometry(metric, None, [(1,)])
        geo = nets._geometry(tuple(poisoned), None, [(1,)])
        taped = nets._geometry(tuple(poisoned), jets, [(1,)])
        assert np.isneginf(geo.covH[:, 0, 0, 0]).all()
        assert all(np.isfinite(a).all() for a in geo.span_values(0))
        assert nets._finite(geo.derived()).all()
        assert (geo.res == clean.res).all()
        assert not nets._finite(taped.derived()).any()


def test_a_constant_frame_other_than_the_coordinate_one_is_taped():
    # the skew constant frame of
    # test_flags_invariant_under_frame_change_within_blocks goes on the jet
    # tape with the metric: 6 entries of its upper triangle and 9 of the
    # frame; its verdicts stay those of the coordinate net
    ch = Chart.box([(0.0, 1.0)] * 3, blocks=((0,), (1, 2)))
    rho2 = parse_expr("exp(2*x0)", ch)
    g = MetricField.diagonal(ch, [ONE, rho2, rho2])
    skew = OrthogonalNet(ch, [(ONE, ZERO, ZERO), (ZERO, ONE, ONE), (ZERO, const(-0.5), ONE)],
                         ((0,), (1, 2)))
    assert len(nets._frame_roots(skew)) == 9 and nets._frame_roots(OrthogonalNet.coordinate(ch)) == []
    samples = nets._net_samples(g, skew, range(2), sample_points(ch, PLAN))
    assert len(samples.sweep.tape.root_slots) == 6 + 9
    assert samples.geo.brackets is not None
    assert _statuses(classify_net(g, skew, PLAN)) == dict.fromkeys(nets.FLAG_NAMES, "pass")


def test_one_inverse_per_span_rank(monkeypatch):
    # the Gram matrices of all spans of one rank are inverted together
    shapes = []
    inv = nets._inv

    def spy(A):
        shapes.append(A.shape[1:])
        return inv(A)

    monkeypatch.setattr(nets, "_inv", spy)
    g = fixtures.cqw_three()
    classify_net(g, _coordinate(g), PLAN)
    assert shapes == [(3, 1, 1), (3, 2, 2)]  # blocks (0,), (1,), (2,) and their complements
    shapes.clear()
    g = _twisted_four()
    classify_net(g, _coordinate(g), PLAN)
    assert shapes == [(2, 1, 1), (2, 2, 2), (2, 3, 3)]


def test_values_outside_a_span_are_not_checked(monkeypatch):
    # nabla_{X_a} H is formed for every frame field, but only the fields of
    # the span are checked for being finite
    geometry = nets._geometry

    def poisoned(*args):
        geo = geometry(*args)
        geo.covH[:, :, geo.spans.index((1,)), 0] = np.nan
        return geo

    g = fixtures.cqw_three()
    want = classify_net(g, _coordinate(g), PLAN).to_dict()
    monkeypatch.setattr(nets, "_geometry", poisoned)
    assert classify_net(g, _coordinate(g), PLAN).to_dict() == want


def test_classify_tape_stays_small(monkeypatch):
    # a clean run tapes only the metric and frame entries, whose jet sweep
    # gives their partials; the tape of H, the defects, the brackets and the
    # Christoffel symbols took 203 slots, and the entries with their diff
    # trees 65; the one tape is that of the checked sweep (chart_calculus._jets)
    assert not hasattr(nets, "_SpanFields")
    sizes = []
    compile_tape = chart_calculus.compile_tape

    def spy(roots):
        tape = compile_tape(roots)
        sizes.append(tape.size)
        return tape

    monkeypatch.setattr(chart_calculus, "compile_tape", spy)
    g = fixtures.cqw_three()
    classify_net(g, _coordinate(g), PLAN)
    assert len(sizes) == 1
    assert sizes[0] <= 13


def _conformal_pair():
    cand = fixtures.conformal_product_pair()
    return cand.metric, cand.tensor


@pytest.mark.parametrize(
    "make, h, bound",
    [(fixtures.torus, const(1.0), 25), (_conformal_pair, None, 24)],
    ids=["torus", "conformal_pair"],
)
def test_codazzi_reads_the_eigen_net_jets_once(monkeypatch, make, h, bound):
    # a clean classify_codazzi sweeps the eigen-net's jets once, for both the
    # identities and the net classification, on the criteria's one tape of
    # lambda, mu, h and the frame entries; the eigen-net takes the metric's
    # jets from the first sweep, so no metric tape is compiled for it (nets
    # compiles none, and chart_calculus none within the criteria). The criteria
    # tape took 205 (torus) and 424 (pair) slots when it held eta, zeta, their
    # partials and the Christoffel symbols, 101 and 120 when it held the
    # partials of alpha and beta, 88 and 93 when it held the diff trees of
    # lambda and mu, and 17 when it held lambda, mu and h alone; the
    # eigen-net's own tape of the metric and the frame then took 26 and 28, and
    # 139 and 213 with their diff trees
    assert not hasattr(nets, "_SpanFields")
    jets, criteria, public = [], [], []
    checked_compile, codazzi_compile = chart_calculus.compile_tape, codazzi.compile_tape
    scores = codazzi._criteria

    def jet_compile(roots):
        tape = checked_compile(roots)
        jets.append(tape.size)
        return tape

    def criteria_compile(roots):
        tape = codazzi_compile(roots)
        criteria.append(tape.size)
        return tape

    def criteria_spy(*args, **kwargs):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(codazzi, "compile_tape", criteria_compile)
            inner.setattr(chart_calculus, "compile_tape", jet_compile)
            return scores(*args, **kwargs)

    for module in (nets, codazzi):
        monkeypatch.setattr(module, "classify_net", lambda *args: public.append(args), raising=False)
    monkeypatch.setattr(codazzi, "_criteria", criteria_spy)
    g, phi = make()
    rep = codazzi.classify_codazzi(g, phi, h=h, plan=SamplePlan(grid=6, seed=1))
    assert rep.flags["spherical_eigenbundles"].status == "pass"
    assert public == []
    assert not hasattr(nets, "compile_tape") and jets == []
    assert len(criteria) == 1 and criteria[0] <= bound


# --- jets against the sympy oracle on moving frames ------------------------------

# each case names the FORMS entry of tests/test_sympy_oracle.py with its
# metric and points; its maker gives the frame in sympy, as rows in those
# coordinates, and the net's samples at the points


def _rotated_polar(sp, xs, pts):
    # an orthonormal frame of the polar metric turned by the angle t*theta
    g = fixtures.polar()
    c, s, ct, st = (
        parse_expr(t, g.chart)
        for t in ("cos(t*theta)", "sin(t*theta)", "cos(t*theta)/t", "sin(t*theta)/t")
    )
    net = OrthogonalNet(g.chart, [(c, st), (mul(const(-1.0), s), ct)], ((0,), (1,)))
    t, th = xs
    frame = [[sp.cos(t * th), sp.sin(t * th) / t], [-sp.sin(t * th), sp.cos(t * th) / t]]
    return frame, nets._net_samples(g, net, range(2), pts)


def _skew_net():
    # block (1, 2) is spanned by d/dx1 and x1 d/dx0 + d/dx2, whose bracket
    # d/dx0 leaves it: a moving frame of a distribution that is not integrable
    g = fixtures.warped_three()
    ch = g.chart
    net = OrthogonalNet(ch, [
        (parse_expr("exp(4*x0)", ch), ZERO, parse_expr("-x1", ch)),
        (ZERO, ONE, ZERO),
        (parse_expr("x1", ch), ZERO, ONE),
    ], ((0,), (1, 2)))
    return g, net


def _skew_warped_three(sp, xs, pts):
    g, net = _skew_net()
    x0, x1, _ = xs
    frame = [[sp.exp(4 * x0), 0, -x1], [0, 1, 0], [x1, 0, 1]]
    return frame, nets._net_samples(g, net, range(2), pts)


def _eigen_net(make):
    # both pairs are diagonal with lambda on the first axis, and the eigen-net
    # frame, read off the spectral projectors, is the coordinate frame
    def build(sp, xs, pts):
        made = make()
        g, phi = (made.metric, made.tensor) if hasattr(made, "metric") else made
        fields = codazzi._metric_tensor(g, phi, pts, 1e-8, codazzi=True)
        eig, model = codazzi._eigen_model(g, phi, fields, codazzi.GAP_MIN)
        samples = codazzi._criteria(fields, eig, model, codazzi.GAP_MIN)[1]
        return sp.eye(len(xs)).tolist(), samples

    return build


@pytest.mark.parametrize(
    "form, make",
    [
        ("torus", _eigen_net(fixtures.torus)),
        ("conformal_product_pair", _eigen_net(fixtures.conformal_product_pair)),
        ("polar", _rotated_polar),
        ("warped_three", _skew_warped_three),
    ],
    ids=["torus_eigen", "conformal_pair_eigen", "rotated_polar", "skew_warped_three"],
)
def test_jet_geometry_matches_symbolic_trees_on_moving_frames(form, make):
    sp = pytest.importorskip("sympy")
    from test_sympy_oracle import FORMS, _close, _exact, _gamma, _residuals, _span, _span_at

    _, xs, gm, points = FORMS[form]
    n = len(xs)
    frame, samples = make(sp, xs, np.array(points, dtype=float))
    assert not samples.net.is_coordinate
    gamma = _gamma(gm, xs)
    metric, frame_at = _exact(xs, list(gm)), _exact(xs, [c for row in frame for c in row])
    geo = samples.geo
    umbilicity, integrability = (geo.res[nets._RESIDUALS.index(k)]
                                 for k in ("umbilicity", "integrability"))
    spans = {s: _span_at(xs, _span(gm, xs, gamma, [frame[a] for a in s]))
             for s in geo.spans if s}
    for j, p in enumerate(points):
        G, F = metric(p).reshape(n, n), frame_at(p).reshape(n, n)
        _close(geo.F[j], F)
        for s, values in spans.items():
            t = geo.spans.index(s)
            H, covH, defects, brackets = values(p)
            other = [k for k in range(n) if k not in s]
            umb, _, _, integ = _residuals(G, F, s, other, H, covH, defects, brackets)
            _close(geo.H[j, t], H)
            _close(geo.span_values(t)[2][j], covH)
            _close([umbilicity[t, j], integrability[t, j]], [umb, integ])
    if samples.net.blocks[1] == (1, 2):
        t = geo.spans.index((1, 2))
        assert integrability[t].min() > 1e-3
        assert umbilicity[t].max() > 1e-3


def test_status_boundaries():
    # pass up to tol, inconclusive above it up to 10 tol, fail beyond
    tol = 1e-8
    cases = [(tol, "pass"), (np.nextafter(tol, np.inf), "inconclusive"),
             (10 * tol, "inconclusive"), (np.nextafter(10 * tol, np.inf), "fail")]
    assert [nets._status(r, tol) for r, _ in cases] == [want for _, want in cases]
