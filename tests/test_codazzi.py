"""Two-eigenvalue Codazzi tensor analysis: pointwise eigenstructure, identity
residuals, grid classification, and the canonical constructions."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import off_diagonal, random_expr, random_point
from test_golden import _compare
from orthonet import chart_calculus, codazzi, fixtures, nets, scalar_fields
from orthonet.chart_calculus import MetricField, hessian_lc, metric_at
from orthonet.cli import load_manifest
from orthonet.codazzi import (
    CodazziCandidate,
    SymTensorField,
    _hess,
    build_codazzi_candidate,
    classify_codazzi,
    codazzi_residual,
    criteria_residuals,
    eigen_two,
    self_adjoint_defect,
)
from orthonet.errors import (
    CoalescenceError,
    ConditionNumberWarning,
    ConstraintError,
    EvalDomainError,
    InconsistencyError,
    NotCodazziError,
    NotSPDError,
)
from orthonet.fixtures import (
    conformal_product_pair,
    euclidean,
    polar_cone,
    torus,
)
from orthonet.nets import OrthogonalNet, distribution_geometry
from orthonet.product_metrics import FactorSpec, conformal_scale
from orthonet.sampling import SamplePlan, sample_points
from orthonet.scalar_fields import (
    Chart,
    Tape,
    ONE,
    ZERO,
    add,
    compile_tape,
    const,
    diff,
    evaluate,
    format_expr,
    parse_expr,
    sub,
    var,
)

PLAN = SamplePlan(grid=4, margin=0.1, random=6, seed=3)
P_TORUS = (np.pi / 3, 0.0)


def test_tensor_validation():
    g = euclidean(2)
    chart = g.chart
    with pytest.raises(ConstraintError, match="dim x dim"):
        SymTensorField(chart, [[ONE, ZERO]])
    with pytest.raises(ConstraintError, match="outside the chart"):
        SymTensorField.diagonal(chart, [var(2), ONE])
    with pytest.raises(ConstraintError, match="one diagonal entry"):
        SymTensorField.diagonal(chart, [ONE])
    with pytest.raises(ConstraintError, match="dimensions differ"):
        SymTensorField.diagonal(euclidean(3).chart, [ONE, ONE, ONE], metric=g)
    # g = diag(1, t^2) makes the component matrix [[0, 1], [1, 0]] non-self-adjoint
    gp = MetricField.diagonal(
        Chart.box([(0.5, 2.5), (0.0, 2.0)], names=("t", "theta")),
        [ONE, parse_expr("t^2", Chart.box([(0.5, 2.5), (0.0, 2.0)], names=("t", "theta")))],
    )
    with pytest.raises(ConstraintError, match="not self-adjoint"):
        SymTensorField(gp.chart, [[ZERO, ONE], [ONE, ZERO]], metric=gp)


def test_self_adjoint_defect_vanishes_for_diagonal_pairs():
    g, phi = torus()
    for p in [(0.1, 0.3), P_TORUS, (1.3, 1.9)]:
        assert self_adjoint_defect(g, phi, p) <= 1e-15


def test_codazzi_residual_torus_pointwise():
    g, phi = torus()
    assert codazzi_residual(g, phi, P_TORUS) <= 1e-14
    assert codazzi_residual(g, phi, (0.9, 1.7)) <= 1e-14


def test_codazzi_residual_rejects_non_self_adjoint_input():
    g, _ = polar_cone()
    # constructed without a metric reference, so the check lands at call time
    lopsided = SymTensorField(g.chart, [[ZERO, ONE], [ZERO, ZERO]])
    with pytest.raises(ConstraintError, match="not self-adjoint"):
        codazzi_residual(g, lopsided, (1.0, 0.5))


def test_eigen_two_torus_point():
    g, phi = torus()
    pair = eigen_two(g, phi, P_TORUS)
    # shape operator of the (2, 1) torus: 1 on the meridian, 0.2 at u = pi/3
    assert abs(pair.lam - 1.0) <= 1e-10
    assert abs(pair.mu - 0.2) <= 1e-10
    assert abs(pair.gap - 0.8) <= 1e-10
    assert pair.rank_lambda == 1 and pair.rank_mu == 1
    assert pair.invariance_residual <= 1e-12
    G, _ = metric_at(g, P_TORUS)
    for v in pair.basis_lambda + pair.basis_mu:
        assert abs(float(v @ G @ v) - 1.0) <= 1e-12
    # lambda is labeled by the u-direction, so its basis vector rides axis 0
    assert abs(pair.basis_lambda[0][0]) > abs(pair.basis_lambda[0][1])


def test_eigen_two_coalescence():
    g = euclidean(2)
    ident = SymTensorField.diagonal(g.chart, [ONE, ONE], metric=g)
    with pytest.raises(CoalescenceError):
        eigen_two(g, ident, (0.5, 0.5))
    gt, pht = torus()
    with pytest.raises(CoalescenceError):
        eigen_two(gt, pht, P_TORUS, gap_min=1.0)


def test_eigen_two_names_a_numpy_point_by_its_floats():
    g = euclidean(2)
    ident = SymTensorField.diagonal(g.chart, [ONE, ONE], metric=g)
    with pytest.raises(CoalescenceError) as info:
        eigen_two(g, ident, np.array([-0.5, 0.5]))
    assert str(info.value) == "eigenvalues coalesce at (-0.5, 0.5): spread 0.000e+00"


def test_eigen_two_splits_just_above_gap_min():
    g = euclidean(2)
    for factor in (1.001, 0.999):
        phi = SymTensorField.diagonal(
            g.chart, [ONE, const(1.0 + factor * codazzi.GAP_MIN)], metric=g
        )
        if factor > 1.0:
            assert eigen_two(g, phi, (0.5, 0.5)).gap == pytest.approx(factor * codazzi.GAP_MIN)
        else:
            with pytest.raises(CoalescenceError, match="coalesce at"):
                eigen_two(g, phi, (0.5, 0.5))


def test_classify_on_a_chart_through_the_polar_origin_is_not_spd():
    # the stacked Cholesky factorization never sees the singular sample
    chart = Chart.box([(0.0, 1.0), (0.0, 2.0)], names=("t", "theta"))
    g = MetricField.diagonal(chart, [ONE, parse_expr("t^2", chart)])
    phi = SymTensorField.diagonal(chart, [ONE, const(2.0)], metric=g)
    with pytest.raises(NotSPDError, match=r"not positive definite at \(0\.0, 0\.0\)"):
        classify_codazzi(g, phi, plan=SamplePlan(grid=3, margin=0.0, random=0))


@settings(max_examples=60)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**16), log_cond=st.floats(0.0, 8.0))
def test_stacked_eigensolve_on_random_spd_pencils(n, seed, log_cond):
    # three pencils (S, G) per call, G with condition number 10^log_cond
    rng = np.random.default_rng(seed)
    m = 3
    Q = np.linalg.qr(rng.standard_normal((m, n, n)))[0]
    d = 10.0 ** (log_cond * np.concatenate([[0.0], rng.random(n - 2), [1.0]]))
    G = (Q * d) @ Q.swapaxes(1, 2)
    G = 0.5 * (G + G.swapaxes(1, 2))
    A = rng.standard_normal((m, n, n))
    P = np.linalg.solve(G, A + A.swapaxes(1, 2))
    eig = codazzi._Eigen(G, P, codazzi.GAP_MIN)
    for j in range(m):
        w, V = eig.w[j], eig.V[j]
        S = G[j] @ P[j]
        S = 0.5 * (S + S.T)
        vnorm = np.linalg.norm(V)
        gnorm = np.linalg.norm(G[j])
        res = np.linalg.norm(S @ V - G[j] @ V * w)
        assert res <= 1e-12 * (np.linalg.norm(S) + gnorm * np.max(np.abs(w))) * vnorm
        assert np.linalg.norm(V.T @ G[j] @ V - np.eye(n)) <= 1e-12 * gnorm * vnorm**2
        assert np.all(np.diff(w) >= 0.0)


def test_pivots_take_the_largest_remaining_column():
    # a 0/1 projector: its nonzero columns, the lowest indices on a tie
    assert codazzi._pivots(np.diag([0.0, 1.0, 0.0, 1.0]), 2) == [1, 3]
    assert sorted(codazzi._pivots(np.diag([1.0, 1.0, 0.0, 1.0]), 2)) == [0, 1]
    # the oblique rank-2 projector I - v w^T, v = (-2, -2, -1), w = (-3, 1, 3):
    # column 2 leads (norm^2 88); against it columns 0 and 1 keep
    # 70 - 78^2/88 = 19/22 and 14 - 34^2/88 = 19/22, a tie that goes to
    # column 0 though rounding leaves column 1 an ulp ahead
    v, w = np.array([-2.0, -2.0, -1.0]), np.array([-3.0, 1.0, 3.0])
    assert codazzi._pivots(np.eye(3) - np.outer(v, w), 2) == [2, 0]
    # v = (-2, -2, -1), w = (-2, 1, 1): column 0 (norm^2 29) leads; against
    # it column 1 (norm^2 14) keeps 14 - 20^2/29 = 6/29 and column 2
    # (norm^2 12) keeps 12 - 18^2/29 = 24/29
    v, w = np.array([-2.0, -2.0, -1.0]), np.array([-2.0, 1.0, 1.0])
    assert codazzi._pivots(np.eye(3) - np.outer(v, w), 2) == [0, 2]


def test_criteria_residuals_torus_point():
    g, phi = torus()
    rec = criteria_residuals(g, phi, P_TORUS)
    assert abs(rec.lam - 1.0) <= 1e-10
    assert abs(rec.mu - 0.2) <= 1e-10
    for key in ("mean_curvature", "conformal_product", "mu_spherical",
                "lambda_spherical", "eta_two_path", "zeta_two_path"):
        val = getattr(rec, key)
        assert val is not None and val <= 1e-12, (key, val)
    d = rec.to_dict()
    assert set(d) == {"lam", "mu", "mean_curvature", "conformal_product",
                      "mu_spherical", "lambda_spherical", "eta_two_path",
                      "zeta_two_path"}


def test_parallel_circle_mean_curvature_closed_form():
    # the v-circle distribution has H = (sin u / (2 + cos u)) d/du
    g, _ = torus()
    net = OrthogonalNet.coordinate(g.chart)
    for u in (0.3, np.pi / 3, 1.2):
        geom = distribution_geometry(g, net, 1, (u, 0.4))
        want = np.sin(u) / (2.0 + np.cos(u))
        assert abs(geom.H[0] - want) <= 1e-12
        assert abs(geom.H[1]) <= 1e-12


def test_classify_torus_warped_rank_one():
    g, phi = torus()
    rep = classify_codazzi(g, phi, h=const(1.0), plan=PLAN)
    assert rep.relation_case == "warped_rank_one"
    assert (rep.rank_lambda, rep.rank_mu) == (1, 1)
    assert rep.codazzi_residual <= 1e-10
    assert rep.warping_ode_residual <= 1e-9
    assert rep.warping_axis == 0
    assert rep.base_point == (0.7, 1.0)
    assert rep.flags["conformal_product"].status == "pass"
    assert rep.flags["spherical_eigenbundles"].status == "pass"
    assert rep.net_report.flags["WP"].status == "pass"
    for key in ("mean_curvature", "eta_two_path", "zeta_two_path"):
        assert rep.residuals[key] <= 1e-9
    # recovered warping: mu = 1 - 2 / sigma with sigma(0.7) = 2 + cos 0.7
    sig0 = 2.0 + np.cos(0.7)
    for s in rep.warping_samples:
        assert abs(s["mu_tilde"] - (1.0 - 2.0 / (s["sigma_ratio"] * sig0))) <= 1e-9


def test_classify_polar_cone_vanishing_eigenvalue():
    g, phi = polar_cone()
    rep = classify_codazzi(g, phi, h=ZERO, plan=PLAN)
    assert rep.relation_case == "warped_rank_one"
    assert rep.warping_ode_residual <= 1e-9
    assert rep.warping_axis == 0
    assert rep.base_point == (1.5, 1.0)
    assert abs(rep.eigen_samples[0]["lam"]) <= 1e-12
    # mu = 1 / t against the determinant-recovered sigma normalized at t = 1.5
    for s in rep.warping_samples:
        assert abs(s["mu_tilde"] - 1.0 / (s["sigma_ratio"] * 1.5)) <= 1e-9


def test_classify_constant_eigenvalues_force_product():
    g = euclidean(3)
    phi = SymTensorField.diagonal(
        g.chart, [const(2.0), const(3.0), const(3.0)], metric=g
    )
    rep = classify_codazzi(g, phi, h=const(2.0), plan=PLAN)
    assert rep.relation_case == "constant_product"
    assert rep.constants == (2.0, 3.0)
    assert (rep.rank_lambda, rep.rank_mu) == (1, 2)
    assert rep.warping_ode_residual is None
    assert rep.warping_axis is None
    assert rep.warping_samples is None


def test_classify_projection_tensor_on_flat_chart():
    g = euclidean(2)
    phi = SymTensorField.diagonal(g.chart, [ZERO, ONE], metric=g)
    rep = classify_codazzi(g, phi, h=ZERO, plan=PLAN)
    assert rep.relation_case == "constant_product"
    assert rep.constants == (0.0, 1.0)


def test_trace_free_pair_skips_conformal_product_criterion(monkeypatch):
    # lam + mu = 0 everywhere, so the alpha-beta identity has no meaning
    g = euclidean(2)
    phi = SymTensorField.diagonal(g.chart, [ONE, const(-1.0)], metric=g)
    scores, tapes, trees = codazzi._criteria, [], []

    def counting(found):
        def compiled(roots):
            found.append(roots)
            return compile_tape(roots)

        return compiled

    def criteria_spy(*args, **kwargs):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(codazzi, "compile_tape", counting(tapes))
            inner.setattr(scalar_fields, "compile_tape", counting(trees))
            return scores(*args, **kwargs)

    monkeypatch.setattr(codazzi, "_criteria", criteria_spy)
    rep = classify_codazzi(g, phi, plan=PLAN)
    # the criteria compile the one pass-2 tape, and no jet of it fails, so no
    # diff tree is swept
    assert len(tapes) == 1 and trees == []
    assert rep.flags["conformal_product"].status == "not_applicable"
    assert rep.residuals["conformal_product"] is None
    assert rep.relation_case is None


def test_classify_without_relation_leaves_case_unset():
    g, phi = torus()
    rep = classify_codazzi(g, phi, plan=PLAN)
    assert rep.relation_case is None
    assert rep.constants is None
    assert rep.warping_ode_residual is None
    assert rep.warping_axis is None
    assert rep.warping_samples is None
    assert rep.base_point is None
    assert rep.flags["spherical_eigenbundles"].status == "pass"


def test_classify_wrong_relation_is_outside_hypotheses():
    g, phi = torus()
    rep = classify_codazzi(g, phi, h=const(0.5), plan=PLAN)
    assert rep.relation_case == "outside_hypotheses"


def test_classify_rejects_non_codazzi_tensor():
    g = euclidean(2)
    phi = SymTensorField.diagonal(
        g.chart, [parse_expr("1 + x1", g.chart), const(3.0)], metric=g
    )
    with pytest.raises(NotCodazziError) as info:
        classify_codazzi(g, phi, plan=PLAN)
    assert info.value.residual == pytest.approx(1.0, abs=1e-12)


def test_classify_rejects_multivariate_relation():
    g, phi = torus()
    with pytest.raises(ConstraintError, match="single variable"):
        classify_codazzi(g, phi, h=add(var(0), var(1)), plan=PLAN)


def test_build_warped_rank_one_recovers_torus():
    base = Chart.box([(0.0, 1.4)], names=("u",))
    fiber = FactorSpec(Chart.box([(0.0, 2.0)], names=("v",)), ((ONE,),))
    cand = build_codazzi_candidate(
        "warped_rank_one",
        base=base,
        fiber=fiber,
        h=const(1.0),
        sigma=parse_expr("2 + cos(u)", base),
        mu=parse_expr("cos(u) / (2 + cos(u))", base),
    )
    assert isinstance(cand, CodazziCandidate)
    assert cand.codazzi_residual <= 1e-12
    g, phi = torus()
    for p in [P_TORUS, (0.2, 1.1)]:
        assert evaluate(cand.metric.entries[1][1], p) == pytest.approx(
            evaluate(g.entries[1][1], p), abs=1e-14
        )
        assert evaluate(cand.tensor.components[1][1], p) == pytest.approx(
            evaluate(phi.components[1][1], p), abs=1e-14
        )


def test_build_warped_rank_one_constant_sum_pair():
    # sigma = e^u, mu = 1 - e^{-2u}, h(s) = 2 - s solves the warping relation
    # exactly and keeps lam + mu = 2, so the conformal-product identity holds
    base = Chart.box([(0.1, 1.0)], names=("u",))
    fiber = FactorSpec(Chart.box([(0.0, 1.0)], names=("v",)), ((ONE,),))
    h = sub(const(2.0), var(0))
    cand = build_codazzi_candidate(
        "warped_rank_one",
        base=base,
        fiber=fiber,
        h=h,
        sigma=parse_expr("exp(u)", base),
        mu=parse_expr("1 - exp(-2*u)", base),
    )
    assert cand.codazzi_residual <= 1e-12
    rep = classify_codazzi(cand.metric, cand.tensor, h=h, plan=PLAN)
    assert rep.relation_case == "warped_rank_one"
    assert rep.flags["conformal_product"].status == "pass"
    assert rep.residuals["conformal_product"] <= 1e-12
    assert rep.warping_ode_residual <= 1e-9


def test_build_warped_rank_one_validates_inputs():
    base = Chart.box([(0.5, 2.5)], names=("t",))
    fiber = FactorSpec(Chart.box([(0.0, 1.0)], names=("v",)), ((ONE,),))
    with pytest.raises(ConstraintError, match="violate the warping relation"):
        build_codazzi_candidate(
            "warped_rank_one",
            base=base,
            fiber=fiber,
            h=ZERO,
            sigma=parse_expr("t", base),
            mu=parse_expr("t^2", base),
        )
    with pytest.raises(ConstraintError, match="unknown kind"):
        build_codazzi_candidate("bogus")
    with pytest.raises(ConstraintError, match="unexpected parameters"):
        build_codazzi_candidate(
            "warped_rank_one", base=base, fiber=fiber, h=ZERO,
            sigma=ONE, mu=ZERO, extra=1,
        )
    with pytest.raises(ConstraintError, match="interval"):
        build_codazzi_candidate(
            "warped_rank_one", base=Chart.box([(0.0, 1.0)] * 2), fiber=fiber,
            h=ZERO, sigma=ONE, mu=ZERO,
        )
    with pytest.raises(ConstraintError, match="base coordinate"):
        build_codazzi_candidate(
            "warped_rank_one", base=base, fiber=fiber, h=ZERO,
            sigma=var(1), mu=ZERO,
        )


def test_build_conformal_product_pair():
    cand = conformal_product_pair()
    assert cand.codazzi_residual <= 1e-12
    # metric (x0 + x1)^{-2} (dx0^2 + dx1^2) with eigenvalues x1 and -x0
    q = (0.4, 0.9)
    assert evaluate(cand.metric.entries[0][0], q) == pytest.approx(
        (q[0] + q[1]) ** -2, rel=1e-12
    )
    pair = eigen_two(cand.metric, cand.tensor, q)
    assert pair.lam == pytest.approx(q[1], abs=1e-12)
    assert pair.mu == pytest.approx(-q[0], abs=1e-12)
    rep = classify_codazzi(cand.metric, cand.tensor, plan=PLAN)
    assert rep.flags["conformal_product"].status == "pass"
    assert rep.flags["spherical_eigenbundles"].status == "pass"
    assert rep.residuals["eta_two_path"] <= 1e-9
    assert rep.residuals["zeta_two_path"] <= 1e-9
    assert rep.net_report.flags["CP"].status == "pass"


def test_build_conformal_product_rejects_foreign_coordinates():
    f0 = FactorSpec(Chart.box([(0.15, 1.0)], names=("x0",)), ((ONE,),))
    f1 = FactorSpec(Chart.box([(0.15, 1.0)], names=("x1",)), ((ONE,),))
    with pytest.raises(ConstraintError, match="own factor"):
        build_codazzi_candidate(
            "conformal_product", factors=(f0, f1), phi0=var(1), phi1=var(0)
        )
    with pytest.raises(ConstraintError, match="unexpected parameters"):
        build_codazzi_candidate(
            "conformal_product", factors=(f0, f1), phi0=var(0), phi1=var(0),
            junk=2,
        )


def test_eigen_labels_survive_constant_metric_scaling():
    g, _ = torus()
    gs = conformal_scale(g, const(np.sqrt(2.5)))
    phi = SymTensorField.diagonal(
        g.chart, [ONE, parse_expr("cos(u) / (2 + cos(u))", g.chart)], metric=gs
    )
    pair = eigen_two(gs, phi, P_TORUS)
    assert pair.lam == pytest.approx(1.0, abs=1e-10)
    assert pair.mu == pytest.approx(0.2, abs=1e-10)
    rep = classify_codazzi(gs, phi, h=const(1.0), plan=PLAN)
    assert rep.relation_case == "warped_rank_one"


def test_report_to_dict_shape():
    g, phi = torus()
    rep = classify_codazzi(g, phi, h=const(1.0), plan=PLAN)
    d = rep.to_dict()
    for key in ("codazzi_residual", "rank_lambda", "rank_mu", "residuals",
                "flags", "eigen_samples", "net_flags", "relation_case",
                "constants", "warping_ode_residual", "warping_axis",
                "warping_samples", "base_point", "n_samples"):
        assert key in d
    assert d["n_samples"] == rep.n_samples == len(rep.eigen_samples)
    assert set(d["flags"]) == {"conformal_product", "spherical_eigenbundles"}
    assert {"TP", "WP", "QW", "CQW", "CQW0", "CWP", "CP"} <= set(d["net_flags"])
    assert all(set(s) == {"t", "mu_tilde", "sigma_ratio"}
               for s in d["warping_samples"])
    assert d["base_point"] == [0.7, 1.0]


# --- failure order and warnings ---------------------------------------------------
#
# Each expected message is the one that checking one sample at a time raises:
# the first failing sample, and there the first failing check.

GRID4 = SamplePlan(grid=4, margin=0.1, random=0, seed=0)
# the second grid coordinate of GRID4 on [0, 1]
C = repr(float(np.linspace(0.1, 0.9, 4)[1]))


def _unit_chart(n):
    return Chart.box([(0.0, 1.0)] * n, names=tuple(f"x{i}" for i in range(n)))


def _flat_diagonal(diag):
    """A diagonal tensor on flat space; Codazzi when entry i reads only x_i."""
    chart = _unit_chart(len(diag))
    g = MetricField.diagonal(chart, [ONE] * len(diag))
    return g, SymTensorField.diagonal(chart, [parse_expr(t, chart) for t in diag], metric=g)


def _raises(g, phi, exc, message, plan=GRID4, h=None, gap_min=codazzi.GAP_MIN):
    with pytest.raises(exc) as info:
        classify_codazzi(g, phi, h=h, plan=plan, gap_min=gap_min)
    assert str(info.value) == message


def test_self_adjointness_defect_stays_finite_where_its_squares_overflow():
    # the squares of G Phi overflow; scaled by a power of two first, the
    # defect is |A| / |S| = 1 and fails, with no RuntimeWarning
    g = euclidean(2)
    rows = [[const(1e200), const(1e200)], [ZERO, ONE]]
    with pytest.raises(ConstraintError, match=r"^tensor is not self-adjoint at .*: defect 1\.000e\+00$"):
        SymTensorField(g.chart, rows, metric=g)
    label = tuple(sample_points(g.chart, GRID4)[0].tolist())
    _raises(g, SymTensorField(g.chart, rows), ConstraintError,
            f"tensor is not self-adjoint at {label}: defect 1.000e+00")


def test_self_adjoint_at_center_fails_at_a_later_sample():
    chart = _unit_chart(2)
    g = MetricField.diagonal(chart, [ONE, ONE])
    # the off-diagonal entry vanishes for x0 <= 0.55, so at the center too
    s = parse_expr("(x0 - 0.55) + abs(x0 - 0.55)", chart)
    phi = SymTensorField(chart, [[const(2.0), s], [ZERO, ONE]], metric=g)
    _raises(g, phi, ConstraintError,
            "tensor is not self-adjoint at (0.6333333333333333, 0.1): defect 7.270e-02")


def test_field_domain_error_precedes_later_coalescence():
    # at x0 = C the first eigenvalue has no second derivative (samples 4-7);
    # the eigenvalues coalesce at (C, C), sample 5
    g, phi = _flat_diagonal([f"2 + ((x0 - {C})^2)^0.75", f"2 - (x1 - {C})^2"])
    _raises(g, phi, EvalDomainError,
            f"zero raised to a negative power: ((x0 - {C})^2)^-0.25")


def test_coalescence_precedes_later_field_domain_error():
    # coalescence at (0.1, 0.9), sample 3; h(mu) fails at the random samples
    # 18 and 19 only, where mu lies in (1.75, 1.9)
    g, phi = _flat_diagonal(["2 + (x0 - 0.1)", "2 - (x1 - 0.9)^2"])
    h = parse_expr("sqrt((mu - 1.75)*(mu - 1.9))", Chart.box([(-1e9, 1e9)], names=("mu",)))
    plan = SamplePlan(grid=4, margin=0.1, random=4, seed=1)
    _raises(g, phi, CoalescenceError, "eigenvalues coalesce at (0.1, 0.9): spread 0.000e+00",
            plan=plan, h=h)
    # without the coalescence, h(mu) fails
    g, phi = _flat_diagonal(["3 + (x0 - 0.1)", "2 - (x1 - 0.9)^2"])
    with pytest.raises(EvalDomainError, match="sqrt of a negative value"):
        classify_codazzi(g, phi, h=h, plan=plan)
    # a tensor whose partials fail from sample 4 on fails the Codazzi pass,
    # which reads the jets of the tensor before any eigenvalue is formed
    g, phi = _flat_diagonal([f"2 + (x0 - 0.1)*(1 + ((x0 - {C})^2)^0.75)", "2 - (x1 - 0.9)^2"])
    _raises(g, phi, EvalDomainError, f"zero raised to a negative power: ((x0 - {C})^2)^-0.25")


_MU = Chart.box([(-1e9, 1e9)], names=("mu",))


def _model(g, phi, plan, gap_min=codazzi.GAP_MIN):
    """The eigen model that classify_codazzi anchors on the plan's samples,
    and the samples."""
    fields = codazzi._metric_tensor(g, phi, sample_points(g.chart, plan), 1e-8, codazzi=True)
    return codazzi._eigen_model(g, phi, fields, gap_min)[1], fields.points


def test_h_failing_where_lambda_and_mu_evaluate_names_h():
    # lambda = 3 + (x0 - 0.1) and mu = 2 - (x1 - 0.9)^2 evaluate everywhere;
    # h(mu) = sqrt(1.99 - mu) fails where x1 > 0.8, first at (0.1, 0.9),
    # sample 3, and the error names the node of h(mu)
    g, phi = _flat_diagonal(["3 + (x0 - 0.1)", "2 - (x1 - 0.9)^2"])
    h = parse_expr("sqrt(1.99 - mu)", _MU)
    model, pts = _model(g, phi, GRID4)
    h_mu = codazzi._h_of_mu(h, model.mu_expr)
    sweep = compile_tape([h_mu]).sweep(pts)
    assert np.flatnonzero(sweep.first_bad < sweep.tape.size)[0] == 3
    with pytest.raises(EvalDomainError) as info:
        classify_codazzi(g, phi, h=h, plan=GRID4)
    assert str(info.value) == f"sqrt of a negative value: {format_expr(h_mu)}"


def test_h_with_non_finite_jets_is_read_by_value(monkeypatch):
    # h(mu) = 1 + sqrt(mu - mu) is 1 at every sample, but its jets are inf * 0
    # there; h is read by value only, so the torus reads as with h = 1 and
    # no diff tree is swept
    g, phi = torus()
    h = parse_expr("1 + sqrt(mu - mu)", _MU)
    want = classify_codazzi(g, phi, h=const(1.0), plan=PLAN).to_dict()
    model, pts = _model(g, phi, PLAN)
    sweep = compile_tape([codazzi._h_of_mu(h, model.mu_expr)]).jet_sweep(pts)
    assert (sweep.first_bad == sweep.tape.size).all()
    assert (sweep.values == 1.0).all() and not np.isfinite(sweep.jets[:, 1:]).any()
    trees, compile_ = [], scalar_fields.compile_tape

    def counting(roots):
        trees.append(roots)
        return compile_(roots)

    monkeypatch.setattr(scalar_fields, "compile_tape", counting)
    assert classify_codazzi(g, phi, h=h, plan=PLAN).to_dict() == want
    assert trees == []


_STEEP = f"1.1 + (x1 - {C}) + exp(1400*(x1 - 0.62))"


def test_coalescence_precedes_a_later_lambda_domain_error():
    # the eigenvalues 1 + x0 and 1.1 + (x1 - C) + exp(1400 (x1 - 0.62))
    # coalesce at (0.1, C), sample 1, where the exponential is below the
    # rounding of 1.1; on the x1 = 0.9 column, from sample 3 on, tr Phi^2
    # overflows, so the closed-form eigenvalue fields fail there though Phi
    # evaluates (x0 - x0 off the diagonal keeps Phi on the closed form)
    g, phi = _flat_diagonal(["1 + x0", _STEEP])
    phi = off_diagonal(phi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, pts = _model(g, phi, GRID4)
        lam = compile_tape([model.lam_expr]).sweep(pts)
        assert np.flatnonzero(lam.first_bad < lam.tape.size)[0] == 3
        _raises(g, phi, CoalescenceError, f"eigenvalues coalesce at (0.1, {C}): spread 0.000e+00")
        # without the coalescence, lambda fails at sample 3
        g, phi = _flat_diagonal(["1.2 + x0", _STEEP])
        phi = off_diagonal(phi)
        model, pts = _model(g, phi, GRID4)
        want = str(compile_tape([model.lam_expr]).sweep(pts).error(3))
        _raises(g, phi, EvalDomainError, want)
    assert want.startswith("non-finite value: ")


def test_closed_form_gap_of_zero_at_the_anchor_raises_the_projector_error():
    # the eigenvalues 1 and 1 + 1e-9 split by more than gap_min = 1e-12, but
    # tr Phi^2 rounds so that the closed-form lambda and mu agree at the
    # anchor: the spectral projector divides by zero there. 1e-300 off the
    # diagonal keeps Phi on the closed form, and its square underflows, so
    # tr Phi^2 still folds to a constant
    g, phi = _flat_diagonal(["1", "1 + 1e-9"])
    phi = off_diagonal(phi, const(1e-300))
    want = "division by zero: (-5.000000413701855e-10)/0"
    _raises(g, phi, EvalDomainError, want, plan=SamplePlan(grid=3, random=0), gap_min=1e-12)
    with pytest.raises(EvalDomainError) as info:
        criteria_residuals(g, phi, (0.5, 0.5), gap_min=1e-12)
    assert str(info.value) == want


def test_diagonal_tensor_is_read_off_its_diagonal(monkeypatch):
    # the two tensors above as they are, diagonal: the anchor compiles no
    # tape and the eigen-net is the coordinate net, and no RuntimeWarning
    # escapes. The coalescence still comes first. Without it the scores are
    # reached: on the x1 = 0.9 column mu is near 1e170, so the
    # conformal-product terms alpha Y(alpha) X(beta) overflow, and that
    # residual, not finite, raises. 1 and 1 + 1e-9 pass at gap_min = 1e-12
    def refuse(roots):
        raise AssertionError("a tape compiled at the anchor")

    steep, close = _flat_diagonal(["1.2 + x0", _STEEP]), _flat_diagonal(["1", "1 + 1e-9"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as m:
            m.setattr(codazzi, "compile_tape", refuse)
            assert _model(*steep, GRID4)[0].net.is_coordinate
            assert _model(*close, GRID4, gap_min=1e-12)[0].net.is_coordinate
        _raises(*_flat_diagonal(["1 + x0", _STEEP]), CoalescenceError,
                f"eigenvalues coalesce at (0.1, {C}): spread 0.000e+00")
        _raises(*steep, InconsistencyError,
                "conformal_product residual is nan at (0.1, 0.9); residuals must be finite")
        rep = classify_codazzi(*close, plan=SamplePlan(grid=3, random=0), gap_min=1e-12)
        record = criteria_residuals(*close, (0.5, 0.5), gap_min=1e-12)
    assert all(f.status == "pass" for f in [*rep.flags.values(), *rep.net_report.flags.values()])
    assert max(rep.residuals.values()) == 0.0
    assert (record.lam, record.mu) == (1.0, 1.000000001)


def test_eigenvalue_rank_change():
    # eigenvalues (1, 2, 1) at the anchor, (1, 2, 2) once x2 > 0.45
    g, phi = _flat_diagonal(["1", "2", "1.5 + 0.5*(x2 - 0.45)/abs(x2 - 0.45)"])
    _raises(g, phi, CoalescenceError,
            "eigenvalue ranks change at (0.1, 0.1, 0.6333333333333333): 1 vs 2 at the anchor")


def test_not_codazzi_names_the_first_worst_sample():
    # the residual 2 x1 peaks on the x1 = 0.9 column, first at (0.1, 0.9)
    g, phi = _flat_diagonal(["1 + x1^2", "3"])
    _raises(g, phi, NotCodazziError,
            "Codazzi residual 1.800e+00 exceeds tol 1.0e-08 at (0.1, 0.9)")


def _condition_texts(g, phi, h=None):
    plan = SamplePlan(grid=3, margin=0.1, random=3, seed=2)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            classify_codazzi(g, phi, h=h, plan=plan)
        except ConstraintError as e:
            error = str(e)
        else:
            error = None
    texts = [str(w.message) for w in rec if issubclass(w.category, ConditionNumberWarning)]
    return list(dict.fromkeys(texts)), error


def test_ill_conditioned_metric_warnings():
    chart = _unit_chart(2)
    # a cone-like warped pair whose metric has condition number 2e8 exp(-3 x0)
    g = MetricField.diagonal(chart, [ONE, parse_expr("5e-9*exp(3*x0)", chart)])
    phi = SymTensorField.diagonal(chart, [ZERO, parse_expr("exp(-1.5*x0)", chart)], metric=g)
    assert _condition_texts(g, phi, h=ZERO) == (
        [
            "metric condition number 1.482e+08 at (0.1, 0.1)",
            "metric condition number 1.482e+08 at (0.1, 0.5)",
            "metric condition number 1.482e+08 at (0.1, 0.9)",
        ],
        None,
    )
    # ill-conditioned along x1 = 0.1; not self-adjoint at (0.5, 0.1), so the
    # samples after it never warn
    g = MetricField.diagonal(chart, [ONE, parse_expr("5e-9*exp(3*x1)", chart)])
    s = parse_expr("((x0 - 0.3) + abs(x0 - 0.3))*((0.3 - x1) + abs(0.3 - x1))", chart)
    phi = SymTensorField(chart, [[ONE, s], [ZERO, const(2.0)]], metric=g)
    assert _condition_texts(g, phi) == (
        [
            "metric condition number 1.482e+08 at (0.1, 0.1)",
            "metric condition number 1.482e+08 at (0.5, 0.1)",
        ],
        "tensor is not self-adjoint at (0.5, 0.1): defect 1.124e-01",
    )


def test_each_condition_warning_is_issued_once():
    # the first pass checks the metric and warns; the eigen-net's checks of
    # the same samples do not warn again
    chart = _unit_chart(2)
    g = MetricField.diagonal(chart, [ONE, parse_expr("5e-9*exp(3*x0)", chart)])
    phi = SymTensorField.diagonal(chart, [ZERO, parse_expr("exp(-1.5*x0)", chart)], metric=g)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        classify_codazzi(g, phi, h=ZERO, plan=SamplePlan(grid=3, margin=0.1, random=3, seed=2))
    assert [str(w.message) for w in rec] == [
        "metric condition number 1.482e+08 at (0.1, 0.1)",
        "metric condition number 1.482e+08 at (0.1, 0.5)",
        "metric condition number 1.482e+08 at (0.1, 0.9)",
    ]


def test_condition_warnings_name_the_caller():
    chart = _unit_chart(2)
    g = MetricField.diagonal(chart, [ONE, const(1e9)])
    p = (0.5, 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = SymTensorField.diagonal(chart, [ZERO, ONE], metric=g)
        classify_codazzi(g, phi, h=ZERO, plan=SamplePlan(grid=2, random=0))
        criteria_residuals(g, phi, p)
        eigen_two(g, phi, p)
        codazzi_residual(g, phi, p)
    assert len(caught) == 8
    assert {w.filename for w in caught} == {__file__}


def _numbers(tree, path=""):
    """The numbers of a nested report dict by path."""
    if isinstance(tree, dict):
        return {k: v for key, sub in tree.items() for k, v in _numbers(sub, f"{path}.{key}").items()}
    if isinstance(tree, list):
        return {k: v for i, sub in enumerate(tree) for k, v in _numbers(sub, f"{path}[{i}]").items()}
    return {path: tree}


def test_non_finite_eigen_net_jets_raise_at_the_field_stage(monkeypatch):
    # where eta, zeta, their partials or Gamma are not finite although the
    # jets of the eigen-net's entries are, the first such sample raises,
    # naming the span, the quantity and the sample
    g, phi = torus()
    geometry = nets._geometry

    def poisoned(*args):
        geo = geometry(*args)
        geo.dH[2, geo.spans.index((0,))] = np.nan  # d eta at sample 2
        geo.H[4, geo.spans.index((1,))] = np.inf  # zeta at sample 4
        geo.gamma[5] = np.nan
        return geo

    monkeypatch.setattr(nets, "_geometry", poisoned)
    label = tuple(float(x) for x in sample_points(g.chart, PLAN)[2])
    _raises(g, phi, InconsistencyError,
            f"dH of span (0,) is nan at {label}; derived values must be finite",
            plan=PLAN, h=const(1.0))


def test_non_finite_eigenvalue_jets_fall_back_to_diff_trees(monkeypatch):
    # where a partial of lambda or mu is not finite in the jets, the diff
    # trees of the pointwise definition give the partials
    g, phi = _conformal_pair()
    want = _numbers(classify_codazzi(g, phi, plan=PLAN).to_dict())
    jet_sweep, compile_ = Tape.jet_sweep, codazzi.compile_tape
    tapes, landed = set(), []

    def compiled(roots):
        tape = compile_(roots)
        tapes.add(id(tape))
        return tape

    def poisoned(self, points):
        sweep = jet_sweep(self, points)
        # pass 2 is the one codazzi tape with a jet sweep: lambda, mu, the frame
        if id(self) in tapes:
            n = points.shape[1]
            sweep.jets[1, 1 + n, 0] = np.nan  # d_0 d_0 lambda at sample 1
            sweep.jets[3, 1, 1] = np.inf  # d_0 mu at sample 3
            landed.append(sweep)
        return sweep

    monkeypatch.setattr(codazzi, "compile_tape", compiled)
    monkeypatch.setattr(Tape, "jet_sweep", poisoned)
    got = _numbers(classify_codazzi(g, phi, plan=PLAN).to_dict())
    # the poison landed on the one pass-2 sweep, and the diff trees mended it
    assert len(landed) == 1
    n = g.dim
    assert np.isfinite([landed[0].jets[1, 1 + n, 0], landed[0].jets[3, 1, 1]]).all()
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-12), key
        else:
            assert got[key] == value, key


def _conformal_pair():
    cand = conformal_product_pair()
    return cand.metric, cand.tensor


@pytest.mark.parametrize("make, h", [(torus, const(1.0)), (_conformal_pair, None)],
                         ids=["torus", "conformal_pair"])
def test_classify_codazzi_builds_no_symbolic_christoffel_symbols(monkeypatch, make, h):
    # pass 1, the eigen-net and the criteria take Gamma from metric jets
    g, phi = make()
    want = classify_codazzi(g, phi, h=h, plan=PLAN).to_dict()

    def refuse(self):
        raise AssertionError("symbolic Christoffel or inverse entries built")

    monkeypatch.setattr(MetricField, "christoffel_entries", refuse)
    monkeypatch.setattr(MetricField, "inverse_entries", refuse)
    g, phi = make()
    assert classify_codazzi(g, phi, h=h, plan=PLAN).to_dict() == want


@pytest.mark.parametrize(
    "make, h, diagonal",
    [(torus, const(1.0), False), (_conformal_pair, None, False),
     (torus, const(1.0), True), (_conformal_pair, None, True)],
    ids=["torus", "conformal_pair", "torus_diagonal", "conformal_pair_diagonal"],
)
def test_classify_codazzi_sweeps_its_samples_twice(monkeypatch, make, h, diagonal):
    # pass 1 jet-sweeps the metric and Phi, pass 2 lambda, mu, h(mu) and the
    # eigen-net's frame entries; the eigen-net reads the metric's jets from
    # pass 1, so the metric entries are compiled once, and the anchor model
    # and the warping profile compile one tape each. With x0 - x0 off the
    # diagonal the anchor model is the closed form; read off the diagonal
    # it compiles none, and the eigen-net is the coordinate net
    g, phi = make()
    if not diagonal:
        phi = off_diagonal(phi)
    m = len(sample_points(g.chart, PLAN))
    upper = {id(g.entries[a][b]) for a in range(g.dim) for b in range(a, g.dim)}
    sweeps, metric_tapes, within, compiles = [], [], [], {}
    jet_sweep = Tape.jet_sweep

    def counted(self, points):
        sweeps.append(len(points))
        return jet_sweep(self, points)

    def spy(compile_):
        def compiled(roots):
            roots = list(roots)
            if upper <= {id(e) for e in roots}:
                metric_tapes.append(roots)
            if within:
                compiles[within[-1]] = compiles.get(within[-1], 0) + 1
            return compile_(roots)

        return compiled

    def scoped(name, f):
        def run(*args, **kwargs):
            within.append(name)
            try:
                return f(*args, **kwargs)
            finally:
                within.pop()

        return run

    monkeypatch.setattr(Tape, "jet_sweep", counted)
    for module in (chart_calculus, codazzi, scalar_fields):
        monkeypatch.setattr(module, "compile_tape", spy(module.compile_tape))
    monkeypatch.setattr(codazzi._EigenModel, "__init__", scoped("anchor", codazzi._EigenModel.__init__))
    monkeypatch.setattr(codazzi, "_warping_profile", scoped("warping", codazzi._warping_profile))
    rep = classify_codazzi(g, phi, h=h, plan=PLAN)
    assert sweeps == [m, m]
    assert len(metric_tapes) == 1
    want = {} if diagonal else {"anchor": 1}
    assert compiles == ({**want, "warping": 1} if h is not None else want)
    assert (rep.warping_samples is not None) == (h is not None)
    assert _model(g, phi, PLAN)[0].net.is_coordinate == diagonal


# --- independent oracles ----------------------------------------------------------

_HESSIAN_METRICS = {
    "torus": lambda: fixtures.torus()[0],
    "polar": fixtures.polar,
    "warped_three": fixtures.warped_three,
    "cqw_three": fixtures.cqw_three,
}


@settings(max_examples=40)
@given(
    name=st.sampled_from(sorted(_HESSIAN_METRICS)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_numeric_hessian_matches_hessian_lc(name, seed, data):
    g = _HESSIAN_METRICS[name]()
    n = g.dim
    rng = np.random.default_rng(seed)
    f = random_expr(rng, n)
    p = random_point(rng, g.chart)
    vector = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    X, Y = np.array(data.draw(vector)), np.array(data.draw(vector))
    gamma = g.christoffel_entries()
    roots = [diff(diff(f, l), i) for i in range(n) for l in range(n)]
    roots += [gamma[k][i][j] for k in range(n) for i in range(n) for j in range(n)]
    roots += [diff(f, k) for k in range(n)]
    vals = compile_tape(roots).run(np.array([p]))[0]
    d2f = vals[: n * n].reshape(1, n, n)
    gam = vals[n * n : n * n + n**3].reshape(1, n, n, n)
    df = vals[n * n + n**3 :].reshape(1, n)
    got = float(_hess(d2f, gam, df, X[None, None], Y[None, None])[0, 0, 0])
    want = hessian_lc(g, f, [const(x) for x in X], [const(y) for y in Y], p)
    # relative to the size of the terms of the contraction
    terms = np.abs(d2f[0]) + np.abs(np.einsum("kij,k->ij", gam[0], df[0]))
    scale = np.abs(X) @ terms @ np.abs(Y)
    assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10 * scale)


def _cone():
    """The cone dt^2 + (1.4 t)^2 dtheta^2 with diag(0, 0.6/t), h = 0."""
    chart = Chart.box([(0.5, 2.5), (0.0, 2.0)], names=("t", "theta"), blocks=((0,), (1,)))
    g = MetricField.diagonal(chart, [ONE, parse_expr("(1.4*t)^2", chart)])
    return g, SymTensorField.diagonal(chart, [ZERO, parse_expr("0.6/t", chart)], metric=g)


def _conformal_pair3():
    man = load_manifest(Path(__file__).resolve().parents[1] / "manifests" / "conformal_pair3.json")
    return man.metric, man.tensors[0][1]


@pytest.mark.parametrize(
    "make, h",
    [(torus, const(1.0)), (_cone, ZERO), (_conformal_pair, None), (_conformal_pair3, None)],
    ids=["torus", "cone", "conformal_pair", "conformal_pair3"],
)
def test_diagonal_and_closed_form_reports_agree(make, h):
    # a diagonal Phi, read off its diagonal, and the same Phi with x0 - x0
    # off the diagonal, read by the closed form and the projector frame,
    # give the same report to the golden slack; conformal_pair3 has a
    # rank-two mu block
    g, phi = make()
    diagonal = classify_codazzi(g, phi, h=h, plan=PLAN).to_dict()
    closed = classify_codazzi(g, off_diagonal(phi), h=h, plan=PLAN).to_dict()
    _compare(closed, diagonal)
    assert diagonal["rank_mu"] == (2 if make is _conformal_pair3 else 1)
    assert diagonal["relation_case"] == (None if h is None else "warped_rank_one")
    assert diagonal["warping_axis"] == (None if h is None else 0)


@settings(max_examples=15)
@given(R=st.floats(1.6, 2.8))
def test_torus_eigen_samples_match_closed_form(R):
    chart = Chart.box([(0.0, 1.4), (0.0, 2.0)], names=("u", "v"))
    g = MetricField.diagonal(chart, [ONE, parse_expr(f"({R!r} + cos(u))^2", chart)])
    phi = SymTensorField.diagonal(
        chart, [ONE, parse_expr(f"cos(u) / ({R!r} + cos(u))", chart)], metric=g
    )
    rep = classify_codazzi(g, phi, h=const(1.0), plan=PLAN)
    for s in rep.eigen_samples:
        u = s["point"][0]
        assert abs(s["mu"] - math.cos(u) / (R + math.cos(u))) <= 1e-12
        assert abs(s["lam"] - 1.0) <= 1e-12
    assert rep.residuals["eta_two_path"] <= 1e-10
    assert rep.residuals["zeta_two_path"] <= 1e-10


@pytest.mark.parametrize("name", ["lambda_spherical", "relation"])
def test_non_finite_score_raises_naming_it_and_the_sample(name, monkeypatch):
    # a nan score at one torus sample raises instead of passing: max(a, nan)
    # dropped a nan lambda_spherical, and nan <= tol read a nan relation as
    # outside the hypotheses
    g, phi = torus()
    labels = [tuple(p) for p in sample_points(g.chart, PLAN).tolist()]
    criteria = codazzi._criteria

    def poisoned(*args, **kwargs):
        scores, samples = criteria(*args, **kwargs)
        {**scores.identities, "relation": scores.relation}[name][5] = np.nan
        return scores, samples

    monkeypatch.setattr(codazzi, "_criteria", poisoned)
    with pytest.raises(InconsistencyError) as info:
        classify_codazzi(g, phi, h=const(1.0), plan=PLAN)
    assert str(info.value) == f"{name} residual is nan at {labels[5]}; residuals must be finite"


def test_warping_profile_reads_log_determinants():
    # the torus warping sigma from a metric scaled by 1e200, whose block
    # determinants overflow, equals that of the unscaled metric
    g, phi = torus()
    fields = codazzi._metric_tensor(g, phi, [(0.3, 0.5)], 1e-8, codazzi=True)
    model = codazzi._eigen_model(g, phi, fields, codazzi.GAP_MIN)[1]
    big = MetricField(g.chart, [[scalar_fields.mul(const(1e200), e) for e in row] for row in g.entries])
    plan = SamplePlan(grid=5, margin=0.1)
    pts = sample_points(g.chart, plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, base = codazzi._warping_profile(g, model, 0, plan, chart_calculus._stacked(g, (), pts)[0])
        got, _ = codazzi._warping_profile(big, model, 0, plan, chart_calculus._stacked(big, (), pts)[0])
    assert [s["t"] for s in got] == [s["t"] for s in want]
    for s, w in zip(got, want):
        assert s["sigma_ratio"] == pytest.approx(w["sigma_ratio"], rel=1e-12)
    assert base == g.chart.center()


@pytest.mark.parametrize("jets", [True, False], ids=["codazzi", "values"])
def test_self_adjointness_defect_is_taken_once(monkeypatch, jets):
    # the fields over the samples keep no defect: the self-adjointness check
    # takes it once over every sample, and self_adjoint_defect takes it at
    # its point, with the value of the relative asymmetry
    calls = []
    defect = codazzi._defect

    def spy(G, vals):
        calls.append(len(G))
        return defect(G, vals)

    g, phi = torus()
    pts = sample_points(g.chart, PLAN)
    monkeypatch.setattr(codazzi, "_defect", spy)
    codazzi._metric_tensor(g, phi, pts, 1e-8, codazzi=jets)
    assert calls == [len(pts)]
    p = g.chart.center()
    G, _ = metric_at(g, p)
    S = G @ np.array([[evaluate(e, p) for e in row] for row in phi.components])
    want = np.linalg.norm(S - S.T) / (1.0 + np.linalg.norm(S))
    assert codazzi.self_adjoint_defect(g, phi, p) == pytest.approx(want, rel=1e-14, abs=1e-300)


def test_self_adjointness_defect_of_a_scaled_metric_emits_no_warning():
    # |G Phi| of the torus metric times 1e200 overflowed in numpy's norm at
    # the chart center, and the RuntimeWarning escaped; divided by a power of
    # two first, the check and classify_codazzi stay silent
    g0, phi0 = torus()
    big = MetricField(g0.chart, [[scalar_fields.mul(const(1e200), e) for e in row] for row in g0.entries])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = SymTensorField(g0.chart, phi0.components, metric=big)
        report = classify_codazzi(big, phi)
    assert report.flags["spherical_eigenbundles"].status == "pass"
