"""Levi-Civita calculus: Christoffel symbols, covariant operations, axioms."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_expr, random_point, random_twisted_spec
from orthonet import chart_calculus, codazzi, fixtures, nets, product_metrics
from orthonet.chart_calculus import (
    CONDITION_WARN,
    MetricField,
    _lc_axioms,
    _levi_civita,
    _stacked,
    christoffel,
    cov_deriv,
    grad_field,
    hessian_lc,
    inner,
    lc_axiom_residuals,
    lie_bracket,
    metric_at,
    norm,
)
from orthonet.codazzi import SymTensorField
from orthonet.errors import ConditionNumberWarning, ConstraintError, EvalDomainError, NotSPDError
from orthonet.product_metrics import FactorSpec, ProductSpec, spherical_factor_check, verify_connection_identity
from orthonet.sampling import SamplePlan, sample_points
from orthonet.scalar_fields import (
    Chart,
    ONE,
    ZERO,
    add,
    compile_tape,
    const,
    diff,
    div,
    evaluate,
    is_const_one,
    log,
    mul,
    neg,
    parse_expr,
    powc,
    sub,
    var,
)


def _polar():
    ch = Chart.box([(0.5, 2.5), (0.0, 2.0)], names=("t", "theta"))
    return MetricField.diagonal(ch, [ONE, parse_expr("t^2", ch)])


def test_metric_field_shape_and_symmetry():
    g = _polar()
    assert g.dim == 2
    assert g.entries[0][1] is g.entries[1][0]
    with pytest.raises(ValueError):
        MetricField(g.chart, [[ONE]])


def test_metric_at_returns_inverse():
    g = _polar()
    G, Ginv = metric_at(g, (2.0, 1.0))
    assert np.allclose(G, np.diag([1.0, 4.0]))
    assert np.allclose(G @ Ginv, np.eye(2), atol=1e-14)


def test_spd_gate():
    ch = Chart.box([(0.0, 1.0)] * 2)
    g = MetricField.diagonal(ch, [ONE, parse_expr("x0 - 0.5", ch)])
    metric_at(g, (0.9, 0.5))
    with pytest.raises(NotSPDError):
        metric_at(g, (0.2, 0.5))


def test_condition_number_warning():
    ch = Chart.box([(0.0, 1.0)] * 2)
    g = MetricField.diagonal(ch, [ONE, const(1e9)])
    with pytest.warns(ConditionNumberWarning):
        metric_at(g, (0.5, 0.5))


def test_condition_warning_bound_warns_once_per_sample_above_it():
    # the bound is exclusive: a condition number a relative 1e-6 above it
    # warns at every sample, one as far below it warns nowhere
    ch = Chart.box([(0.0, 1.0)] * 2)
    pts = sample_points(ch, SamplePlan(grid=3, margin=0.0, random=2))
    labels = [tuple(p) for p in pts.tolist()]
    for scale, warned in ((1 + 1e-6, labels), (1 - 1e-6, [])):
        cond = CONDITION_WARN * scale
        g = MetricField.diagonal(ch, [ONE, const(cond)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _stacked(g, [], pts)
        texts = [str(w.message) for w in caught if w.category is ConditionNumberWarning]
        assert texts == [f"metric condition number {cond:.3e} at {p}" for p in warned]


def test_a_sample_is_named_by_its_float_coordinates():
    # a point given as a numpy array, or with integer coordinates, is named
    # as a tuple of floats in errors and warnings alike
    ch = Chart.box([(-1.0, 1.0)] * 2)
    g = MetricField.diagonal(ch, [ONE, parse_expr("x0", ch)])
    for op in (metric_at, christoffel):
        with pytest.raises(NotSPDError) as info:
            op(g, np.array([-0.5, 0.5]))
        assert str(info.value) == "metric not positive definite at (-0.5, 0.5): smallest eigenvalue -5.000e-01"
    with pytest.raises(NotSPDError) as info:
        metric_at(g, (-1, 0))
    assert str(info.value) == "metric not positive definite at (-1.0, 0.0): smallest eigenvalue -1.000e+00"
    g = MetricField.diagonal(ch, [ONE, const(1e9)])
    with pytest.warns(ConditionNumberWarning) as caught:
        metric_at(g, np.array([-0.5, 0.5]))
    assert [str(w.message) for w in caught] == ["metric condition number 1.000e+09 at (-0.5, 0.5)"]


def test_polar_christoffel_closed_form():
    # nonzero symbols: Gamma^t_theta,theta = -t and Gamma^theta_t,theta = 1/t
    g = _polar()
    for t in (0.6, 1.3, 2.2):
        gam = christoffel(g, (t, 0.7))
        want = np.zeros((2, 2, 2))
        want[0, 1, 1] = -t
        want[1, 0, 1] = want[1, 1, 0] = 1.0 / t
        assert np.allclose(gam, want, atol=1e-14)


def test_cov_deriv_polar_closed_form():
    g = _polar()
    e_t = (ONE, ZERO)
    e_th = (ZERO, ONE)
    t = 1.7
    p = (t, 0.4)
    assert np.allclose(cov_deriv(g, e_t, e_th, p), [0.0, 1.0 / t], atol=1e-14)
    assert np.allclose(cov_deriv(g, e_th, e_th, p), [-t, 0.0], atol=1e-14)
    assert np.allclose(cov_deriv(g, e_t, e_t, p), [0.0, 0.0], atol=1e-14)


def test_grad_field_uses_inverse_metric():
    g = _polar()
    f = parse_expr("t^2 + theta", g.chart)
    t = 1.4
    gv = grad_field(g, f, (t, 0.9))
    assert np.allclose(gv, [2.0 * t, 1.0 / t**2], atol=1e-13)


def test_hessian_matches_coordinate_formula_seeded():
    g = _polar()
    n = g.dim
    basis = [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        f = random_expr(rng, n)
        p = random_point(rng, g.chart)
        gam = christoffel(g, p)
        df = np.array([evaluate(diff(f, k), p) for k in range(n)])
        for i in range(n):
            for j in range(n):
                direct = evaluate(diff(diff(f, i), j), p) - float(gam[:, i, j] @ df)
                assert math.isclose(
                    hessian_lc(g, f, basis[i], basis[j], p),
                    direct,
                    rel_tol=1e-9,
                    abs_tol=1e-9,
                )


def test_hessian_symmetric_in_arguments():
    g = fixtures.torus()[0]
    f = parse_expr("sin(u) * v + v^2", g.chart)
    X = (parse_expr("u", g.chart), parse_expr("v", g.chart))
    Y = (ONE, parse_expr("u*v", g.chart))
    for p in ((0.3, 0.5), (1.1, 1.7)):
        assert math.isclose(
            hessian_lc(g, f, X, Y, p), hessian_lc(g, f, Y, X, p), rel_tol=1e-10
        )


def test_lie_bracket_closed_form():
    # [x1 d0, d1] = -d0
    X = (var(1), ZERO)
    Y = (ZERO, ONE)
    assert np.allclose(lie_bracket(X, Y, (0.7, 0.2)), [-1.0, 0.0])
    # brackets of coordinate fields vanish
    assert np.allclose(lie_bracket((ONE, ZERO), Y, (0.7, 0.2)), [0.0, 0.0])


def test_inner_and_norm():
    g = _polar()
    p = (2.0, 0.3)
    assert math.isclose(inner(g, [1.0, 0.0], [0.0, 1.0], p), 0.0, abs_tol=1e-15)
    assert math.isclose(norm(g, [0.0, 1.0], p), 2.0, rel_tol=1e-14)


def test_lc_axioms_on_fixture_metrics():
    plan = SamplePlan(grid=3, margin=0.1, random=4, seed=2)
    metrics = [
        fixtures.euclidean(),
        fixtures.polar(),
        fixtures.torus()[0],
        fixtures.exp_sum_conformal(),
    ]
    for g in metrics:
        for p in sample_points(g.chart, plan):
            compat, torsion = lc_axiom_residuals(g, tuple(float(x) for x in p))
            assert compat <= 1e-10
            assert torsion <= 1e-10


def test_cov_deriv_metric_compatibility_seeded():
    # X <Y, Z> = <nabla_X Y, Z> + <Y, nabla_X Z> for expression fields
    g = fixtures.torus()[0]
    n = g.dim
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X = tuple(random_expr(rng, n, depth=1) for _ in range(n))
        Y = tuple(random_expr(rng, n, depth=1) for _ in range(n))
        Z = tuple(random_expr(rng, n, depth=1) for _ in range(n))
        p = random_point(rng, g.chart)
        h = 1e-5
        cache: dict = {}
        Xv = np.array([evaluate(x, p, cache) for x in X])

        def ip(q):
            G, _ = metric_at(g, q)
            Yq = np.array([evaluate(y, q) for y in Y])
            Zq = np.array([evaluate(z, q) for z in Z])
            return float(Yq @ G @ Zq)

        lhs = sum(
            Xv[i]
            * (ip(tuple(np.add(p, h * e))) - ip(tuple(np.subtract(p, h * e))))
            / (2.0 * h)
            for i, e in enumerate(np.eye(n))
        )
        G, _ = metric_at(g, p)
        Yv = np.array([evaluate(y, p, cache) for y in Y])
        Zv = np.array([evaluate(z, p, cache) for z in Z])
        rhs = float(cov_deriv(g, X, Y, p) @ G @ Zv) + float(Yv @ G @ cov_deriv(g, X, Z, p))
        assert math.isclose(lhs, rhs, rel_tol=1e-6, abs_tol=1e-6)


# --- the symbolic reference entries against their dense sums ---------------------


def _dense_sum(terms):
    acc = ZERO
    for t in terms:
        acc = add(acc, t)
    return acc


def _metric_cases():
    ch = Chart.box([(0.5, 1.5)] * 3, blocks=((0,), (1, 2)))
    cases = [MetricField.diagonal(ch, [ONE, parse_expr("exp(2*x0)", ch), ONE])]
    fixture_metrics = (fixtures.polar, fixtures.warped_three, fixtures.cqw_three, fixtures.twisted_flat)
    return cases + [f() for f in fixture_metrics]


def _dense_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ZERO
    for j in range(n):
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = mul(m[0][j], _dense_det(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def _dense_inverse(rows):
    n = len(rows)
    d = _dense_det(rows)
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = _dense_det(minor)
            inv[j][i] = div(neg(cof) if (i + j) % 2 else cof, d)
    return inv


def _dense_gamma(g, ginv):
    n = g.dim
    out = []
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = ZERO
                for l in range(n):
                    bracket = sub(
                        add(diff(g.entries[j][l], i), diff(g.entries[i][l], j)),
                        diff(g.entries[i][j], l),
                    )
                    acc = add(acc, mul(ginv[k][l], bracket))
                out.append(mul(const(0.5), acc))
    return out


def _inverse_cases():
    metrics = _metric_cases()
    ch = Chart.box([(0.5, 1.5)] * 4)
    dense = [["2 + x0^2", "0.1*x1", "0.2"], ["0.1*x1", "3", "x2/9"], ["0.2", "x2/9", "2 + x0*x1"]]
    sparse = [["2", "0", "0.1*x3", "0"], ["0", "1 + x0^2", "0", "0.1"],
              ["0.1*x3", "0", "3", "0"], ["0", "0.1", "0", "2 + x1*x2"]]
    for rows in (dense, sparse):
        chart = Chart.box(ch.domain[: len(rows)])
        metrics.append(MetricField(chart, [[parse_expr(t, chart) for t in r] for r in rows]))
    return metrics


@pytest.mark.parametrize("case", range(7))
def test_det_inverse_and_christoffel_match_dense_sums(case):
    # skipping the minors and brackets that a folded zero multiplies leaves
    # the trees as they were
    g = _inverse_cases()[case]
    n = g.dim
    ginv = _dense_inverse([list(r) for r in g.entries])
    gamma = g.christoffel_entries()
    got = [g.det()] + [e for row in g.inverse_entries() for e in row]
    got += [gamma[k][i][j] for k in range(n) for i in range(n) for j in range(i, n)]
    assert all(gamma[k][i][j] is gamma[k][j][i] for k in range(n) for i in range(n) for j in range(n))
    want = [_dense_det([list(r) for r in g.entries])] + [e for row in ginv for e in row]
    want += _dense_gamma(g, ginv)
    assert compile_tape(got).instrs == compile_tape(want).instrs


# --- stacked evaluation ----------------------------------------------------------


def test_stacked_lc_axioms_rows_match_single_point():
    # bit for bit: the stacked arithmetic is the one-sample arithmetic per row
    plan = SamplePlan(grid=3, margin=0.1, random=4, seed=2)
    for g in (fixtures.polar(), fixtures.torus()[0], fixtures.cqw_three()):
        pts = sample_points(g.chart, plan)
        compat, torsion = _lc_axioms(g, pts)
        for j, p in enumerate(pts):
            assert lc_axiom_residuals(g, p) == (compat[j], torsion[j])


# grid points in plan order: x0 = 1 for samples 0-2, 1.5 for 3-5, 2 for 6-8
ORDER_PLAN = SamplePlan(grid=3, margin=0.0, random=0)


def _positive(r):
    """A check that root r is positive."""
    return (
        r,
        lambda G, vals: vals[:, r] <= 0.0,
        lambda G, v, label: ConstraintError(f"root {r} is {v[r]:.6g} <= 0 at {label}"),
    )


def _stacked_recording(g00, g11, roots=(), checks=()):
    ch = Chart.box([(1.0, 2.0), (0.0, 1.0)], names=("x0", "x1"))
    g = MetricField.diagonal(ch, [parse_expr(g00, ch), parse_expr(g11, ch)])
    pts = sample_points(ch, ORDER_PLAN)
    roots = [parse_expr(r, ch) for r in roots]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = _stacked(g, roots, pts, checks=checks)
        except Exception as e:  # noqa: BLE001 - the outcome under test
            outcome = e
    texts = [str(w.message) for w in caught if w.category is ConditionNumberWarning]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for p in pts:
            try:
                metric_at(g, tuple(float(x) for x in p))
            except (EvalDomainError, NotSPDError):
                break
    pointwise = [str(w.message) for w in caught]
    return outcome, texts, pointwise


def test_stacked_failure_order():
    # ill-conditioned at samples 0-5 and not positive definite from sample 6
    outcome, texts, pointwise = _stacked_recording("1.75 - x0", "1e-9*(1 + x1)")
    assert isinstance(outcome, NotSPDError)
    assert "at (2.0, 0.0)" in str(outcome)
    assert len(texts) == 6 and texts == pointwise

    # a root fails at sample 3, after that sample's metric checks
    outcome, texts, pointwise = _stacked_recording(
        "1.75 - x0", "1e-9*(1 + x1)", ["1 + x1", "sqrt(1.25 - x0)"]
    )
    assert isinstance(outcome, EvalDomainError)
    assert str(outcome) == "sqrt of a negative value: sqrt(1.25 - x0)"
    assert texts == pointwise[:4]

    # a check fails right after its root; checks on one root run in order
    outcome, _, _ = _stacked_recording(
        "1", "1", ["1.25 - x0", "log(1.25 - x0)"], [_positive(0)]
    )
    assert isinstance(outcome, ConstraintError)
    assert str(outcome) == "root 0 is -0.25 <= 0 at (1.5, 0.0)"
    outcome, _, _ = _stacked_recording(
        "1", "1", ["log(1.25 - x0)", "1.25 - x0"], [_positive(1)]
    )
    assert str(outcome) == "log of a nonpositive value: log(1.25 - x0)"
    outcome, _, _ = _stacked_recording(
        "1", "1", ["x1 - 0.25", "1.25 - x0"], [_positive(1), _positive(0)]
    )
    assert str(outcome) == "root 0 is -0.25 <= 0 at (1.0, 0.0)"
    first = (1, lambda G, vals: vals[:, 1] < 0.0, lambda G, v, label: ConstraintError("first"))
    outcome, _, _ = _stacked_recording("1", "1", ["x0", "x1 - 2"], [first, _positive(1)])
    assert str(outcome) == "first"
    outcome, _, _ = _stacked_recording("1", "1", ["x0", "x1 - 2"], [_positive(1), first])
    assert str(outcome) == "root 1 is -2 <= 0 at (1.0, 0.0)"

    # the metric fails at sample 3 before the root that fails there
    outcome, texts, pointwise = _stacked_recording(
        "1 + sqrt(1.25 - x0)", "1e-9*(1 + x1)", ["log(1.25 - x0)"]
    )
    assert str(outcome) == "sqrt of a negative value: sqrt(1.25 - x0)"
    assert texts == pointwise[:3]

    # clean samples return the metric and the root values
    G, vals = _stacked_recording("1", "x0", ["x0*x1"])[0]
    pts = sample_points(Chart.box([(1.0, 2.0), (0.0, 1.0)]), ORDER_PLAN)
    assert np.array_equal(G[:, 1, 1], pts[:, 0])
    assert np.array_equal(vals[:, 0], pts[:, 0] * pts[:, 1])


# --- the Christoffel kernel ---------------------------------------------------------


def _spd_metric(rng, n, depth):
    """B B^T + I for a matrix B of random smooth expressions."""
    ch = Chart.box([(0.1, 1.9)] * n)
    B = [[random_expr(rng, n, depth) for _ in range(n)] for _ in range(n)]
    rows = [[_dense_sum([ONE] * (i == j) + [mul(B[i][k], B[j][k]) for k in range(n)])
             for j in range(n)] for i in range(n)]
    return MetricField(ch, rows)


@settings(max_examples=20)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_levi_civita_kernel_matches_christoffel_trees(n, seed):
    # Gamma (chart_calculus._levi_civita) and d Gamma (nets._dgamma, where
    # the geometry reads it) from swept metric jets against the swept
    # symbolic Christoffel trees and diff of them
    rng = np.random.default_rng(seed)
    g = _spd_metric(rng, n, 2 if n < 4 else 1)
    pts = np.array([random_point(rng, g.chart) for _ in range(3)])
    m = len(pts)
    iu, ju = np.triu_indices(n)
    t = len(iu)
    upper = [g.entries[i][j] for i, j in zip(iu, ju)]
    firsts = [diff(e, p) for p in range(n) for e in upper]
    seconds = [diff(e, q) for p in range(n) for q in range(n) for e in firsts[p * t : (p + 1) * t]]
    vals = compile_tape(upper + firsts + seconds).run(pts)

    def sym(cols):
        out = np.empty(cols.shape[:-1] + (n, n))
        out[..., iu, ju] = out[..., ju, iu] = cols
        return out

    G = sym(vals[:, :t])
    dG = sym(vals[:, t : t * (n + 1)].reshape(m, n, t))
    d2G = sym(vals[:, t * (n + 1) :].reshape(m, n, n, t))
    Ginv, gamma = _levi_civita(G, dG)
    dgamma = nets._dgamma(Ginv, gamma.reshape(m, n, n * n), dG, d2G)

    trees = g.christoffel_entries()
    ref = [trees[k][i][j] for k, i, j in itertools.product(range(n), repeat=3)]
    want = compile_tape(ref + [diff(e, p) for p in range(n) for e in ref]).run(pts)
    got = np.concatenate([gamma.reshape(m, -1), dgamma.reshape(m, -1)], axis=1)
    assert np.all(np.abs(got - want) <= np.maximum(1e-12, 1e-9 * np.abs(want)))


# --- one jet sweep per consumer -------------------------------------------------


def _upper(g):
    """The upper triangle of the metric, in np.triu_indices order."""
    return [g.entries[a][b] for a, b in zip(*np.triu_indices(g.dim))]


def _curved(n):
    """A dense metric with nonconstant entries on [0.5, 1.5]^n."""
    chart = Chart.box([(0.5, 1.5)] * n)
    rows = [[parse_expr(f"{2 + n if a == b else 0.5} + 0.25*x{a}*x{b}^2", chart)
             for b in range(n)] for a in range(n)]
    return MetricField(chart, rows)


def _layout_cases():
    """name -> (call, the metric it reads, the roots of its one tape after
    the metric's upper triangle)."""
    g = _curved(3)
    n, p = g.dim, g.chart.center()
    X = tuple(parse_expr(t, g.chart) for t in ("x1", "1 + x0*x2", "0"))
    Y = tuple(parse_expr(t, g.chart) for t in ("x2^2", "0", "x0*x1"))
    f = parse_expr("x0*x1*x2", g.chart)
    comp = [[parse_expr(f"1 + x{max(a, b)}*x{min(a, b)}", g.chart) for b in range(n)] for a in range(n)]
    phi = SymTensorField(g.chart, comp)
    basis = [tuple(ONE if a == i else ZERO for a in range(n)) for i in range(n)]
    linear = [tuple(var((a + s) % n) for a in range(n)) for s in (1, 2)]

    spec, sphi, _ = fixtures.sum_reciprocal()
    scaled = product_metrics.conformal_scale(product_metrics.build_metric(spec), sphi)
    twisted = random_twisted_spec(np.random.default_rng(3))
    tn = twisted.chart.dim
    E = twisted.chart.center()
    TX = tuple(var(a) for a in range(tn))
    TY = tuple(ONE for _ in range(tn))
    rhos = [rho for rho in twisted.twists if not is_const_one(rho)]
    return {
        "christoffel": (lambda: christoffel(g, p), g, []),
        "cov_deriv": (lambda: cov_deriv(g, X, Y, p), g, [*X, *Y]),
        "grad_field": (lambda: grad_field(g, f, p), g, [f]),
        "lc_axioms": (lambda: lc_axiom_residuals(g, p), g, [c for V in basis + linear for c in V]),
        "connection": (
            lambda: verify_connection_identity(twisted, TX, TY, E),
            product_metrics.build_metric(twisted),
            [*TX, *TY, *_upper(twisted._product_metric), *rhos],
        ),
        "spherical": (
            lambda: spherical_factor_check(spec, sphi, 1, (0.5, 0.5)),
            scaled,
            [log(sphi), sphi, powc(sphi, -1.0), spec.twists[1]],
        ),
        "codazzi": (
            lambda: codazzi.codazzi_residual(g, phi, p, np.inf),
            g,
            [e for row in comp for e in row],
        ),
    }


@pytest.mark.parametrize("name", list(_layout_cases()))
def test_consumers_tape_metric_jets_as_one_block(name, monkeypatch):
    # every consumer reads its partials off one jet sweep of one tape: the
    # upper triangle of the metric as one block, first, then its inputs,
    # with no derivative tree among them
    call, g, want = _layout_cases()[name]
    tapes = []
    compile_ = chart_calculus.compile_tape

    def spy(roots):
        tapes.append(list(roots))
        return compile_(roots)

    monkeypatch.setattr(chart_calculus, "compile_tape", spy)
    call()
    monkeypatch.undo()
    (roots,) = tapes
    assert compile_tape(roots).instrs == compile_tape(_upper(g) + want).instrs


# At (0.5, 0.5) the metric partials d_0 g_11 and d_1 g_00 both fail, and so
# do the partials of the consumers' other inputs. Values are checked first;
# where they are clean, the diff trees of the inputs whose jets are not
# finite name the error, the metric's entries first, so d_0 g_11 precedes
# d_1 g_00 and every partial of another input
_SINGULAR = ("2 + ((x1 - 0.5)^2)^0.75", "2 + ((x0 - 0.5)^2)^0.75")
_D0G11 = "zero raised to a negative power: ((x0 - 0.5)^2)^-0.25"
_ROOT = "zero raised to a negative power: ((x1 - 0.5)^2)^-0.375"


def _singular_factors():
    """1 + 1 factors whose product metric is diag(_SINGULAR[1], 1)."""
    x0, x1 = (Chart.box([(0.0, 1.0)], names=(name,)) for name in ("x0", "x1"))
    return FactorSpec(x0, ((parse_expr(_SINGULAR[1], x0),),)), FactorSpec(x1, ((ONE,),))


def _order_cases():
    chart = Chart.box([(0.0, 1.0)] * 2)
    g = MetricField.diagonal(chart, [parse_expr(t, chart) for t in _SINGULAR])
    p = (0.5, 0.5)
    singular = parse_expr("((x1 - 0.5)^2)^0.625", chart)
    phi = SymTensorField.diagonal(chart, [add(const(2.0), singular), ONE])
    twisted = ProductSpec("twisted", _singular_factors(), (ONE, parse_expr("1 + 0.25*x0", chart)))
    product = ProductSpec("product", _singular_factors(), (ONE, ONE))
    return {
        "christoffel": (lambda: christoffel(g, p), _D0G11),
        "lc_axioms": (lambda: lc_axiom_residuals(g, p), _D0G11),
        # the partials of Y fail too, after the metric's
        "cov_deriv": (lambda: cov_deriv(g, (ONE, ONE), (singular, ZERO), p), _D0G11),
        # the partials of Phi^0_0 fail too, after the metric's
        "codazzi": (lambda: codazzi.codazzi_residual(g, phi, p, np.inf), _D0G11),
        # the value of a field fails, before any jet is read
        "connection": (
            lambda: verify_connection_identity(twisted, (diff(singular, 1), ONE), (ONE, ONE), p), _ROOT),
        # phi^2 scales the metric, whose entries come first
        "spherical": (lambda: spherical_factor_check(product, add(ONE, singular), 1, p), _D0G11),
    }


@pytest.mark.parametrize("name", list(_order_cases()))
def test_metric_partial_and_other_root_fail_in_documented_order(name):
    call, message = _order_cases()[name]
    with pytest.raises(EvalDomainError) as info:
        call()
    assert str(info.value) == message


def test_log_determinant_of_one_by_one_blocks_matches_slogdet():
    # a 1 x 1 block is its own determinant: the sign is slogdet's exactly and
    # the log within 1 ulp, at zeros, negatives, subnormals and near 1e+-300
    x = np.array([0.0, -0.0, -3.0, 2.5, 5e-324, -5e-324, 2.2e-310, 1e-300, -1e-300,
                  1e300, -1e300, 1.7e308])
    with np.errstate(all="ignore"):
        sign, logdet = chart_calculus._slogdet(x[:, None, None])
        want_sign, want_log = np.linalg.slogdet(x[:, None, None])
    assert np.array_equal(sign, want_sign)
    assert np.array_equal(np.signbit(sign), np.signbit(want_sign))
    finite = np.isfinite(want_log)
    assert np.array_equal(logdet[~finite], want_log[~finite])
    assert (np.abs(logdet[finite] - want_log[finite]) <= np.spacing(np.abs(want_log[finite]))).all()
    # larger blocks are LAPACK's
    A = np.random.default_rng(3).standard_normal((5, 2, 2))
    for got, want in zip(chart_calculus._slogdet(A), np.linalg.slogdet(A)):
        assert np.array_equal(got, want)
