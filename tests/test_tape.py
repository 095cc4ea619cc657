"""Evaluation tapes against the pointwise interpreter, and deep expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthonet import scalar_fields
from orthonet.errors import EvalDomainError
from orthonet.scalar_fields import (
    Binary,
    Chart,
    Const,
    Power,
    Unary,
    Var,
    add,
    compile_tape,
    const,
    diff,
    eval_jet2,
    evaluate,
    format_expr,
    parse_expr,
    substitute,
    var,
)

DIM = 2
UNARY = ["neg", "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "sqrt", "abs"]
# 0 and negatives reach the log, sqrt, division and power rules; 1000 makes
# exp, sinh, cosh and powers overflow
SPECIAL = [0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1000.0]
EXPONENTS = [2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5, 400.0]


def _trees(leaves):
    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(UNARY), children).map(lambda t: Unary(*t)),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Binary(*t)
            ),
            st.tuples(children, st.sampled_from(EXPONENTS)).map(lambda t: Power(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=10)


_constants = st.sampled_from(SPECIAL).map(Const)
_exprs = _trees(st.one_of(st.integers(0, DIM - 1).map(Var), _constants))
_coordinate = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0))
_points = st.lists(
    st.lists(_coordinate, min_size=DIM, max_size=DIM), min_size=1, max_size=6
)


@st.composite
def _roots(draw):
    roots = draw(st.lists(_exprs, min_size=1, max_size=4))
    # shared node objects across roots, on top of the structural repeats
    roots.append(Binary("*", roots[0], roots[-1]))
    return roots


def _interpret(roots, points):
    """Values row by row, or (point index, error) of the first failure."""
    rows = []
    for j, p in enumerate(points):
        cache: dict = {}
        try:
            rows.append([evaluate(r, tuple(p), cache) for r in roots])
        except EvalDomainError as e:
            return None, (j, e)
    return np.array(rows), None


@settings(max_examples=300)  # enough to reach every error kind
@given(_roots(), _points)
def test_tape_matches_interpreter(roots, points):
    want, failure = _interpret(roots, points)
    tape = compile_tape(roots)
    sweep = tape.sweep(points)
    failed = np.flatnonzero(sweep.first_bad < tape.size)
    if failure is None:
        assert failed.size == 0
        got = tape.run(points)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        return
    j, err = failure
    assert failed.size and failed[0] == j
    with pytest.raises(EvalDomainError) as raised:
        tape.run(points)
    assert raised.value.subexpr == err.subexpr
    assert str(raised.value) == str(err)
    assert str(sweep.error(j)) == str(err)


@pytest.mark.parametrize(
    "text, message",
    [
        ("log(x0 - 0.5)", "log of a nonpositive value"),
        ("sqrt(x0 - 0.75)", "sqrt of a negative value"),
        ("x1/(x0 - 0.5)", "division by zero"),
        ("(x0 - 0.5)^-2", "zero raised to a negative power"),
        ("(x0 - 0.75)^1.5", "fractional power of a negative base"),
        ("(1000*x0)^400", "overflow in power"),
        ("cosh(2000*x0)", "overflow"),
        ("exp(700*x0)*exp(700*x1)", "non-finite value"),
    ],
)
def test_each_domain_rule_matches_interpreter(text, message):
    e = parse_expr(text, Chart.box([(0.0, 1.0)] * 2))
    pts = [[1.0, 0.5], [0.5, 1.0]]
    _, (j, err) = _interpret([e], pts)
    assert str(err).startswith(message)
    tape = compile_tape([e])
    with pytest.raises(EvalDomainError) as raised:
        tape.run(pts)
    assert str(raised.value) == str(err)
    assert np.flatnonzero(tape.sweep(pts).first_bad < tape.size)[0] == j


def test_structurally_equal_nodes_share_a_slot():
    ch = Chart.box([(0.1, 1.0)] * 2)
    a = parse_expr("sin(x0) * x1 + sin(x0)", ch)
    b = parse_expr("sin(x0) * x1", ch)
    tape = compile_tape([a, b])
    # x0, sin(x0), x1, the product and the sum; b is all repeats
    assert tape.size == 5
    assert tape.bounds == (0, 5, 5)
    assert tape.root_slots[1] == 3


def test_call_bodies_are_inlined():
    ch = Chart.box([(0.1, 1.0)] * 2)
    body = parse_expr("log(x0) + 1", Chart.box([(0.0, 1.0)]))
    e = parse_expr("f(x0 * x1) - f(x1)", ch, {"f": body})
    p = np.array([[0.3, 0.7], [0.9, 0.2]])
    got = compile_tape([e]).run(p)[:, 0]
    want = [evaluate(e, tuple(q)) for q in p]
    assert np.allclose(got, want, rtol=1e-14)
    # the error names the expanded sub-expression of the chart
    with pytest.raises(EvalDomainError, match=r"log of a nonpositive value: log\(x0\*x1\)"):
        compile_tape([e]).run([[0.5, -1.0]])


def test_first_failing_sample_is_reported():
    ch = Chart.box([(-1.0, 1.0)] * 2)
    e = parse_expr("sqrt(x1) + 1/x0", ch)
    tape = compile_tape([e])
    pts = [[0.5, 0.5], [0.0, 0.2], [0.5, -0.1]]
    sweep = tape.sweep(pts)
    assert list(sweep.first_bad < tape.size) == [False, True, True]
    with pytest.raises(EvalDomainError, match=r"division by zero: 1/x0"):
        tape.run(pts)
    with pytest.raises(EvalDomainError, match=r"sqrt of a negative value: sqrt\(x1\)"):
        tape.run(pts[2:])


def test_chunked_sweep_matches_one_pass(monkeypatch):
    ch = Chart.box([(-1.0, 1.0)] * 2)
    e = parse_expr("exp(x0) * sin(x1) + 1/(x0 - 0.3)", ch)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(40, 2))
    pts[29] = (0.3, 0.5)
    tape = compile_tape([e])
    whole = tape.sweep(pts)
    # three points per chunk
    monkeypatch.setattr(scalar_fields, "_CHUNK", 3 * tape.size)
    parts = tape.sweep(pts)
    assert np.array_equal(parts.values, whole.values, equal_nan=True)
    assert np.array_equal(parts.first_bad, whole.first_bad)
    assert list(np.flatnonzero(parts.first_bad < tape.size)) == [29]
    assert str(parts.error(29)) == "division by zero: 1/(x0 - 0.3)"


# --- jets by forward propagation ---------------------------------------------------


def _symbolic_jets(roots, points):
    """The diff-tree jets of the roots, laid out as Tape.jet_sweep lays them
    out; per point, whether a slot of their tape is subnormal; and per point
    the largest finite slot value of that tape."""
    iu, ju = np.triu_indices(DIM)
    firsts = [[diff(r, p) for r in roots] for p in range(DIM)]
    seconds = [[diff(firsts[p][k], q) for k in range(len(roots))] for p, q in zip(iu, ju)]
    tape = compile_tape([e for row in [roots, *firsts, *seconds] for e in row])
    pts = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        V = np.abs(tape._slot_values(pts))
    subnormal = ((V != 0.0) & (V < np.finfo(float).tiny)).any(axis=0)
    largest = np.where(np.isfinite(V), V, 0.0).max(axis=0)
    values = tape.sweep(pts).values.reshape(len(pts), 1 + DIM + len(iu), len(roots))
    return values, subnormal, largest


@settings(max_examples=200, deadline=None)
@given(_roots(), _points)
def test_jet_sweep_matches_diff_trees(roots, points):
    tape = compile_tape(roots)
    plain, jet = tape.sweep(points), tape.jet_sweep(points)
    # the value rows are those of a plain sweep, and so are their errors
    assert np.array_equal(jet.first_bad, plain.first_bad)
    assert np.array_equal(jet.values, plain.values, equal_nan=True)
    assert np.array_equal(jet.jets[:, 0], plain.values, equal_nan=True)
    want, subnormal, largest = _symbolic_jets(roots, points)
    # the two evaluations round their terms in different orders, so x is
    # the largest term the trees take at the point (x0*(1/x0) at 1e-30
    # cancels terms of 1e60 in its second partial). Points where the trees
    # pass through a subnormal value are skipped: there the trees lose the
    # digits (x1/x0 at x0 = 1e-159 reads d_1 as x0/x0^2).
    x = largest[:, None, None]
    with np.errstate(all="ignore"):
        both = np.isfinite(want) & np.isfinite(jet.jets) & ~subnormal[:, None, None]
        close = np.abs(jet.jets - want) <= np.maximum(1e-12, 1e-9 * x)
    assert close[both].all()


def test_chunked_jet_sweep_matches_one_pass(monkeypatch):
    ch = Chart.box([(-1.0, 1.0)] * 2)
    e = parse_expr("exp(x0) * sin(x1) / (x0 - 0.3) + sqrt(x1 + 1)^3", ch)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(40, 2))
    pts[11] = (0.3, 0.5)
    tape = compile_tape([e, diff(e, 1)])
    whole = tape.jet_sweep(pts)
    # three points per chunk: a chunk counts the six jet rows of every slot
    monkeypatch.setattr(scalar_fields, "_CHUNK", 3 * 6 * tape.size)
    parts = tape.jet_sweep(pts)
    assert np.array_equal(parts.jets, whole.jets, equal_nan=True)
    assert np.array_equal(parts.values, whole.values, equal_nan=True)
    assert np.array_equal(parts.first_bad, whole.first_bad)
    assert list(np.flatnonzero(parts.first_bad < tape.size)) == [11]
    assert str(parts.error(11)) == "division by zero: exp(x0)*sin(x1)/(x0 - 0.3)"


def test_eval_jet2_names_the_error_of_the_derivative_tree():
    # sqrt is 0 at 0, its jet is not finite, and the tree 1/(2*sqrt(x0)) fails
    e = parse_expr("sqrt(x0)", Chart.box([(0.0, 1.0)]))
    with pytest.raises(EvalDomainError) as want:
        evaluate(diff(e, 0), (0.0,))
    with pytest.raises(EvalDomainError) as got:
        eval_jet2(e, (0.0,))
    assert str(got.value) == str(want.value) == "division by zero: 1/(2*sqrt(x0))"
    # where the trees evaluate, they give the jet: the jet of sqrt(x0 - x0)
    # is inf*0, but its partials fold to zero as trees
    e = parse_expr("x1^2 + sqrt(x0 - x0)", Chart.box([(0.0, 1.0)] * 2))
    sweep = compile_tape([e]).jet_sweep([(0.5, 0.25)])
    assert sweep.first_bad[0] == sweep.tape.size and not np.isfinite(sweep.jets).all()
    jet = eval_jet2(e, (0.5, 0.25))
    assert (jet.value, list(jet.grad), jet.hess.tolist()) == (0.0625, [0.0, 0.5], [[0.0, 0.0], [0.0, 2.0]])


def test_repair_mends_only_the_roots_whose_jets_are_not_finite():
    # sample 0 fails in value, so repair leaves it to the value error; at
    # sample 1 the jets of roots 1 and 2 are not finite and the tree
    # (x0 - 1)^-0.5 of root 2 fails; at sample 2 only root 1's jet is inf*0,
    # and its trees fold to zero
    ch = Chart.box([(0.0, 2.0)] * 2)
    roots = [parse_expr(t, ch) for t in ("x0^2", "x0 + sqrt(x1 - x1)", "(x0 - 1)^1.5", "sqrt(x1)")]
    sweep = compile_tape(roots).jet_sweep([(0.5, 0.25), (1.0, 0.25), (1.5, 0.25)])
    before = sweep.jets.copy()
    errors = sweep.repair(3)
    assert list(errors) == [1]
    assert str(errors[1]) == "zero raised to a negative power: (x0 - 1)^-0.5"
    assert np.array_equal(sweep.jets[:2], before[:2], equal_nan=True)
    assert sweep.jets[2, :, 1].tolist() == [1.5, 1.0, 0.0, 0.0, 0.0, 0.0]
    # roots past the first three keep their jets
    assert np.array_equal(np.delete(sweep.jets[2], 1, axis=1), np.delete(before[2], 1, axis=1))


def test_repair_reads_the_values_of_its_roots_only():
    # at (0.5, 0.25) root 2 fails in value, and the jets of roots 0 and 1 are
    # inf * 0 at both points; repair(2) reads the values of roots 0 and 1
    # only, so it mends both roots at both points, while a repair of every
    # root leaves (0.5, 0.25) to the value error, and repair(start=1) mends
    # root 1 alone, at (1.5, 0.25)
    ch = Chart.box([(0.0, 2.0)] * 2)
    roots = [parse_expr(t, ch) for t in ("x0 + sqrt(x1 - x1)", "x1 + sqrt(x0 - x0)", "log(x0 - 1)")]
    pts = [(0.5, 0.25), (1.5, 0.25)]
    x0 = [[0.5, 1.0, 0.0, 0.0, 0.0, 0.0], [1.5, 1.0, 0.0, 0.0, 0.0, 0.0]]
    x1 = [0.25, 0.0, 1.0, 0.0, 0.0, 0.0]
    first = compile_tape(roots).jet_sweep(pts)
    assert first.repair(2) == {}
    assert first.jets[:, :, 0].tolist() == x0 and first.jets[:, :, 1].tolist() == [x1, x1]
    every = compile_tape(roots).jet_sweep(pts)
    assert every.repair() == {}
    assert not np.isfinite(every.jets[0, :, :2]).all()
    assert every.jets[1, :, 0].tolist() == x0[1] and every.jets[1, :, 1].tolist() == x1
    later = compile_tape(roots).jet_sweep(pts)
    assert later.repair(start=1) == {}
    assert (~np.isfinite(later.jets[:, :, 0])).any(axis=1).all()
    assert not np.isfinite(later.jets[0, :, 1]).all() and later.jets[1, :, 1].tolist() == x1


class _GeneralRules(scalar_fields.Tape):
    """A tape whose jets take the general product and quotient rules at every
    slot, a constant operand included: the reference of the rule that scales
    a whole jet by a constant factor or divisor."""

    def _slot_jets(self, points):
        m, n = points.shape
        iu, ju = np.triu_indices(n)
        J = np.zeros((self.size, 1 + n + len(iu), m))
        J[self._const_slots, 0] = self._const_values[:, None]
        J[self._var_slots, 0] = points.T[self._var_index]
        J[self._var_slots, 1 + self._var_index] = 1.0
        d1, d2 = slice(1, n + 1), slice(n + 1, None)
        for k, ins in self._ops:
            op, a, out = ins[0], J[ins[1]], J[k]
            if op in ("+", "-"):
                scalar_fields._UFUNC[op](a, J[ins[2]], out=out)
            elif op == "*":
                b = J[ins[2]]
                ga, gb = a[d1], b[d1]
                out[0] = a[0] * b[0]
                out[d1] = ga * b[0] + a[0] * gb
                out[d2] = a[d2] * b[0] + a[0] * b[d2] + ga[iu] * gb[ju] + ga[ju] * gb[iu]
            elif op == "/":
                # the quotient q = a/b through a = q b
                b = J[ins[2]]
                ga, gb = a[d1], b[d1]
                q = out[0] = a[0] / b[0]
                gq = out[d1] = (ga - q * gb) / b[0]
                out[d2] = (a[d2] - q * b[d2] - gq[iu] * gb[ju] - gq[ju] * gb[iu]) / b[0]
            else:
                if op == "^":
                    c = ins[2]
                    out[0] = np.power(a[0], c)
                    f1 = c * np.power(a[0], c - 1.0)
                    f2 = c * (c - 1.0) * np.power(a[0], c - 2.0)
                else:
                    out[0] = scalar_fields._UFUNC[op](a[0])
                    f1, f2 = scalar_fields._unary_jets(op, a[0])
                out[d1] = f1 * a[d1]
                out[d2] = f1 * a[d2] + f2 * (a[d1][iu] * a[d1][ju])
        return J


@pytest.mark.parametrize("c", [-2.5, 1e-300, 1e300])
def test_constant_factor_jets_match_the_product_and_quotient_rules(c):
    # c*f, f*c and f/c scale the whole jet of f in one call; wherever the
    # general rules give finite jets these are the same, and where f
    # overflows or fails (exp(800), division by zero at x1 = 0.5, the
    # infinite partial of sqrt(x1) at x1 = 0, whose diff tree fails), the
    # failing slots and the errors of Sweep.repair are too
    ch = Chart.box([(-1.0, 1.0)] * DIM)
    fs = [parse_expr(t, ch) for t in (
        "exp(x0) / (x1 - 0.5)", "(x0^2 + 1)^-1.5 * exp(x1)", "sqrt(x1) * exp(x0)^2 / (x0 + 2)")]
    roots = [r for f in fs for r in (Binary("*", Const(c), f), Binary("*", f, Const(c)),
                                     Binary("/", f, Const(c)))]
    pts = [(0.3, 0.2), (-1.2, 2.0), (800.0, 0.1), (0.4, 0.5), (0.7, 0.0), (200.0, 0.3),
           (-3.0, 1.5), (1e-3, 1e-160)]
    tape = compile_tape(roots)
    reference = _GeneralRules(tape.nodes, tape.instrs, tape.root_slots, tape.bounds)
    got, want = tape.jet_sweep(pts), reference.jet_sweep(pts)
    assert np.array_equal(got.first_bad, want.first_bad)
    assert (got.first_bad < tape.size).sum() >= 2
    for before in (True, False):
        finite = np.isfinite(want.jets)
        assert finite.any()
        assert np.array_equal(got.jets[finite], want.jets[finite])
        # a root's jet at a point is finite under one rule where it is under the other
        assert np.array_equal(np.isfinite(got.jets).all(axis=1), finite.all(axis=1))
        if before:
            errors = {j: str(e) for j, e in got.repair().items()}
            assert errors == {j: str(e) for j, e in want.repair().items()}
            assert errors  # the diff tree of sqrt(x1) fails at x1 = 0


# --- deep expressions ----------------------------------------------------------


def _long_sum(terms: int):
    e = var(0)
    for k in range(terms - 1):
        e = add(e, Binary("*", const(0.5 + k % 7), var(k % 2)))
    return e


def test_diff_of_a_long_sum():
    e = _long_sum(500)
    d = diff(e, 0)
    p = (0.3, 0.9)
    want = 1.0 + sum(0.5 + k % 7 for k in range(499) if k % 2 == 0)
    assert math.isclose(compile_tape([d]).run([p])[0, 0], want, rel_tol=1e-12)


def test_format_and_substitute_of_a_long_sum():
    ch = Chart.box([(0.0, 1.0)] * 2)
    e = _long_sum(5000)
    text = format_expr(e)
    assert text.count("+") == 4999
    back = parse_expr(text, ch)
    swapped = substitute(back, {0: var(1), 1: var(0)})
    p = np.array([[0.25, 0.75]])
    assert math.isclose(
        compile_tape([swapped]).run(p)[0, 0],
        compile_tape([e]).run(p[:, ::-1])[0, 0],
        rel_tol=1e-12,
    )


@settings(max_examples=50)
@given(st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=1, max_size=4))
def test_first_is_the_first_point_then_the_first_mask_there(rows):
    # the one rule for the failure a batch reports, against a loop over
    # points that checks the masks of each point in order
    masks = [np.array(r) for r in rows]
    want = next(((j, q) for j in range(6) for q, r in enumerate(rows) if r[j]), None)
    assert scalar_fields._first(*masks) == want
