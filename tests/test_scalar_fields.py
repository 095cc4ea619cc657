"""Expression engine: parsing, evaluation, differentiation, jets."""

import math

import numpy as np
import pytest

from conftest import random_expr, random_point
from orthonet.errors import EvalDomainError, ParseError
from orthonet.scalar_fields import (
    Chart,
    ONE,
    ZERO,
    add,
    apply_unary,
    compile_tape,
    const,
    diff,
    div,
    eval_jet2,
    evaluate,
    fd_oracle,
    format_expr,
    free_vars,
    log,
    mul,
    parse_expr,
    powc,
    substitute,
    var,
)


def test_chart_box_basics():
    ch = Chart.box([(0.0, 1.0), (-1.0, 3.0)], names=("a", "b"), blocks=((0,), (1,)))
    assert ch.dim == 2
    assert ch.names == ("a", "b")
    assert ch.center() == (0.5, 1.0)
    assert ch.contains((0.2, 0.0))
    assert not ch.contains((1.2, 0.0))


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart.box([(1.0, 1.0)])
    with pytest.raises(ValueError):
        Chart.box([(0.0, 1.0)] * 2, names=("a", "a"))
    with pytest.raises(ValueError):
        Chart.box([(0.0, 1.0)] * 2, blocks=((0,),))


def test_parse_format_round_trip():
    ch = Chart.box([(0.1, 2.0)] * 2, names=("x0", "x1"))
    texts = [
        "x0 + x1",
        "x0^2 * sin(x1)",
        "exp(x0) / (1 + x1)",
        "1/(x0*x1)",
        "(2 + cos(x0))^2",
        "-x0 + x1^-2",
        "sqrt(x0) * log(1 + x1)",
    ]
    for text in texts:
        e = parse_expr(text, ch)
        back = parse_expr(format_expr(e, ch.names), ch)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = random_point(rng, ch)
            assert math.isclose(evaluate(e, p), evaluate(back, p), rel_tol=1e-12)


def test_parse_named_functions():
    ch = Chart.box([(0.2, 1.0)], names=("t",))
    aux = Chart.box([(-10.0, 10.0)], names=("s",))
    h = parse_expr("1 - 2/s", aux)
    e = parse_expr("h(t^2) + 1", ch, functions={"h": h})
    t = 0.5
    assert math.isclose(evaluate(e, (t,)), (1.0 - 2.0 / t**2) + 1.0, rel_tol=1e-14)
    # chain rule through the expanded body
    d = diff(e, 0)
    assert math.isclose(evaluate(d, (t,)), (2.0 / t**4) * 2.0 * t, rel_tol=1e-12)


def test_named_functions_expand_to_the_substituted_tree():
    ch = Chart.box([(0.2, 1.0)] * 2)
    aux = Chart.box([(-10.0, 10.0)], names=("s",))
    functions = {"f": parse_expr("log(s) + s^2", aux), "c": parse_expr("3", aux)}
    e = parse_expr("f(x0*x1) - f(sin(x1)) + c(x0/0)", ch, functions)
    by_hand = parse_expr("(log(x0*x1) + (x0*x1)^2) - (log(sin(x1)) + sin(x1)^2) + 3", ch)
    assert compile_tape([e]).instrs == compile_tape([by_hand]).instrs
    # the expanded tree prints and parses back without the declarations
    back = parse_expr(format_expr(e), ch)
    assert compile_tape([back]).instrs == compile_tape([e]).instrs
    # a body that ignores its variable drops its argument, division by zero
    # included
    assert free_vars(parse_expr("c(x0/0)", ch, functions)) == frozenset()


def test_function_body_may_read_only_its_variable():
    ch = Chart.box([(0.2, 1.0)] * 2)
    bodies = {"f": parse_expr("x0", ch), "g": parse_expr("x0*x1", ch)}
    with pytest.raises(ValueError, match="function 'g' reads variable 1"):
        parse_expr("f(x1)", ch, bodies)


def test_parse_errors_carry_position():
    ch = Chart.box([(0.0, 1.0)], names=("x0",))
    for text in ("x0 +", "x0 ** 2", "nope(x0)", "x0 @ 1", "(x0", "x0^x0"):
        with pytest.raises(ParseError) as ei:
            parse_expr(text, ch)
        assert isinstance(ei.value.position, int)
        assert "position" in str(ei.value)


def test_unknown_coordinate_is_parse_error():
    ch = Chart.box([(0.0, 1.0)], names=("u",))
    with pytest.raises(ParseError):
        parse_expr("u + v", ch)


def test_constant_folding_and_identities():
    x = var(1)
    assert add(const(2.0), const(3.0)).value == 5.0
    assert mul(ONE, x) is x
    assert mul(x, ONE) is x
    assert mul(ZERO, x) is ZERO
    assert add(ZERO, x) is x
    assert powc(x, 1.0) is x
    assert powc(const(2.0), 3.0).value == 8.0
    assert apply_unary("exp", ZERO).value == 1.0


def test_free_vars_and_substitute():
    ch = Chart.box([(0.1, 1.0)] * 3)
    e = parse_expr("x0 * sin(x2) + 1", ch)
    assert free_vars(e) == {0, 2}
    swapped = substitute(e, {0: var(1), 2: var(0)})
    assert free_vars(swapped) == {0, 1}
    p = (0.3, 0.7, 0.9)
    assert math.isclose(
        evaluate(swapped, p), p[1] * math.sin(p[0]) + 1.0, rel_tol=1e-14
    )


def test_diff_is_memoized_per_node():
    ch = Chart.box([(0.1, 1.0)] * 2)
    e = parse_expr("exp(x0 * x1)", ch)
    assert diff(e, 0) is diff(e, 0)
    assert diff(e, 0) is not diff(e, 1)


def test_derivatives_match_fd_seeded():
    ch = Chart.box([(0.3, 1.1)] * 3)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        e = random_expr(rng, 3)
        p = random_point(rng, ch, margin=0.1)
        jet = eval_jet2(e, p)
        gfd, hfd = fd_oracle(e, p, 1e-4, chart=ch)
        scale = 1.0 + float(np.abs(jet.grad).max()) + float(np.abs(jet.hess).max())
        assert float(np.abs(jet.grad - gfd).max()) / scale < 5e-7
        assert float(np.abs(jet.hess - hfd).max()) / scale < 5e-6


def test_jet_hessian_exactly_symmetric():
    ch = Chart.box([(0.3, 1.1)] * 4)
    rng = np.random.default_rng(11)
    for _ in range(10):
        e = random_expr(rng, 4)
        p = random_point(rng, ch)
        jet = eval_jet2(e, p)
        assert np.array_equal(jet.hess, jet.hess.T)


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(log(var(0)), (-1.0,))
    with pytest.raises(EvalDomainError):
        evaluate(div(ONE, var(0)), (0.0,))
    with pytest.raises(EvalDomainError):
        evaluate(powc(var(0), 0.5), (-2.0,))


def test_format_non_finite_constants():
    # the integer test must not run int() on a non-finite value
    assert [format_expr(const(v)) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    assert format_expr(const(1e15)) == "1000000000000000"
    assert format_expr(const(1e16)) == "1e+16"


@pytest.mark.parametrize(
    "text, message",
    [
        ("x0*1e400", "number 1e400 is not finite (at position 3)"),
        ("x0^1e400", "number 1e400 is not finite (at position 3)"),
        ("x0 + 1e308*10", "constant folds to inf (at position 10)"),
        ("1e308 + 1e308 - x0", "constant folds to inf (at position 6)"),
        ("x0*(1e200*1e200 - 1e200*1e200)", "constant folds to inf (at position 9)"),
        ("sin(1e300*1e300)", "constant folds to inf (at position 9)"),
        ("x0*(2/1e-320)", "constant folds to inf (at position 5)"),
        ("f(1e10)", "constant folds to inf (at position 0)"),
    ],
)
def test_non_finite_constants_are_refused(text, message):
    # no such constant has a text parse_expr accepts back
    ch = Chart.box([(0.0, 1.0)])
    body = parse_expr("sin(x0*1e300)", ch)
    with pytest.raises(ParseError) as raised:
        parse_expr(text, ch, {"f": body})
    assert str(raised.value) == message


def test_eval_cache_is_reusable():
    ch = Chart.box([(0.1, 1.0)] * 2)
    e = parse_expr("sin(x0) * exp(x1) + x0^2", ch)
    p = (0.4, 0.6)
    cache: dict = {}
    v1 = evaluate(e, p, cache)
    assert cache
    v2 = evaluate(e, p, cache)
    assert v1 == v2


def test_shared_cache_survives_node_turnover():
    # a long-lived cache must pin its nodes: an id-keyed cache hands a
    # recycled address the previous node's value (198/200 iterations here)
    cache: dict = {}
    p = (0.5,)
    for k in range(200):
        e = add(var(0), const(float(k)))
        assert evaluate(e, p, cache) == 0.5 + k
        del e


def test_fd_oracle_domain_guard():
    ch = Chart.box([(0.0, 1.0)])
    e = parse_expr("x0^2", ch)
    with pytest.raises(ValueError):
        fd_oracle(e, (0.0005,), 1e-3, chart=ch)
    with pytest.raises(ValueError):
        fd_oracle(e, (0.5,), -1.0)


def test_a_superscript_digit_is_an_unexpected_character():
    # str.isdigit holds for '²', which float refuses with a ValueError;
    # numbers start at what str.isdecimal accepts, as float does
    ch = Chart.box([(0.0, 1.0)] * 2, names=("t", "x0"))
    with pytest.raises(ParseError) as err:
        parse_expr("t*²", ch)
    assert str(err.value) == "unexpected character '²' (at position 2)"
    assert err.value.position == 2


def test_a_superscript_digit_stays_part_of_an_identifier():
    ch = Chart.box([(0.0, 1.0)] * 2, names=("t", "x0"))
    with pytest.raises(ParseError) as err:
        parse_expr("x0²", ch)
    assert str(err.value) == "unknown identifier 'x0²' (at position 0)"


def test_a_decimal_digit_of_another_script_is_a_number():
    ch = Chart.box([(0.0, 1.0)] * 2, names=("t", "x0"))
    assert format_expr(parse_expr("٣*x0", ch), ch.names) == format_expr(parse_expr("3*x0", ch), ch.names) == "3*x0"


def test_every_node_is_built_through_expr_init(monkeypatch):
    # a wrapper of Expr.__init__ sees every node built, as the benchmark's
    # count of nodes built reads it, and each starts with no cached partials
    from orthonet import scalar_fields as sf

    built = []
    init = sf.Expr.__init__

    def counted(node, *args, **kwargs):
        built.append(type(node).__name__)
        init(node, *args, **kwargs)

    monkeypatch.setattr(sf.Expr, "__init__", counted)
    x = sf.Var(0)
    nodes = [sf.Const(2.0), x, sf.Unary("sin", x), sf.Binary("*", x, x), sf.Power(x, 3.0)]
    assert built == ["Var", "Const", "Unary", "Binary", "Power"]
    assert all(e._dcache is sf._NO_PARTIALS for e in nodes)
    built.clear()
    diff(parse_expr("sin(x0) * exp(x1) + x0^2", Chart.box([(0.0, 1.0)] * 2)), 0)
    assert built
