import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiclab.observables import (
    Const,
    Group,
    ObservableParseError,
    Var,
    parse_observable,
)


def test_parse_constant_routes_position_only():
    obs = parse_observable("1")
    assert obs.routing == "position_only"
    assert obs(0.3, -2.0) == pytest.approx(1.0)


def test_parse_gaussian_is_general():
    obs = parse_observable("exp(-x^2 - xi^2)")
    assert obs.routing == "general"
    assert obs(0.0, 0.0) == pytest.approx(1.0)
    assert obs(1.0, 1.0) == pytest.approx(math.exp(-2.0))


def test_routing_classes():
    assert parse_observable("x^2").routing == "position_only"
    assert parse_observable("xi^2").routing == "momentum_only"
    assert parse_observable("x^2 + xi^2").routing == "split"
    assert parse_observable("exp(-x^2) + xi^2").routing == "split"
    assert parse_observable("x * xi").routing == "general"


def test_error_position_dangling_power():
    with pytest.raises(ObservableParseError) as err:
        parse_observable("x^")
    assert err.value.offset == 2
    assert "integer" in err.value.expected


def test_error_position_bad_token():
    with pytest.raises(ObservableParseError) as err:
        parse_observable("x + * 2")
    assert err.value.offset == 4


def test_error_unknown_name():
    with pytest.raises(ObservableParseError) as err:
        parse_observable("x + y")
    assert err.value.offset == 4


def test_error_unbalanced_paren():
    with pytest.raises(ObservableParseError) as err:
        parse_observable("exp(x")
    assert err.value.offset == 5


def test_leading_minus_allowed():
    obs = parse_observable("-x^2 + 1")
    assert obs(2.0, 0.0) == pytest.approx(-3.0)


def test_precedence_and_power():
    obs = parse_observable("2 * x^3 - xi")
    assert obs(2.0, 5.0) == pytest.approx(11.0)
    obs2 = parse_observable("(x + 1)^2")
    assert obs2(2.0, 0.0) == pytest.approx(9.0)


def test_print_parse_round_trip():
    cases = [
        "1",
        "x",
        "xi^4",
        "exp(-x^2 - xi^2)",
        "2 * x * xi + 3.5",
        "(x + xi)^2 - exp(x)",
        "-x",
        "x - (xi - 1)",
    ]
    for src in cases:
        obs = parse_observable(src)
        printed = obs.id
        reparsed = parse_observable(printed)
        assert reparsed.expr == obs.expr, src
        assert reparsed.id == printed


def test_parsed_expressions_compare_and_hash_by_value():
    texts = ["exp(-x^2 - xi^2)", "2 * x * xi + 3.5", "(x + xi)^2 - exp(x)"]
    first = [parse_observable(t).expr for t in texts]
    again = [parse_observable(t).expr for t in texts]
    for a, b in zip(first, again):
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert set(first) == set(again) and len(set(first + again)) == len(texts)
    assert first[0] != first[1]


def test_nodes_of_different_types_differ():
    assert Group(Var("x")) != Var("x")
    assert Const(1.0) != Var("x")
    assert parse_observable("(x)").expr != parse_observable("x").expr


_leaf = st.sampled_from(["x", "xi", "2", "0.5", "3"])


def _expr_strings(depth: int):
    if depth == 0:
        return _leaf
    sub = _expr_strings(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, st.sampled_from([" + ", " - ", " * "]), sub).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
        sub.map(lambda s: f"({s})"),
        sub.map(lambda s: f"exp({s})" if len(s) < 24 else s),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


@settings(max_examples=60, deadline=None)
@given(src=_expr_strings(3))
def test_round_trip_random_expressions(src):
    obs = parse_observable(src)
    assert parse_observable(obs.id).expr == obs.expr


@settings(max_examples=40, deadline=None)
@given(
    src=_expr_strings(2),
    x=st.floats(-2, 2, allow_nan=False),
    xi=st.floats(-2, 2, allow_nan=False),
)
def test_vector_eval_matches_reference(src, x, xi):
    obs = parse_observable(src)
    ref = obs.expr.eval_scalar(x, xi)
    vec = float(np.asarray(obs(np.array(x), np.array(xi))))
    assert vec == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_vector_eval_matches_reference_many_points():
    rng = np.random.default_rng(7)
    obs = parse_observable("exp(-x^2 - xi^2) * (x + 2) - 0.25 * xi^3")
    xs = rng.uniform(-3, 3, 100)
    xis = rng.uniform(-3, 3, 100)
    vec = obs(xs, xis)
    for k in range(100):
        assert vec[k] == pytest.approx(obs.expr.eval_scalar(xs[k], xis[k]), rel=1e-12, abs=1e-12)


def test_split_parts_evaluate():
    obs = parse_observable("exp(-x^2) + 2 * xi^2 - 1")
    fx, g = obs.split_parts()
    assert fx is not None and g is not None
    x = np.linspace(-1, 1, 5)
    xi = np.linspace(-1, 1, 5)
    total = obs(x, xi)
    again = fx.eval(x, xi) + g.eval(x, xi)
    np.testing.assert_allclose(total, again, rtol=1e-13)


@pytest.mark.parametrize("src", ["exp(-x^2-xi^2)", "2*exp(-4*(x-0.5)^2-4*xi^2)", "x*xi",
                                 "x^2*xi^3", "(x+1)*exp(-xi^2)", "exp(-(x^2+xi^2))",
                                 "-exp(-x^2-xi^2)", "(x*xi)^2", "-(2*x*xi)^3",
                                 "exp(-(x^2 - (xi^2 - 1)))", "-x*exp(-(xi^2))"])
def test_product_parts_factor(src):
    obs = parse_observable(src)
    assert obs.routing == "general"
    f, g = obs.product_parts()
    assert f.variables() <= {"x"} and g.variables() <= {"xi"}
    x, xi = np.meshgrid(np.linspace(-1.5, 1.5, 61), np.linspace(-1.5, 1.5, 61), indexing="ij")
    a = obs(x, xi)
    # exp(u) carries the rounding of its argument u, a relative error of
    # about eps |u| = eps |log a|
    tol = 1e-15 * (1.0 + np.abs(np.log(np.abs(a), where=a != 0.0, out=np.zeros_like(a))))
    assert np.all(np.abs(f.eval(x, 0.0) * g.eval(0.0, xi) - a) <= tol * np.abs(a))


@pytest.mark.parametrize("src", ["x*xi + x", "exp(x*xi)", "exp(-x^2-xi^2) + 0.3*x*xi",
                                 "exp(-(x*xi))", "(x + xi)^2", "-(x*xi + 1)"])
def test_product_parts_none(src):
    assert parse_observable(src).product_parts() is None


def test_bound_certificate():
    # sampled sup of |a| on a phase-space box; the odd node count keeps the
    # box center on the lattice
    def sup(obs, box):
        x = np.linspace(box[0], box[1], 513)
        xi = np.linspace(box[2], box[3], 513)
        return float(np.max(np.abs(obs(x[:, None], xi[None, :]))))

    assert sup(parse_observable("exp(-x^2 - xi^2)"), (-3, 3, -3, 3)) == pytest.approx(1.0, abs=1e-6)
    assert sup(parse_observable("x * xi"), (-2, 2, -2, 2)) == pytest.approx(4.0, abs=1e-6)
