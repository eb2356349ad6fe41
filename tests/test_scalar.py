import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octospin.scalar import (
    CIRCLE_HALF,
    CIRCLE_QUARTER,
    CirclePoint,
    EXACT,
    FloatBackend,
    angle_sum,
    circle_from_parameter,
    derived_rng,
    double_angle,
    make_backend,
    on_circle,
    parse_circle_point,
    random_rational,
)

ONE = CirclePoint(F(1), F(0))
rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_circle_from_parameter_examples():
    assert circle_from_parameter(F(0)) == CirclePoint(F(1), F(0))
    assert circle_from_parameter(F(1)) == CirclePoint(F(0), F(1))
    assert circle_from_parameter(F(1, 2)) == CirclePoint(F(3, 5), F(4, 5))


def test_double_angle_examples():
    assert double_angle(ONE) == ONE
    assert double_angle(CIRCLE_QUARTER) == CIRCLE_HALF
    assert double_angle(CirclePoint(F(3, 5), F(4, 5))) == CirclePoint(F(-7, 25), F(24, 25))


def test_angle_sum_examples():
    q = CirclePoint(F(3, 5), F(4, 5))
    assert angle_sum(ONE, q) == q
    assert angle_sum(CIRCLE_QUARTER, CIRCLE_QUARTER) == CIRCLE_HALF
    assert angle_sum(q, q.inverse()) == ONE


@given(rationals)
def test_parameter_lands_on_circle(u):
    assert on_circle(circle_from_parameter(u))


@given(rationals)
def test_double_angle_is_self_sum(u):
    p = circle_from_parameter(u)
    assert double_angle(p) == angle_sum(p, p)


@given(rationals, rationals, rationals)
def test_angle_sum_group_laws(a, b, c):
    p, q, r = (circle_from_parameter(x) for x in (a, b, c))
    assert angle_sum(p, q) == angle_sum(q, p)
    assert angle_sum(angle_sum(p, q), r) == angle_sum(p, angle_sum(q, r))
    assert angle_sum(p, p.inverse()) == ONE


def test_circle_from_parameter_seeded_sweep():
    rng = derived_rng(13, "circle")
    for _ in range(1000):
        assert on_circle(circle_from_parameter(random_rational(rng)))


def test_float_backend_equality():
    fb = FloatBackend(1e-9)
    assert fb.eq(1.0, 1.0 + 5e-10)
    assert fb.eq(0.0, 5e-10)
    assert not fb.eq(1.0, 1.0 + 1e-6)
    assert fb.eq(1e6, 1e6 + 1e-4)  # relative tolerance at large scale
    assert fb.eq(1e-10, 0)
    assert not fb.eq(1e-6, 0)
    # An infinite operand would make the tolerance infinite too.
    inf = float("inf")
    assert not fb.eq(inf, 1.0)
    assert not fb.eq(1.0, -inf)
    assert not fb.eq(inf, inf)


def test_float_backends_of_equal_epsilon_are_equal_values():
    fb = FloatBackend(1e-9)
    assert fb == FloatBackend(1e-9)
    assert hash(fb) == hash(FloatBackend(1e-9))
    assert fb != FloatBackend(1e-3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fb.epsilon = 1e-3
    assert fb.epsilon == 1e-9


def test_float_backend_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        FloatBackend(0.0)
    with pytest.raises(ValueError):
        make_backend("float", -1.0)
    with pytest.raises(ValueError):
        make_backend("decimal")


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_float_backend_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        FloatBackend(epsilon)


def test_float_backend_accepts_only_epsilon_below_one():
    for bad in (lambda: FloatBackend(1.0), lambda: FloatBackend(2.0),
                lambda: make_backend("float", 1.0)):
        with pytest.raises(ValueError, match="epsilon"):
            bad()
    for good in (0.5, math.nextafter(1, 0)):
        assert FloatBackend(good).epsilon == good


@pytest.mark.parametrize("epsilon", [1e-9, 0.5, math.nextafter(1, 0)],
                         ids=["1e-9", "0.5", "below-1"])
def test_float_eq_with_zero_is_the_absolute_zero_test(epsilon):
    """Below 1, eq(x, 0) is |x| <= epsilon: the zero tests rest on this."""
    fb = FloatBackend(epsilon)
    values = [0.0, -0.0, epsilon, -epsilon, math.nextafter(epsilon, 0),
              math.nextafter(epsilon, 2), -math.nextafter(epsilon, 2), 1.0, -1.0,
              1e300, -1e300, math.inf, -math.inf, math.nan, 0, 1, F(1, 3), F(-7, 2)]
    for x in values:
        assert fb.eq(x, 0) is (abs(x) <= epsilon), x


def test_float_convert_returns_exact_scalars_and_tuples_unchanged():
    half, coefficients = F(1, 2), (F(1, 3), F(-2, 5), F(4))
    for x in (half, 3, coefficients):
        assert FloatBackend().convert(x) is x


def test_exact_serialization_round_trip():
    for q in (F(0), F(3), F(-7, 25), F(22, 7)):
        text = EXACT.format(q)
        assert "/" in text
        assert EXACT.parse(text) == q
    assert EXACT.format(F(3)) == "3/1"


def test_float_serialization_17_digits():
    fb = FloatBackend()
    text = fb.format(0.1)
    assert fb.parse(text) == 0.1
    assert len(text.replace("0.", "")) == 17
    assert fb.parse("1/4") == 0.25


def test_parse_circle_point():
    assert parse_circle_point("3/5,4/5") == CirclePoint(F(3, 5), F(4, 5))
    assert parse_circle_point("u=1/2") == CirclePoint(F(3, 5), F(4, 5))
    with pytest.raises(ValueError):
        parse_circle_point("1,1")
    with pytest.raises(ValueError):
        parse_circle_point("1")


def test_float_parse_circle_point():
    fb = FloatBackend()
    p = parse_circle_point("0.6,0.8", fb)
    assert fb.eq(p.c, 0.6) and fb.eq(p.s, 0.8)


def test_derived_rng_is_stable_and_independent():
    a = derived_rng(42, "x", 1)
    b = derived_rng(42, "x", 1)
    c = derived_rng(42, "x", 2)
    seq_a = [a.randint(0, 10 ** 9) for _ in range(5)]
    seq_b = [b.randint(0, 10 ** 9) for _ in range(5)]
    seq_c = [c.randint(0, 10 ** 9) for _ in range(5)]
    assert seq_a == seq_b
    assert seq_a != seq_c
