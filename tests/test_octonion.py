from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from octospin.octonion import (
    FANO_CYCLES,
    FANO_INDEX,
    FANO_SIGN,
    Octonion,
    conj,
    inner,
    mul,
    norm_sq,
    oct_eq,
    parse_octonion,
    random_octonion,
    right_divide,
    serialize,
)
from octospin.scalar import EXACT, derived_rng

E = [Octonion.basis(i) for i in range(8)]


def gauss_solve_right_division(a, u):
    """Independent oracle: solve b*u = a as a dense 8x8 linear system."""
    cols = [mul(Octonion.basis(j), u) for j in range(8)]
    m = [[cols[j].coords[i] for j in range(8)] + [a.coords[i]] for i in range(8)]
    for k in range(8):
        piv = next(i for i in range(k, 8) if m[i][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        inv = m[k][k]
        m[k] = [x / inv for x in m[k]]
        for i in range(8):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return Octonion(tuple(m[i][8] for i in range(8)))


def test_basis_product_examples():
    assert mul(E[3], E[2]) == -E[1]
    assert mul(E[1], E[2]) == E[3]
    assert mul(E[1], E[1]) == -E[0]
    a = random_octonion(derived_rng(1, "identity"))
    assert mul(E[0], a) == a
    assert mul(a, E[0]) == a


def test_fano_table_structure():
    seen = set()
    for a, b, c in FANO_CYCLES:
        for pair in ((a, b), (b, c), (c, a)):
            key = frozenset(pair)
            assert key not in seen
            seen.add(key)
    assert len(seen) == 21
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                assert FANO_INDEX[i][j] == FANO_INDEX[j][i]
                assert FANO_SIGN[i][j] == -FANO_SIGN[j][i]


def test_conjugation_examples():
    assert conj(E[0]) == E[0]
    assert conj(E[5]) == -E[5]
    a = E[0].scale(F(3)) + E[2].scale(F(4))
    assert conj(a) == E[0].scale(F(3)) - E[2].scale(F(4))
    assert mul(a, conj(a)) == E[0].scale(F(25))


def test_inner_examples():
    for i in range(8):
        for j in range(8):
            assert inner(E[i], E[j]) == (1 if i == j else 0)
    assert inner(E[1] + E[2], E[1] - E[2]) == 0
    a = E[0].scale(F(3)) + E[2].scale(F(4))
    assert inner(a, a) == 25
    assert norm_sq(a) == 25


def test_right_divide_examples():
    # unique b with b*e2 = e3, fixed by the independent linear-system oracle
    oracle = gauss_solve_right_division(E[3], E[2])
    assert oracle == E[1]
    assert right_divide(E[3], E[2]) == oracle
    a = random_octonion(derived_rng(2, "div"))
    assert right_divide(a, E[0]) == a
    with pytest.raises(ZeroDivisionError):
        right_divide(a, Octonion((0,) * 8))


def test_right_divide_round_trip_200():
    rng = derived_rng(3, "roundtrip")
    for k in range(200):
        b = random_octonion(rng)
        u = random_octonion(rng)
        while norm_sq(u) == 0:
            u = random_octonion(rng)
        got = right_divide(mul(b, u), u)
        assert got == b
        if k % 25 == 0:
            assert got == gauss_solve_right_division(mul(b, u), u)


small = st.integers(min_value=-6, max_value=6)
octonions = st.builds(
    lambda cs: Octonion(tuple(F(c) for c in cs)),
    st.lists(small, min_size=8, max_size=8),
)


@given(octonions, octonions)
def test_alternativity_property(x, y):
    assert mul(x, mul(x, y)) == mul(mul(x, x), y)
    assert mul(mul(y, x), x) == mul(y, mul(x, x))


@given(octonions, octonions)
def test_norm_multiplicativity_property(x, y):
    assert norm_sq(mul(x, y)) == norm_sq(x) * norm_sq(y)


@given(octonions, octonions, octonions)
def test_moufang_property(x, y, z):
    assert mul(mul(x, mul(y, z)), x) == mul(mul(x, y), mul(z, x))


def test_imaginary_predicate():
    # a is purely imaginary exactly when a*a = -|a|^2 e0.
    def squares_to_minus_norm(a):
        return mul(a, a) == E[0].scale(-norm_sq(a))

    assert squares_to_minus_norm(E[4])
    assert squares_to_minus_norm(E[1] - E[4].scale(F(2, 3)))
    assert not squares_to_minus_norm(E[0] + E[4])
    assert not squares_to_minus_norm(E[0])


def test_serialize_round_trip():
    a = Octonion(tuple(F(k - 3, k + 1) for k in range(8)))
    text = serialize(a, EXACT)
    assert parse_octonion(text, EXACT) == a
    assert text[0] == "-3/1"


def test_random_octonion_ranges():
    rng = derived_rng(4, "ranges")
    for _ in range(50):
        a = random_octonion(rng)
        for c in a.coords:
            assert -20 <= c <= 20
            assert 1 <= c.denominator <= 10
        b = random_octonion(rng, imaginary=True)
        assert b.coords[0] == 0
