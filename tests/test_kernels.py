"""The cleared-numerator kernels against the plain formulas they replace.

``compose``, ``apply``, ``mul``, ``right_divide``, ``inner`` and
``plane_rotation`` work on the integer numerators of ``scalar.cleared``, kept
per object as ``Octonion.cleared`` and ``Matrix8.cleared_rows``, and build
each entry once with ``scalar.quotient``.  The references below are the
direct Fraction/float formulas: on exact inputs the kernels must give the
same values as reduced Fractions, and on float inputs (mixed with int basis
entries, Fractions and int zeros) the same bits.
"""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from octospin import octonion
from octospin.geometry import Matrix8, OrientedPlane, apply, compose, plane_rotation
from octospin.octonion import Octonion, conj, inner, mul, norm_sq, right_divide
from octospin.scalar import (
    EXACT,
    CirclePoint,
    FloatBackend,
    circle_from_parameter,
    cleared,
    quotient,
)
from octospin.spinmaps import f7, project_double_cover

FLOAT = FloatBackend(1e-9)


def ref_compose(a, b):
    bt = tuple(zip(*b.rows))
    return Matrix8(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.rows)
    )


def ref_apply(a, z):
    return Octonion(tuple(sum(x * y for x, y in zip(row, z.coords)) for row in a.rows))


def ref_mul(a, b):
    out = [0] * 8
    for i, ai in enumerate(a.coords):
        if not ai:
            continue
        srow, krow = octonion.FANO_SIGN[i], octonion.FANO_INDEX[i]
        for j, bj in enumerate(b.coords):
            if not bj:
                continue
            if srow[j] > 0:
                out[krow[j]] += ai * bj
            else:
                out[krow[j]] -= ai * bj
    return Octonion(tuple(out))


def ref_inner(a, b):
    return sum(x * y for x, y in zip(a.coords, b.coords))


def ref_right_divide(a, u):
    n = ref_inner(u, u)
    return Octonion(tuple(c / n for c in ref_mul(a, conj(u)).coords))


def ref_plane_rotation(p, t):
    n = ref_inner(p.u, p.u)
    a = (t.c - 1) / n
    b = t.s / n
    u, v = p.u.coords, p.v.coords
    rows = []
    for i in range(8):
        row = []
        for j in range(8):
            entry = a * (u[i] * u[j] + v[i] * v[j]) + b * (v[i] * u[j] - u[i] * v[j])
            if i == j:
                entry = entry + 1
            row.append(entry)
        rows.append(tuple(row))
    return Matrix8(tuple(rows))


def _entries(x):
    if isinstance(x, Matrix8):
        return [e for row in x.rows for e in row]
    if isinstance(x, Octonion):
        return list(x.coords)
    return [x]


# --- exact inputs ------------------------------------------------------------


def _rational(rng, bits):
    """A p/q of the given height; one entry in four is a Python int."""
    top = 1 << bits
    if rng.random() < 0.25:
        return rng.randint(-top, top)
    return F(rng.randint(-top, top), rng.randint(1, top))


def _exact_octonion(rng, bits):
    return Octonion(tuple(_rational(rng, bits) for _ in range(8)))


def _exact_matrix(rng, bits):
    return Matrix8(tuple(tuple(_rational(rng, bits) for _ in range(8)) for _ in range(8)))


def _exact_plane(rng, bits):
    """[u, u*ek]: right multiplication by a unit imaginary keeps the norm and
    makes the pair orthogonal."""
    u = _exact_octonion(rng, bits)
    return OrientedPlane(u, ref_mul(u, Octonion.basis(rng.randint(1, 7))))


def _assert_exact_equal(got, want):
    got, want = _entries(got), _entries(want)
    assert got == want
    assert all(type(x) is F for x in got)


@pytest.mark.parametrize("bits", [8, 32, 64, 128])
def test_exact_kernels_match_plain_formulas(bits):
    rng = random.Random(f"kernels|{bits}")
    for _ in range(6):
        a, b = _exact_matrix(rng, bits), _exact_matrix(rng, bits)
        x, y = _exact_octonion(rng, bits), _exact_octonion(rng, bits)
        _assert_exact_equal(compose(a, b), ref_compose(a, b))
        _assert_exact_equal(apply(a, x), ref_apply(a, x))
        _assert_exact_equal(mul(x, y), ref_mul(x, y))
        _assert_exact_equal(inner(x, y), ref_inner(x, y))
        _assert_exact_equal(right_divide(x, y), ref_right_divide(x, y))
        p = _exact_plane(rng, bits)
        t = circle_from_parameter(F(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits)))
        _assert_exact_equal(plane_rotation(p, t), ref_plane_rotation(p, t))


def test_int_only_inputs_give_fractions():
    ints = Matrix8(tuple(tuple(i * 8 + j - 30 for j in range(8)) for i in range(8)))
    x = Octonion(tuple(range(-3, 5)))
    _assert_exact_equal(compose(ints, ints), ref_compose(ints, ints))
    _assert_exact_equal(apply(ints, x), ref_apply(ints, x))
    _assert_exact_equal(mul(x, x), ref_mul(x, x))
    _assert_exact_equal(inner(x, x), ref_inner(x, x))
    e1, e2 = Octonion((0, 1, 0, 0, 0, 0, 0, 0)), Octonion((0, 0, 1, 0, 0, 0, 0, 0))
    _assert_exact_equal(
        plane_rotation(OrientedPlane(e1, e2), CirclePoint(0, 1)),
        ref_plane_rotation(OrientedPlane(e1, e2), CirclePoint(0, 1)),
    )


def test_mul_reads_the_fano_tables_at_call_time(monkeypatch):
    x, y = Octonion.basis(7), Octonion.basis(2)
    before = mul(x, y)
    cycles = tuple((7, 5, 2) if line == (7, 2, 5) else line for line in octonion.FANO_CYCLES)
    monkeypatch.setattr(octonion, "FANO_CYCLES", cycles)
    sign, index = octonion._build_tables()
    monkeypatch.setattr(octonion, "FANO_SIGN", sign)
    monkeypatch.setattr(octonion, "FANO_INDEX", index)
    assert mul(x, y) == ref_mul(x, y) == -before


# --- float inputs ------------------------------------------------------------


def _float(rng):
    """Mixed magnitudes, so that a reordered sum rounds differently; some
    entries are +0.0 or -0.0."""
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.2:
        return -0.0
    return rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)


def _float_octonion(rng):
    return Octonion(tuple(_float(rng) for _ in range(8)))


def _float_matrix(rng):
    return Matrix8(tuple(tuple(_float(rng) for _ in range(8)) for _ in range(8)))


def _float_plane(rng):
    """[u, u*ek] with |u| near 1, orthogonal within the tolerance."""
    u = Octonion(tuple(rng.choice((0.0, -0.0, rng.uniform(-1, 1))) for _ in range(7)) + (0.5,))
    return OrientedPlane(u, ref_mul(u, Octonion.basis(rng.randint(1, 7))))


def _assert_same_bits(got, want):
    got, want = _entries(got), _entries(want)
    assert [float.hex(float(x)) for x in got] == [float.hex(float(x)) for x in want]
    assert all(type(x) is float for x, w in zip(got, want) if type(w) is float)


def _float_cases(rng):
    """Pure float operands, then operands mixing float with int basis
    entries, Fraction entries and int zeros."""
    for _ in range(20):
        yield _float_matrix(rng), _float_matrix(rng), _float_octonion(rng), _float_octonion(rng)
    t = circle_from_parameter(F(3, 7)).map_scalars(float)
    plane = OrientedPlane(Octonion.basis(1), Octonion.basis(2)).map_scalars(float)
    g = project_double_cover(f7(plane, t, None, FLOAT))
    e0 = Octonion.basis(0)
    with_int_zeros = Octonion((0, 0.5, -0.0, 0, 3.25, 0, -1e-3, 0))
    yield g, g.transpose(), e0, _float_octonion(rng)
    yield g.transpose(), g, with_int_zeros, e0
    yield Matrix8.identity(), g, _float_octonion(rng), with_int_zeros
    with_fractions = Octonion((F(1), 0.25, F(0), -0.0, F(-2), 1e-7, 0, 0.5))
    yield g, Matrix8.identity().map_scalars(F), with_fractions, e0


def test_float_kernels_are_bit_identical_to_plain_formulas():
    rng = random.Random("kernels|float")
    for a, b, x, y in _float_cases(rng):
        _assert_same_bits(compose(a, b), ref_compose(a, b))
        _assert_same_bits(apply(a, x), ref_apply(a, x))
        _assert_same_bits(apply(b, y), ref_apply(b, y))
        _assert_same_bits(mul(x, y), ref_mul(x, y))
        _assert_same_bits(mul(y, x), ref_mul(y, x))
        _assert_same_bits(inner(x, y), ref_inner(x, y))
        _assert_same_bits(right_divide(x, y), ref_right_divide(x, y))
        _assert_same_bits(right_divide(y, x), ref_right_divide(y, x))
    for _ in range(20):
        p = _float_plane(rng)
        c = rng.uniform(-1, 1)
        t = CirclePoint(c, math.sqrt(1 - c * c))
        _assert_same_bits(plane_rotation(p, t, FLOAT), ref_plane_rotation(p, t))
    mixed = OrientedPlane(Octonion.basis(0), Octonion((0, 0, 0, 0.6, 0, 0.8, 0, 0)))
    t = circle_from_parameter(F(2, 9)).map_scalars(float)
    _assert_same_bits(plane_rotation(mixed, t, FLOAT), ref_plane_rotation(mixed, t))


def test_float_kernels_keep_signed_zeros():
    neg = Matrix8(tuple(tuple(-0.0 for _ in range(8)) for _ in range(8)))
    pos = neg.map_scalars(abs)
    z = Octonion((-0.0,) * 8)
    assert [math.copysign(1, x) for x in compose(neg, pos).rows[0]] == [1.0] * 8
    assert [math.copysign(1, x) for x in apply(pos, z).coords] == [1.0] * 8
    # a negative coefficient times a zero gives -0.0 entries off the plane,
    # which survive the division by the scale 1.0
    p = OrientedPlane(Octonion.basis(1), Octonion.basis(2)).map_scalars(float)
    m = plane_rotation(p, CirclePoint(0.6, -0.8), FLOAT)
    _assert_same_bits(m, ref_plane_rotation(p, CirclePoint(0.6, -0.8)))
    assert any(math.copysign(1, x) < 0 for x in _entries(m))


# --- cleared and right_divide ------------------------------------------------


def test_cleared_representations():
    nums, scale = cleared([F(1, 6), 2, F(-3, 4)])
    assert (nums, scale) == ([2, 24, -9], 12) and type(scale) is int
    assert all(type(n) is int for n in nums)
    assert cleared([0, 5]) == ([0, 5], 1) and type(cleared([0, 5])[1]) is int
    floats = [0.5, F(1), 0, -0.0]
    assert cleared(floats) == (floats, 1.0) and cleared(floats)[0] is floats
    mixed = (F(1), 0, 2.5)
    assert cleared(mixed)[0] is mixed


def test_cleared_form_is_kept_per_object_and_is_not_a_field():
    rng = random.Random("kernels|cached")
    octonions = [_exact_octonion(rng, 16), _float_octonion(rng), Octonion.basis(3)]
    matrices = [_exact_matrix(rng, 16), _float_matrix(rng), Matrix8.identity()]
    for x in octonions:
        fresh = Octonion(x.coords)
        assert x.cleared == cleared(x.coords) and x.cleared is x.cleared
        assert fresh == x and hash(fresh) == hash(x) and repr(fresh) == repr(x)
    for a in matrices:
        fresh = Matrix8(a.rows)
        nums, scale = cleared([e for row in a.rows for e in row])
        assert a.cleared_rows == ([nums[i:i + 8] for i in range(0, 64, 8)], scale)
        assert a.cleared_rows is a.cleared_rows
        assert fresh == a and hash(fresh) == hash(a) and repr(fresh) == repr(a)
    assert [f.name for f in dataclasses.fields(Octonion)] == ["coords"]
    assert [f.name for f in dataclasses.fields(Matrix8)] == ["rows"]


def test_quotient_int_scale_gives_reduced_fractions():
    for n, scale, want in ((6, 4, F(3, 2)), (0, 7, F(0)), (-9, 12, F(-3, 4)), (5, 1, F(5))):
        got = quotient(n, scale)
        assert got == want and type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_quotient_float_scale_is_true_division():
    rng = random.Random("quotient|float")
    for n in [0.0, -0.0, 3, 7.5] + [_float(rng) for _ in range(50)]:
        for scale in (1.0, 2.0, 0.3):
            got = quotient(n, scale)
            assert type(got) is float and float.hex(got) == float.hex(n / scale)


def test_exact_kernel_outputs_are_fractions_never_floats():
    """An ``int / int`` slip would turn exact results into floats silently."""
    rng = random.Random("kernels|types")
    e = [Octonion.basis(i) for i in range(8)]
    ident = Matrix8.identity()
    int_matrix = Matrix8(tuple(tuple(i - j for j in range(8)) for i in range(8)))
    matrices = [ident, int_matrix, _exact_matrix(rng, 16)]
    octonions = e + [Octonion((0,) * 8), Octonion(tuple(range(8))), _exact_octonion(rng, 16)]
    outputs = [compose(a, b) for a in matrices for b in matrices]
    outputs += [apply(a, x) for a in matrices for x in octonions]
    outputs += [mul(x, y) for x in octonions for y in octonions]
    outputs += [inner(x, y) for x in octonions for y in octonions]
    planes = [OrientedPlane(e[1], e[2]), OrientedPlane(e[0], e[7]), _exact_plane(rng, 16)]
    angles = [CirclePoint(0, 1), CirclePoint(1, 0), circle_from_parameter(F(2, 7))]
    outputs += [plane_rotation(p, t) for p in planes for t in angles]
    assert all(type(x) is F for out in outputs for x in _entries(out))


def test_right_divide_honours_the_float_tolerance():
    a = Octonion.basis(3).map_scalars(float)
    tiny = Octonion((1e-5,) + (0.0,) * 7)
    assert norm_sq(tiny) < FLOAT.epsilon
    with pytest.raises(ZeroDivisionError):
        right_divide(a, tiny, FLOAT)
    assert right_divide(a, tiny).coords[3] == pytest.approx(1e5)
    tiny_exact = Octonion((F(1, 10**5),) + (F(0),) * 7)
    assert right_divide(Octonion.basis(3), tiny_exact, EXACT) == Octonion.basis(3).scale(F(10**5))
    with pytest.raises(ZeroDivisionError):
        right_divide(Octonion.basis(3), Octonion((0,) * 8), EXACT)
