"""The cleared-numerator kernels against the plain formulas they replace.

``compose``, ``apply``, ``mul``, ``right_divide``, ``inner`` and
``plane_rotation`` work on the integer numerators of ``scalar.cleared``, kept
per object as ``cleared`` (a matrix's 64 entries flat and row-major).  Exact
results hold only their reduced cleared form (``Matrix8.scaled``,
``Octonion.scaled``, both ``scalar.Cleared.scaled``) and build each entry with
``scalar.quotient`` on first read.  The references below are the direct
Fraction/float formulas: on exact inputs the kernels must give the same values
as reduced Fractions, and on float inputs (mixed with int basis entries,
Fractions and int zeros) the same bits.  ``mat_eq``, ``oct_eq``,
``max_abs_diff``, the ``so_check`` residual and ``project_double_cover`` are
checked against the entrywise, inline and column-by-column versions they
replace; ``determinant``, ``project_out``, ``complement_vector`` and
``random_antisymmetric``, fraction-free on ints, against the Fraction
elimination, Gram-Schmidt and build they replace.
"""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from octospin import geometry, octonion
from octospin.geometry import (
    SUBSPACE_COORDS,
    Matrix8,
    OrientedPlane,
    apply,
    cayley_orthogonal,
    complement_vector,
    compose,
    determinant,
    mat_eq,
    max_abs_diff,
    plane_rotation,
    project_out,
    random_antisymmetric,
    random_orthonormal_pair,
    so_check,
)
from octospin.octonion import Octonion, conj, inner, mul, norm_sq, oct_eq, right_divide
from octospin.scalar import (
    CIRCLE_HALF,
    EXACT,
    CirclePoint,
    FloatBackend,
    circle_from_parameter,
    cleared,
    derived_rng,
    quotient,
)
from octospin.spinmaps import basis_b, f7, project_double_cover

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


@pytest.mark.parametrize("bits", [8, 64, 200])
def test_generated_product_matches_the_loop_on_exact_operands(bits):
    rng = random.Random(f"product|{bits}")
    for _ in range(20):
        x, y = _exact_octonion(rng, bits), _exact_octonion(rng, bits)
        _assert_exact_equal(mul(x, y), ref_mul(x, y))
        keep = rng.sample(range(8), rng.randint(1, 3))
        sparse = Octonion(tuple(c if i in keep else 0 for i, c in enumerate(x.coords)))
        _assert_exact_equal(mul(sparse, y), ref_mul(sparse, y))
        _assert_exact_equal(mul(y, sparse), ref_mul(y, sparse))
        ints = [rng.randint(-(1 << bits), 1 << bits) for _ in range(16)]
        got = octonion.mul_numerators(ints[:8], ints[8:])
        assert got == list(ref_mul(Octonion(tuple(ints[:8])), Octonion(tuple(ints[8:]))).coords)
        assert all(type(c) is int for c in got)


def test_patched_then_restored_tables_give_back_the_product(monkeypatch):
    rng = random.Random("product|restore")
    x, y = _exact_octonion(rng, 32), _exact_octonion(rng, 32)
    before = mul(x, y)
    flipped = tuple(
        tuple(-s if (i, j) == (2, 1) else s for j, s in enumerate(row))
        for i, row in enumerate(octonion.FANO_SIGN)
    )
    monkeypatch.setattr(octonion, "FANO_SIGN", flipped)
    patched = mul(x, y)
    assert patched == ref_mul(x, y) != before
    monkeypatch.undo()
    again = mul(x, y)
    assert again == before and again.cleared == before.cleared


def test_generated_product_sums_every_term():
    # Every coordinate sums all its products, zeros included, so 0 * inf
    # makes each one NaN.  The CLI rejects non-finite input.
    got = octonion.mul_numerators([math.inf] + [0.0] * 7, [0.0] * 8)
    assert all(math.isnan(c) for c in got)


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
    # a rational u over the scale 5 beside a float v
    mixed = OrientedPlane(Octonion((0, F(3, 5), F(4, 5)) + (0,) * 5), mixed.v)
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


def test_generated_product_is_bit_identical_on_floats():
    rng = random.Random("product|float")
    zeros = Octonion((0.0, -0.0) * 4)
    for _ in range(200):
        x, y = _float_octonion(rng), _float_octonion(rng)
        for a, b in ((x, y), (y, x), (x, zeros), (zeros, y), (zeros, zeros)):
            _assert_same_bits(mul(a, b), ref_mul(a, b))


@pytest.mark.parametrize("bits", [8, 64, 200])
def test_float_convert_of_scaled_values_rounds_like_the_fraction(bits):
    rng = random.Random(f"convert|{bits}")
    x, y = _exact_octonion(rng, bits), _exact_octonion(rng, bits)
    a, b = _exact_matrix(rng, bits), _exact_matrix(rng, bits)
    for value in (mul(x, y), compose(a, b)):
        nums, scale = value.cleared
        got = FLOAT.convert(value)
        assert value._field not in vars(value)
        assert [float.hex(e) for e in _entries(got)] == [float.hex(float(F(n, scale))) for n in nums]
    plane = OrientedPlane(mul(x, y), mul(y, x))
    got = FLOAT.convert(plane)
    assert all(vec._field not in vars(vec) for vec in (plane.u, plane.v))
    want = plane.map_scalars(float)
    for vec, ref in ((got.u, want.u), (got.v, want.v)):
        _assert_same_bits(vec, ref)


def _assert_converts_like_float(got, value):
    """Each entry of got is the float of the exact entry of value, bit for bit."""
    scalars = lambda x: [x.c, x.s] if isinstance(x, CirclePoint) else _entries(x)
    assert type(got) is type(value) and all(type(e) is float for e in scalars(got))
    assert [float.hex(e) for e in scalars(got)] == [float.hex(float(q)) for q in scalars(value)]


@pytest.mark.parametrize("bits", [8, 64, 200])
def test_float_convert_of_built_values_rounds_like_float(bits):
    rng = random.Random(f"convert-built|{bits}")
    x, y = _exact_octonion(rng, bits), _exact_octonion(rng, bits)
    basis = [Octonion.basis(i) for i in range(8)]
    t = circle_from_parameter(F(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits)))
    for value in [x, *basis, -Matrix8.identity(), _exact_matrix(rng, bits), t]:
        _assert_converts_like_float(FLOAT.convert(value), value)
    got = FLOAT.convert(OrientedPlane(x, y))
    _assert_converts_like_float(got.u, x)
    _assert_converts_like_float(got.v, y)


def test_float_convert_of_a_huge_entry_overflows():
    huge = Octonion.scaled([1 << 1100] + [0] * 7, 3)
    for value in (huge, OrientedPlane(huge, huge), Octonion((F(1 << 1100, 3),) + (0,) * 7)):
        with pytest.raises(OverflowError):
            FLOAT.convert(value)
    assert huge._field not in vars(huge)


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
        assert a.cleared == cleared([e for row in a.rows for e in row])
        assert a.cleared is a.cleared
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
    outputs += [determinant(a) for a in matrices]
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


# --- results kept as numerators over one scale -------------------------------


def ref_project_double_cover(gt):
    """Column by column, g(e_i) = g~(e_i) * g~(e0)^-1, with g(e0) = e0."""
    ge0 = Octonion(tuple(row[0] for row in gt.rows))
    cols = [Octonion.basis(0)] + [
        ref_right_divide(Octonion(tuple(row[i] for row in gt.rows)), ge0) for i in range(1, 8)
    ]
    return Matrix8(tuple(tuple(cols[j].coords[i] for j in range(8)) for i in range(8)))


def _exact_results(rng, bits):
    """(kernel result, eager reference) pairs for every kernel that returns
    the scaled form, on exact inputs."""
    a, b = _exact_matrix(rng, bits), _exact_matrix(rng, bits)
    x, y = _exact_octonion(rng, bits), _exact_octonion(rng, bits)
    p = _exact_plane(rng, bits)
    t = circle_from_parameter(F(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits)))
    g = f7(random_orthonormal_pair(rng.randrange(100)), t)
    yield compose(a, b), ref_compose(a, b)
    yield apply(a, x), ref_apply(a, x)
    yield plane_rotation(p, t), ref_plane_rotation(p, t)
    yield mul(x, y), ref_mul(x, y)
    yield right_divide(x, y), ref_right_divide(x, y)
    yield project_double_cover(g), ref_project_double_cover(g)
    yield project_double_cover(a), ref_project_double_cover(a)
    # all-integer operands, and results whose scale reduces to 1
    ints = Matrix8(tuple(tuple(i * 8 + j - 30 for j in range(8)) for i in range(8)))
    yield compose(ints, ints), ref_compose(ints, ints)
    yield mul(Octonion.basis(3), Octonion.basis(5)), ref_mul(Octonion.basis(3), Octonion.basis(5))
    yield compose(g, g.transpose()), Matrix8.identity()


def _eager(x):
    if isinstance(x, Matrix8):
        return Matrix8(tuple(tuple(F(e) for e in row) for row in x.rows))
    return Octonion(tuple(F(e) for e in x.coords))


@pytest.mark.parametrize("bits", [8, 64])
def test_exact_results_hold_the_reduced_cleared_form_until_read(bits):
    rng = random.Random(f"kernels|scaled|{bits}")
    for _ in range(3):
        for got, want in _exact_results(rng, bits):
            field = "rows" if isinstance(got, Matrix8) else "coords"
            assert field not in vars(got)
            flat, scale = got.cleared
            assert type(scale) is int and scale > 0
            assert (flat, scale) == cleared(_entries(want))
            eager = _eager(want)
            assert got == eager and eager == got
            assert hash(got) == hash(eager) and repr(got) == repr(eager)
            assert field in vars(got)
            _assert_exact_equal(got, want)


def test_map_scalars_and_negation_of_scaled_results_match_the_eager_ones():
    g = f7(random_orthonormal_pair(4), circle_from_parameter(F(5, 13)))
    x = g.column(3)
    assert "rows" not in vars(g) and "coords" not in vars(x)
    for fn in (lambda a: -a, lambda a: a.map_scalars(lambda q: 3 * q),
               lambda a: a.map_scalars(float)):
        for scaled in (g, x):
            got, want = fn(scaled), fn(_eager(scaled))
            assert got == want and repr(got) == repr(want)
            assert got.cleared == want.cleared


def test_transpose_and_column_pass_the_numerators_on():
    g = f7(random_orthonormal_pair(5), circle_from_parameter(F(2, 11)))
    assert "rows" not in vars(g)
    gt = g.transpose()
    nums, scale = g.cleared
    assert gt.cleared == ([nums[8 * i + j] for j in range(8) for i in range(8)], scale)
    assert "rows" not in vars(g) and "rows" not in vars(gt)
    assert gt == Matrix8(tuple(zip(*g.rows)))
    for j in range(8):
        col = g.column(j)
        assert "coords" not in vars(col)
        assert col.cleared == cleared([row[j] for row in g.rows])
        assert col == Octonion(tuple(row[j] for row in g.rows))
    # an eagerly built exact matrix transposes to the same values
    a = _exact_matrix(random.Random("kernels|transpose"), 16)
    assert a.transpose() == Matrix8(tuple(zip(*a.rows)))
    assert a.transpose().transpose() == a


def test_float_results_are_values_over_one():
    rng = random.Random("kernels|scaled|float")
    for a, b, x, y in _float_cases(rng):
        pairs = [
            (compose(a, b), ref_compose(a, b)),
            (apply(a, x), ref_apply(a, x)),
            (mul(x, y), ref_mul(x, y)),
            (right_divide(x, y), ref_right_divide(x, y)),
            (a.transpose(), Matrix8(tuple(zip(*a.rows)))),
        ]
        if isinstance(a.rows[0][0], float):
            pairs.append((project_double_cover(a), ref_project_double_cover(a)))
        for got, want in pairs:
            _assert_same_bits(got, want)
            if isinstance(got, Matrix8):
                assert got.cleared == (_entries(got), 1.0)
            else:
                assert got.cleared == (got.coords, 1.0)


def test_project_double_cover_keeps_the_exact_zero_error():
    zero_first = Matrix8(tuple((0,) + tuple(F(i + j, 3) for j in range(7)) for i in range(8)))
    with pytest.raises(ZeroDivisionError):
        project_double_cover(zero_first)
    with pytest.raises(ZeroDivisionError):
        project_double_cover(zero_first.map_scalars(float))
    # a float first column below the tolerance is still divided by
    tiny = Matrix8(tuple((1e-7 if i == 0 else 0.0,) + (0.5,) * 7 for i in range(8)))
    _assert_same_bits(project_double_cover(tiny), ref_project_double_cover(tiny))


def ref_max_abs_diff(a, b):
    """Largest entrywise |a - b|, on the values."""
    return max([0] + [abs(x - y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)])


def ref_residual(m):
    """The residual of M^T M - I as so_check took it inline: max |N - s I| / s
    on the cleared numerators N over s of M^T M."""
    nums, s = ref_compose(Matrix8(tuple(zip(*m.rows))), m).cleared
    diffs = [abs(nums[8 * i + j] - s * (i == j)) for i in range(8) for j in range(8)]
    return quotient(max([0] + diffs), s)


def test_max_abs_diff_matches_the_entrywise_reference():
    rng = random.Random("kernels|max-abs-diff")
    g = f7(random_orthonormal_pair(3), circle_from_parameter(F(4, 9)))
    ints = Matrix8(tuple(tuple(i * 8 + j - 30 for j in range(8)) for i in range(8)))
    exact = [
        (g, Matrix8.identity()),
        (g, Matrix8(g.rows)),
        (compose(g, g.transpose()), Matrix8.identity()),
        (_exact_matrix(rng, 16), _exact_matrix(rng, 64)),
        (Matrix8(((F(1, 3),) * 8,) * 8), Matrix8(((F(1, 5),) * 8,) * 8)),
        (ints, -Matrix8.identity()),
    ]
    for a, b in exact:
        got = max_abs_diff(a, b)
        assert got == ref_max_abs_diff(a, b) and type(got) is F
    gf = g.map_scalars(float)
    mixed = Matrix8(tuple(tuple(int(i == j) if (i + j) % 3 else _float(rng) for j in range(8))
                          for i in range(8)))
    bad = Matrix8(((math.inf, math.nan) + (0.5,) * 6,) + gf.rows[1:])
    floats = [
        (_float_matrix(rng), _float_matrix(rng)),
        (gf, Matrix8.identity()),
        (Matrix8.identity(), gf),
        (gf, Matrix8.identity().map_scalars(F)),
        (mixed, Matrix8.identity()),
        (mixed, gf),
        (gf, gf),
        (bad, gf),
        (gf, bad),
    ]
    for a, b in floats:
        got, want = max_abs_diff(a, b), ref_max_abs_diff(a, b)
        assert float.hex(float(got)) == float.hex(float(want))


def test_so_check_residual_matches_max_abs_diff():
    rng = random.Random("kernels|so-check")
    g = f7(random_orthonormal_pair(2), circle_from_parameter(F(5, 3)))
    exact = [g, Matrix8.identity(), -Matrix8.identity(), _exact_matrix(rng, 8), g.transpose()]
    for m in exact:
        mtm = ref_compose(Matrix8(tuple(zip(*m.rows))), m)
        got = so_check(m).orthogonality_residual
        assert got == ref_residual(m) == ref_max_abs_diff(mtm, Matrix8.identity())
    floats = [g.map_scalars(float), _float_matrix(rng), Matrix8.identity().map_scalars(float)]
    for m in floats:
        mtm = ref_compose(Matrix8(tuple(zip(*m.rows))), m)
        got = so_check(m, FLOAT).orthogonality_residual
        want = [ref_residual(m), ref_max_abs_diff(mtm, Matrix8.identity())]
        assert [float.hex(float(x)) for x in want] == [float.hex(float(got))] * 2


def test_float_columns_keep_the_bits_of_the_entries():
    rng = random.Random("kernels|column|float")
    mixed = Matrix8(tuple(tuple(int(i == j) if (i + j) % 2 else _float(rng) for j in range(8))
                          for i in range(8)))
    for a, b, _, _ in _float_cases(rng):
        for m in (a, b, mixed):
            for j in range(8):
                _assert_same_bits(m.column(j), Octonion(tuple(row[j] for row in m.rows)))


# --- equality on cleared numerators ------------------------------------------


def ref_mat_eq(a, b, backend):
    return all(backend.eq(x, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))


def ref_oct_eq(a, b, backend):
    return all(backend.eq(x, y) for x, y in zip(a.coords, b.coords))


def _with_entry(m, i, j, value):
    rows = [list(row) for row in m.rows]
    rows[i][j] = value
    return Matrix8(tuple(map(tuple, rows)))


def _equality_cases():
    """Matrix pairs on which the entrywise verdict is true and false, on both
    backends, with exact, float and mixed operands."""
    rng = random.Random("kernels|eq")
    eps = 1e-9
    p = random_orthonormal_pair(4)
    t = circle_from_parameter(F(3, 8))
    g = f7(p, t)
    gf = f7(p.map_scalars(float), t.map_scalars(float), None, FLOAT)
    half = f7(p.map_scalars(float), CIRCLE_HALF.map_scalars(float), None, FLOAT)
    minus = -Matrix8.identity()
    yield half, minus
    yield minus, half
    yield f7(p, CIRCLE_HALF), minus
    yield g, Matrix8(g.rows)
    yield g, gf
    yield gf, g.map_scalars(float)
    yield g, g.transpose()
    yield compose(g, g.transpose()), Matrix8.identity()
    a = _exact_matrix(rng, 16)
    yield a, a.map_scalars(lambda x: x + F(1, 10**12))
    # equal numerators over different scales
    yield Matrix8(((F(1, 3),) * 8,) * 8), Matrix8(((F(1, 5),) * 8,) * 8)
    yield a, _with_entry(a, 3, 4, a.rows[3][4] + F(1, 10**6))
    # just inside and just outside eps * max(1, |a|, |b|), small and large
    for base in (0.25, 1.0, 3.0e5, -7.5e8):
        tol = eps * max(1.0, abs(base))
        for delta in (0.5 * tol, 0.999 * tol, 1.001 * tol, 2 * tol):
            m = _with_entry(gf, 2, 5, base)
            yield m, _with_entry(gf, 2, 5, base + delta)
            yield _with_entry(g, 2, 5, F(base)), _with_entry(gf, 2, 5, base - delta)
    for bad in (math.inf, -math.inf, math.nan):
        yield _with_entry(gf, 0, 0, bad), gf
        yield _with_entry(gf, 0, 0, bad), _with_entry(gf, 0, 0, bad)
        yield Matrix8.identity(), _with_entry(Matrix8.identity().map_scalars(float), 7, 7, bad)


@pytest.mark.parametrize("backend", [EXACT, FLOAT, FloatBackend(0.5)], ids=["exact", "float", "eps0.5"])
def test_mat_eq_and_oct_eq_match_the_entrywise_reference(backend):
    verdicts = set()
    for a, b in _equality_cases():
        want = ref_mat_eq(a, b, backend)
        verdicts.add(want)
        assert mat_eq(a, b, backend) is want
        for j in range(8):
            x, y = a.column(j), b.column(j)
            assert oct_eq(x, y, backend) is ref_oct_eq(x, y, backend)
    assert verdicts == {True, False}


def test_rationals_over_a_scale_compare_as_values_on_floats():
    """The float tolerance is not scale-invariant: 1/3 against 1/3 + 3e-9
    is within 1e-8 as values, but its numerators over the scale 3e9 are not."""
    a = Octonion((F(1, 3),) + (0,) * 7)
    b = Octonion((F(1, 3) + F(3, 10**9),) + (0,) * 7)
    loose = FloatBackend(1e-8)
    assert oct_eq(a, b, loose) and not oct_eq(a, b, FLOAT) and not oct_eq(a, b)
    assert oct_eq(a, b, loose) is ref_oct_eq(a, b, loose)


# --- fraction-free eliminations, Gram-Schmidt and integer inputs ---------------


def ref_determinant(m):
    """Signed product of the pivots of elimination with partial pivoting, in
    the matrix's own scalars with Python ints taken as Fractions."""
    rows = [[F(x) if isinstance(x, int) else x for x in r] for r in m.rows]
    det = 1
    for k in range(8):
        piv = max(range(k, 8), key=lambda i: abs(rows[i][k]))
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        top = rows[k]
        det *= top[k]
        if not top[k]:
            break
        for row in rows[k + 1:]:
            if row[k]:
                f = row[k] / top[k]
                for j in range(k + 1, 8):
                    row[j] -= f * top[j]
    return det if det else abs(det)


def _permutation(images):
    return Matrix8(tuple(tuple(int(j == images[i]) for j in range(8)) for i in range(8)))


def _exact_determinant_cases():
    rng = random.Random("kernels|determinant")
    for bits in (8, 32, 64, 128):
        t = circle_from_parameter(F(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits)))
        g = f7(random_orthonormal_pair(rng.randrange(100)), t)
        yield g
        yield project_double_cover(g)
        yield cayley_orthogonal(random_antisymmetric(rng, range(8)))
        yield _exact_matrix(rng, bits)
    ints = Matrix8(tuple(tuple(i * 8 + j - 30 for j in range(8)) for i in range(8)))
    yield ints  # singular: rank 2
    yield Matrix8(g.rows[:7] + (g.rows[3],))  # singular Fractions
    yield _with_entry(_exact_matrix(rng, 16), 0, 0, 0)  # zero leading pivot
    yield _permutation([1, 2, 3, 4, 5, 6, 7, 0])  # a swap at every step, det -1
    reflection = _with_entry(Matrix8.identity(), 2, 2, -1)
    yield compose(g, reflection)  # det -1
    tridiagonal = Matrix8(tuple(tuple(3 if i == j else int(abs(i - j) == 1) for j in range(8))
                                for i in range(8)))
    yield tridiagonal
    yield Matrix8(tuple(tuple(x + 40 * (i == j) for j, x in enumerate(row))
                        for i, row in enumerate(ints.rows)))


def test_determinant_matches_the_fraction_elimination():
    dets = []
    for m in _exact_determinant_cases():
        got = determinant(m)
        assert got == ref_determinant(m) and type(got) is F
        dets.append(got)
    assert {0, 1, -1} <= set(dets) and len(set(dets)) > 3


def test_float_determinant_keeps_the_bits():
    rng = random.Random("kernels|determinant|float")
    mixed = Matrix8(tuple(tuple(int(i == j) if (i + j) % 3 else _float(rng) for j in range(8))
                          for i in range(8)))
    swap = _permutation([1, 0, 2, 3, 4, 5, 6, 7]).map_scalars(float)
    for m in [a for a, _, _, _ in _float_cases(rng)] + [mixed, swap]:
        _assert_same_bits(determinant(m), ref_determinant(m))


@pytest.fixture
def det_calls(monkeypatch):
    """Which of the residue path and ``determinant`` each so_check call took."""
    calls = []
    for name in ("_orthogonal_determinant", "determinant"):
        fn = getattr(geometry, name)

        def spy(m, fn=fn, name=name):
            calls.append(name)
            return fn(m)

        monkeypatch.setattr(geometry, name, spy)
    return calls


def _orthogonal_cases():
    """Exactly orthogonal matrices: a permutation and a quarter turn, which
    need a row swap at the first step, then f7 values, plane rotations and
    Cayley matrices, each also times a reflection (det -1)."""
    rng = random.Random("kernels|orthogonal-determinant")
    reflection = _with_entry(Matrix8.identity(), 5, 5, -1)
    yield _permutation([1, 2, 3, 4, 5, 6, 7, 0])
    yield plane_rotation(OrientedPlane(Octonion.basis(0), Octonion.basis(1)), CirclePoint(0, 1))
    for bits in (8, 32, 64, 128):
        t = circle_from_parameter(F(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits)))
        p = random_orthonormal_pair(rng.randrange(100))
        for m in (f7(p, t), plane_rotation(p, t), cayley_orthogonal(random_antisymmetric(
                rng, range(8)))):
            yield m
            yield compose(m, reflection)


def test_orthogonal_determinant_is_the_bareiss_value(det_calls):
    dets = []
    for m in _orthogonal_cases():
        rep = so_check(m)
        want = ref_determinant(m)
        assert type(rep.determinant) is F and rep.determinant == want == determinant(m)
        assert rep.orthogonality_residual == 0 and rep.passed is (want == 1)
        dets.append(want)
    assert det_calls == ["_orthogonal_determinant"] * len(dets) and {1, -1} == set(dets)


def test_non_orthogonal_and_float_matrices_keep_determinant(det_calls):
    rng = random.Random("kernels|orthogonal-determinant|other")
    rotation = plane_rotation(random_orthonormal_pair(3), circle_from_parameter(F(2, 7)))
    for m in (_exact_matrix(rng, 16), rotation.map_scalars(lambda x: 2 * x)):
        rep = so_check(m)
        assert rep.determinant == ref_determinant(m) and not rep.passed
    _assert_same_bits(so_check(rotation.map_scalars(float), FLOAT).determinant,
                      ref_determinant(rotation.map_scalars(float)))
    assert det_calls == ["determinant"] * 3


def test_a_prime_dividing_the_scale_falls_back_to_determinant(det_calls, monkeypatch):
    monkeypatch.setattr(geometry, "_PRIME", 5)
    rotation = plane_rotation(OrientedPlane(Octonion.basis(1), Octonion.basis(2)),
                              CirclePoint(F(3, 5), F(4, 5)))
    reflected = compose(rotation, _with_entry(Matrix8.identity(), 5, 5, -1))
    assert rotation.cleared[1] == reflected.cleared[1] == 5
    assert so_check(rotation).determinant == 1 and so_check(reflected).determinant == -1
    assert det_calls == ["_orthogonal_determinant", "determinant"] * 2


def test_the_residue_prime_is_one_digit_and_prime():
    p = geometry._PRIME
    assert p < 2**30 and all(p % d for d in range(2, math.isqrt(p) + 1))


def ref_project_out(a, span):
    for b in span:
        a = a - b.scale(inner(a, b) / norm_sq(b))
    return a


def ref_complement_vector(x, y, xy, backend):
    span = [Octonion.basis(0), x, y, xy]
    for i in range(1, 8):
        w = ref_project_out(Octonion.basis(i), span)
        if not backend.eq(norm_sq(w), 0):
            return w


@pytest.mark.parametrize("restrict", ["R7", "R5"])
def test_project_out_and_complement_vector_match_the_fraction_formula(restrict):
    rng = random.Random(f"kernels|project|{restrict}")
    for seed in range(6):
        p = random_orthonormal_pair(seed, restrict)
        x, y = p.u, p.v
        xy = mul(x, y)
        span = [Octonion.basis(0), x, y, xy]
        vectors = [Octonion.basis(i) for i in range(8)] + [_exact_octonion(rng, 16)]
        for a, s in [(a, span) for a in vectors] + [(vectors[-1], span[1:])]:
            got, want = project_out(a, s), ref_project_out(a, s)
            assert got == want and got.cleared == want.cleared
        got, want = complement_vector(x, y, xy), ref_complement_vector(x, y, xy, EXACT)
        assert got == want and got.cleared == want.cleared
        xf, yf = x.map_scalars(float), y.map_scalars(float)
        xyf = mul(xf, yf)
        span = [Octonion.basis(0), xf, yf, xyf]
        for a, s in [(a, span) for a in vectors[:8] + [_float_octonion(rng)]] + [
            (_float_octonion(rng), [Octonion.basis(0), x, y, xy])
        ]:
            _assert_same_bits(project_out(a, s), ref_project_out(a, s))
        got = complement_vector(xf, yf, xyf, FLOAT)
        _assert_same_bits(got, ref_complement_vector(xf, yf, xyf, FLOAT))


def ref_random_antisymmetric(rng, support):
    rows = [[F(0)] * 8 for _ in range(8)]
    for ai, i in enumerate(support):
        for j in support[ai + 1:]:
            x = F(rng.randint(-5, 5), rng.randint(1, 4))
            rows[i][j] = x
            rows[j][i] = -x
    return Matrix8.from_rows(rows)


@pytest.mark.parametrize("support", [SUBSPACE_COORDS["R7"], SUBSPACE_COORDS["R5"], range(8)],
                         ids=["R7", "R5", "R8"])
def test_random_antisymmetric_matches_the_fraction_build(support):
    for k in range(20):
        rng, ref_rng = derived_rng(k, "antisymmetric"), derived_rng(k, "antisymmetric")
        got, want = random_antisymmetric(rng, support), ref_random_antisymmetric(ref_rng, support)
        assert "rows" not in vars(got)
        assert got.cleared == want.cleared
        assert repr(got) == repr(want)
        assert rng.randrange(8) == ref_rng.randrange(8)


def test_plane_rotation_brings_u_and_v_over_one_scale():
    u = Octonion((0, F(3, 5), F(4, 5), 0, 0, 0, 0, 0))
    v = Octonion((0, 0, 0, F(12, 13), F(-5, 13), 0, 0, 0))
    e0, _, _, xy, w, _, _, wxy = basis_b(random_orthonormal_pair(3)).elements
    planes = [OrientedPlane(u, v), OrientedPlane(v, u), OrientedPlane(e0, xy),
              OrientedPlane(w, wxy)]
    angles = [CirclePoint(F(0), F(1)), circle_from_parameter(F(2, 7)),
              circle_from_parameter(F(-9, 4))]
    for p in planes:
        assert p.u.cleared[1] != p.v.cleared[1]
        for t in angles:
            _assert_exact_equal(plane_rotation(p, t), ref_plane_rotation(p, t))
