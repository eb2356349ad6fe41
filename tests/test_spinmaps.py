import random
from fractions import Fraction as F
from functools import reduce

import pytest

from octospin import spinmaps
from octospin.geometry import (
    Matrix8,
    OrientedPlane,
    PlaneError,
    apply,
    choose_w,
    compose,
    mat_eq,
    plane_rotation,
    random_orthonormal_pair,
    so_check,
)
from octospin.octonion import Octonion, mul, norm_sq, oct_eq
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
    random_rational,
)
from octospin.spinmaps import (
    FRAME_TABLE,
    FrameB,
    FrameError,
    basis_b,
    f5,
    f7,
    f7_factors,
    f7xf5,
    frame_table,
    format_frame_table,
    h70,
    p_map,
    project_double_cover,
    spin8_map,
    triality_check,
    verify_spin7,
)

E = [Octonion.basis(i) for i in range(8)]
P12 = OrientedPlane(E[1], E[2])
T35 = CirclePoint(F(3, 5), F(4, 5))
ONE = CirclePoint(F(1), F(0))


def rand_inputs(k, restrict="R7"):
    p = random_orthonormal_pair(90, restrict, k)
    t = circle_from_parameter(random_rational(derived_rng(90, "t", k), 8, 5))
    return p, t


def test_basis_b_standard_instance():
    frame = basis_b(P12, E[4])
    expected = (E[0], E[1], E[2], E[3], E[4], -E[5], E[6], -E[7])
    assert frame.elements == expected
    assert frame.norm_w == 1


def test_basis_b_defaults_to_choose_w():
    assert basis_b(P12) == basis_b(P12, E[4])


def test_zero_plane_is_a_plane_error():
    zero = OrientedPlane(Octonion((0,) * 8), Octonion((0,) * 8))
    with pytest.raises(PlaneError, match="nonzero"):
        f7(zero, T35)
    with pytest.raises(PlaneError, match="nonzero"):
        basis_b(zero)


def test_basis_b_checks_the_w_products_on_their_cleared_form():
    for k in range(3):
        frame = basis_b(rand_inputs(k)[0])
        for el in frame.elements[5:]:  # wx, wy, w(xy)
            assert "coords" not in vars(el)


def test_f7_keeps_the_frame_products_on_their_cleared_form(monkeypatch):
    frames = []

    def recording_basis_b(*args):
        frames.append(basis_b(*args))
        return frames[-1]

    monkeypatch.setattr(spinmaps, "basis_b", recording_basis_b)
    for k in range(3):
        f7(rand_inputs(k)[0], T35)
        for el in frames[-1].elements[5:]:  # wx, wy, w(xy)
            assert "coords" not in vars(el)
    assert len(frames) == 3


def test_basis_b_scaled_w():
    frame = basis_b(P12, E[4].scale(F(2)))
    assert frame.norm_w == 4
    assert frame.elements[5] == E[5].scale(F(-2))
    assert frame.elements[7] == E[7].scale(F(-2))


def test_basis_b_rejects_bad_inputs():
    with pytest.raises(FrameError, match="frame elements xy and w are not orthogonal"):
        basis_b(P12, E[3])  # inside span{e0,x,y,xy}
    with pytest.raises(FrameError, match="w must be nonzero"):
        basis_b(P12, Octonion((0,) * 8))
    with pytest.raises(FrameError, match="frame elements e0 and w are not orthogonal"):
        basis_b(P12, E[0] + E[4])  # not purely imaginary
    with pytest.raises(FrameError, match="frame elements e0 and x are not orthogonal"):
        basis_b(OrientedPlane(E[0], E[1]), E[4])  # plane not purely imaginary
    scaled = OrientedPlane(E[1].scale(F(2)), E[2].scale(F(2)))
    with pytest.raises(FrameError, match="frame element x has the wrong norm"):
        basis_b(scaled, E[4])  # spanning pair must be unit


def test_frame_table_standard_instance():
    assert frame_table(basis_b(P12, E[4])) == ()
    assert FRAME_TABLE[1][2] == (1, 3, 0)  # x*y = +xy
    assert FRAME_TABLE[4][3] == (1, 7, 0)  # w*(xy) = +w(xy)
    assert FRAME_TABLE[3][4] == (-1, 7, 0)  # (xy)*w = -w(xy)
    assert FRAME_TABLE[5][6] == (-1, 3, 1)  # (wx)*(wy) = -N*xy
    assert FRAME_TABLE[0][0] == (1, 0, 0)
    assert FRAME_TABLE[4][4] == (-1, 0, 1)  # w*w = -N*e0
    rendered = format_frame_table(FRAME_TABLE)
    assert "+xy" in rendered and "-N*xy" in rendered


def test_frame_table_matches_direct_multiplication_on_random_frames():
    for k in range(5):
        p, _ = rand_inputs(k)
        frame = basis_b(p, choose_w(p))
        assert frame_table(frame) == ()
        n = frame.norm_w
        for i in range(8):
            for j in range(8):
                sign, idx, power = FRAME_TABLE[i][j]
                expected = frame.elements[idx].scale(F(sign) * (n if power else 1))
                assert oct_eq(mul(frame.elements[i], frame.elements[j]), expected)


def test_frame_table_rejects_non_frame():
    bogus = FrameB((E[0], E[1], E[2], E[3], E[4], E[5], E[6], E[6] + E[7]), F(1))
    assert frame_table(bogus)


def test_f7_identity_angle():
    assert mat_eq(f7(P12, ONE), Matrix8.identity())


def test_f7_quarter_turn_signed_permutation():
    m = f7(P12, CIRCLE_QUARTER, E[4])
    images = {0: (3, 1), 3: (0, -1), 1: (2, 1), 2: (1, -1),
              4: (7, -1), 7: (4, 1), 5: (6, -1), 6: (5, 1)}
    for src, (dst, sign) in images.items():
        assert apply(m, E[src]) == E[dst].scale(F(sign))


def test_f7_half_turn_is_minus_identity():
    for k in range(3):
        p, _ = rand_inputs(k)
        assert mat_eq(f7(p, CIRCLE_HALF), -Matrix8.identity())


def test_f7_w_override_is_invariant():
    w = choose_w(P12)
    frame = basis_b(P12, w)
    w2 = frame.elements[4].scale(F(2)) + frame.elements[6].scale(F(-3, 2))
    assert mat_eq(f7(P12, T35, w2), f7(P12, T35, w))


def test_f7_one_parameter_subgroup():
    p, t = rand_inputs(0)
    t2 = circle_from_parameter(F(-2, 3))
    lhs = f7(p, angle_sum(t, t2))
    rhs = compose(f7(p, t), f7(p, t2))
    assert mat_eq(lhs, rhs)


def test_f7_outputs_are_special_orthogonal():
    p, t = rand_inputs(1)
    assert so_check(f7(p, t)).passed


def test_f7_factors_commute():
    p, t = rand_inputs(2)
    factors = f7_factors(basis_b(p), t)
    for i in range(4):
        for j in range(i + 1, 4):
            assert mat_eq(compose(factors[i], factors[j]), compose(factors[j], factors[i]))


# --- the exact rotation product as a sum, against the chain of products ------


def _chain(p, t, w=None, backend=EXACT):
    """The four factors multiplied out by ``compose``."""
    return reduce(compose, f7_factors(basis_b(p, w, backend), t, backend))


def _angles():
    """The quarter and half turns, then stereographic angles at 8-128 bits."""
    rng = random.Random("f7-sum|angles")
    yield CIRCLE_QUARTER
    yield CIRCLE_HALF
    for bits in (8, 16, 32, 64, 128):
        top = 1 << bits
        yield circle_from_parameter(F(rng.randrange(-top, top), rng.randrange(1, top)))


@pytest.mark.parametrize("restrict", ["R7", "R5"])
def test_exact_f7_equals_the_chain_of_factors(restrict):
    for k in range(3):
        p, _ = rand_inputs(k, restrict)
        e = basis_b(p).elements
        for w in (None, e[4].scale(F(2, 3)) + e[6].scale(F(-5, 7)) + e[7]):
            for t in _angles():
                got, want = f7(p, t, w), _chain(p, t, w)
                assert got.cleared == want.cleared
                assert repr(got) == repr(want)


def _exact_frames():
    """Random R7 and R5 frames, with the default w and a w of norm N != 1."""
    for restrict in ("R7", "R5"):
        for k in range(3):
            p, _ = rand_inputs(k, restrict)
            e = basis_b(p).elements
            for w in (None, e[4].scale(F(2, 3)) + e[6].scale(F(-5, 7)) + e[7]):
                yield basis_b(p, w)


def test_complex_structure_is_antisymmetric_and_squares_to_minus_one():
    minus_one = -Matrix8.identity()
    for frame in _exact_frames():
        j = frame.complex_structure
        assert j is frame.complex_structure
        assert j.transpose() == -j
        assert compose(j, j) == minus_one
        assert j.cleared == reduce(compose, f7_factors(frame, CIRCLE_QUARTER)).cleared


def test_complex_structure_equals_the_full_sum_of_plane_terms():
    for frame in _exact_frames():
        full = [[0] * 8 for _ in range(8)]
        for q in frame.planes():
            u, v, n = q.u.coords, q.v.coords, norm_sq(q.u)
            for i in range(8):
                for j in range(8):
                    full[i][j] += (v[i] * u[j] - u[i] * v[j]) / n
        want = Matrix8.from_rows(full)
        assert frame.complex_structure == want
        assert frame.complex_structure.cleared == want.cleared


def test_c_identity_plus_s_complex_structure_is_the_chain():
    frames = list(_exact_frames())
    assert norm_sq(frames[1].elements[4]) != 1
    for frame in frames:
        j = frame.complex_structure.rows
        for t in _angles():
            got = Matrix8.from_rows([[t.c * (i == k) + t.s * j[i][k] for k in range(8)]
                                     for i in range(8)])
            want = reduce(compose, f7_factors(frame, t))
            assert got == want and got.cleared == want.cleared


def test_triality_psi_quarter_equals_the_chain(monkeypatch):
    products = []
    product = spinmaps._rotation_product

    def recording(frame, t, backend):
        products.append((frame, t, product(frame, t, backend)))
        return products[-1][2]

    monkeypatch.setattr(spinmaps, "_rotation_product", recording)
    for k in range(3):
        p, t = rand_inputs(k)
        assert triality_check(p, t).explicit_case_ok
    assert [t for _, t, _ in products[1::2]] == [CIRCLE_QUARTER] * 3
    for frame, t, got in products:
        want = reduce(compose, f7_factors(frame, t))
        assert got.cleared == want.cleared


def test_exact_inputs_on_the_float_backend_take_the_sum():
    """Exact planes and angles give factors over int scales on any backend;
    their sum is the chain, exactly."""
    backend = FloatBackend(1e-9)
    for k in range(3):
        for restrict in ("R7", "R5"):
            p, t = rand_inputs(k, restrict)
            factors = f7_factors(basis_b(p, None, backend), t, backend)
            assert all(type(m.cleared[1]) is int for m in factors)
            got, want = f7(p, t, None, backend), _chain(p, t, None, backend)
            assert got.cleared == want.cleared
            assert repr(got) == repr(want)


@pytest.mark.parametrize("epsilon", [1e-9, 1e-15])
def test_float_f7_keeps_the_bits_of_the_chain(epsilon):
    backend = FloatBackend(epsilon)
    for k in range(3):
        for restrict in ("R7", "R5"):
            p, t = (v.map_scalars(float) for v in rand_inputs(k, restrict))
            for angle in (t, CIRCLE_QUARTER):
                got = f7(p, angle, None, backend)
                assert repr(got) == repr(_chain(p, angle, None, backend))
                assert all(type(x) is float for row in got.rows for x in row)


def test_f5_is_restriction():
    assert mat_eq(f5(P12, CIRCLE_QUARTER), f7(P12, CIRCLE_QUARTER))
    assert mat_eq(f5(P12, ONE), Matrix8.identity())


def test_f5_rejects_unsupported_planes():
    with pytest.raises(PlaneError):
        f5(OrientedPlane(E[1], E[6]), T35)
    with pytest.raises(PlaneError):
        f5(OrientedPlane(E[0], E[1]), T35)


def test_f5_on_e4_e5_is_member():
    p = OrientedPlane(E[4], E[5])
    m = f5(p, T35)
    assert so_check(m).passed
    assert verify_spin7(m).is_member


def test_f7xf5_identities():
    p7, _ = rand_inputs(3)
    p5 = OrientedPlane(E[4], E[5])
    assert mat_eq(f7xf5(p7, ONE, p5, ONE), Matrix8.identity())
    assert mat_eq(f7xf5(p7, T35, p5, ONE), f7(p7, T35))
    assert verify_spin7(f7xf5(p7, T35, p5, CIRCLE_QUARTER)).is_member


def test_h70():
    p7, t = rand_inputs(4)
    p5, t2 = rand_inputs(4, restrict="R5")
    assert mat_eq(h70(p7, ONE, p5, ONE), Matrix8.identity())
    m = h70(p7, t, p5, t2)
    assert apply(m, E[0]) == E[0]
    single = h70(P12, CIRCLE_QUARTER, p5, ONE)
    assert mat_eq(single, plane_rotation(P12, CIRCLE_QUARTER))


def test_p_map():
    assert p_map(ONE, ONE) == (ONE, ONE)
    assert p_map(CIRCLE_QUARTER, CIRCLE_QUARTER) == (CIRCLE_HALF, CIRCLE_HALF)
    assert p_map(T35, ONE) == (CirclePoint(F(-7, 25), F(24, 25)), ONE)


def test_project_double_cover_identity_and_center():
    ident = Matrix8.identity()
    assert mat_eq(project_double_cover(ident), ident)
    assert mat_eq(project_double_cover(-ident), ident)


def test_minus_identity_satisfies_relation_on_all_pairs():
    minus = -Matrix8.identity()
    g = project_double_cover(minus)
    for i in range(8):
        for j in range(8):
            lhs = mul(g.column(i), minus.column(j))
            rhs = apply(minus, mul(E[i], E[j]))
            assert oct_eq(lhs, rhs)


def test_projection_gives_doubled_plane_rotation():
    p, t = rand_inputs(5)
    assert mat_eq(project_double_cover(f7(p, t)), plane_rotation(p, double_angle(t)))


def test_verify_spin7_on_f7_values():
    p, t = rand_inputs(6)
    report = verify_spin7(f7(p, t))
    assert report.is_member and report.g_in_so7 and not report.relation_failures


def test_verify_spin7_reports_invariant():
    member = verify_spin7(-Matrix8.identity())
    assert member.is_member == (member.g_in_so7 and not member.relation_failures)
    assert member.is_member
    reject = verify_spin7(plane_rotation(OrientedPlane(E[0], E[1]), CIRCLE_QUARTER))
    assert not reject.is_member
    assert reject.relation_failures
    assert reject.is_member == (reject.g_in_so7 and not reject.relation_failures)


def _assert_first_column_non_member(backend, first):
    m = plane_rotation(P12, T35)
    gt = backend.convert(Matrix8(tuple((first,) + row[1:] for row in m.rows)))
    report = verify_spin7(gt, backend)
    assert not report.is_member and not report.g_in_so7
    assert report.relation_failures == ()
    assert all(x == 0 for row in report.candidate_g.rows for x in row)
    assert report.to_dict(backend)["is_member"] is False


@pytest.mark.parametrize("backend", [EXACT, FloatBackend(1e-9)])
def test_verify_spin7_zero_first_column_is_a_non_member(backend):
    _assert_first_column_non_member(backend, 0)


# Every coordinate of g~(e0) = 1e-5 exceeds epsilon but |g~(e0)|^2 = 8e-10 does
# not, so right_divide would refuse it and there is no candidate to divide by.
def test_verify_spin7_negligible_first_column_is_a_non_member():
    _assert_first_column_non_member(FloatBackend(1e-9), 1e-5)


def _identity_with_first_row_entry(r, backend):
    rows = [list(row) for row in backend.convert(Matrix8.identity()).rows]
    rows[0][3] = r
    return Matrix8.from_rows(rows)


# g~ = I with g~[0][3] = r has g~(e0) = e0, so its candidate g is g~ itself.
# g fixes e0, so the first row of g^T g is the first row (1, 0, 0, r, 0, ...)
# of g: the residual of so_check bounds it, and so_check alone decides whether
# g also maps Im O into itself.
@pytest.mark.parametrize(
    "backend, r",
    [(EXACT, F(1, 10**4)), (EXACT, F(3, 10))]
    + [(FloatBackend(eps), r) for eps in (1e-6, 2e-4, 0.5) for r in (1e-4, 0.3)],
)
def test_so_check_decides_whether_g_keeps_the_imaginary_subspace(backend, r):
    gt = _identity_with_first_row_entry(r, backend)
    g = project_double_cover(gt)
    assert oct_eq(g.column(0), E[0], backend)
    report = verify_spin7(gt, backend)
    assert report.g_in_so7 == so_check(g, backend).passed
    assert report.g_in_so7 == (backend is not EXACT and r <= backend.epsilon)


@pytest.mark.parametrize("epsilon", [1e-6, 2e-4])
def test_float_matrix_with_an_int_first_column_gets_a_verdict(epsilon):
    """The identity's int entries with one float: |g~(e0)|^2 is an int sum
    but is taken over the float scale, so the candidate is divided at once."""
    rows = [list(row) for row in Matrix8.identity().rows]
    rows[0][3] = 1e-4
    backend = FloatBackend(epsilon)
    report = verify_spin7(Matrix8.from_rows(rows), backend)
    assert all(type(x) is float for row in report.candidate_g.rows for x in row)
    assert report.g_in_so7 == report.is_member == (1e-4 <= epsilon)
    assert report.g_in_so7 == so_check(report.candidate_g, backend).passed


def test_membership_report_serialization():
    report = verify_spin7(f7(P12, CIRCLE_QUARTER))
    d = report.to_dict()
    assert d["is_member"] is True
    assert d["relation_failures"] == []
    assert len(d["candidate_g"]) == 8


def test_triality_standard_instance():
    report = triality_check(P12, T35)
    assert report.explicit_case_ok
    assert not report.pair_failures and not report.half_turn_failures


def test_triality_trivial_angle():
    report = triality_check(P12, ONE)
    assert report.explicit_case_ok
    assert not report.pair_failures and not report.half_turn_failures


def test_triality_explicit_case_formula():
    # g(x) psi(y) must equal -s*e0 + c*xy on the standard instance
    psi = f7(P12, T35, E[4])
    g = plane_rotation(P12, double_angle(T35))
    lhs = mul(apply(g, E[1]), apply(psi, E[2]))
    assert lhs == E[0].scale(F(-4, 5)) + E[3].scale(F(3, 5))


def test_spin8_map():
    p7, t = rand_inputs(7)
    p5 = OrientedPlane(E[4], E[5])
    matrix, s = spin8_map(p7, t, p5, T35, E[0])
    assert s == E[0]
    assert verify_spin7(matrix).is_member
    matrix, s = spin8_map(p7, ONE, p5, ONE, E[0])
    assert mat_eq(matrix, Matrix8.identity())
    with pytest.raises(ValueError):
        spin8_map(p7, t, p5, T35, E[0].scale(F(2)))


# --- the relation loop against the Fraction-building loop it replaced ---------


def ref_relation_failures(left, images, table, n, backend, rows=range(8)):
    """Multiply each pair out with ``mul`` and compare it with the signed,
    scaled image by ``oct_eq``."""
    scaled = (images, [v.scale(n) for v in images])

    def image(sign, k, power):
        return scaled[power][k] if sign > 0 else -scaled[power][k]

    return tuple(
        (i, j)
        for i in rows
        for j in range(8)
        if not oct_eq(mul(left[i], images[j]), image(*table[i][j]), backend)
    )


@pytest.fixture
def relation_calls(monkeypatch):
    """Every call of the relation loop also runs the reference and asserts the
    same pairs; the list collects the pairs of each call."""
    calls = []
    loop = spinmaps._relation_failures

    def checked(*args, **kwargs):
        got = loop(*args, **kwargs)
        assert got == ref_relation_failures(*args, **kwargs)
        calls.append(got)
        return got

    monkeypatch.setattr(spinmaps, "_relation_failures", checked)
    return calls


FLOAT = FloatBackend(1e-9)


def _on(backend, *values):
    """The values with their scalars in the backend (planes, circle points, matrices)."""
    return [backend.convert(v) for v in values]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_relation_loop_matches_reference_on_members(relation_calls, backend):
    for k in range(3):
        p, t = _on(backend, *rand_inputs(k))
        p5, t2 = _on(backend, *rand_inputs(k, "R5"))
        for gt in (f7(p, t, None, backend), f5(p5, t2, backend), f7xf5(p, t, p5, t2, backend)):
            assert verify_spin7(gt, backend).is_member
    assert len(relation_calls) == 9 and not any(relation_calls)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_relation_loop_matches_reference_on_rotations_and_center(relation_calls, backend):
    rotations = _on(backend, plane_rotation(OrientedPlane(E[0], E[1]), CIRCLE_QUARTER),
                    plane_rotation(P12, T35), h70(*rand_inputs(1), *rand_inputs(1, "R5")))
    for gt in rotations:
        assert not verify_spin7(gt, backend).is_member
    assert verify_spin7(-Matrix8.identity(), backend).is_member
    assert all(relation_calls[:3]) and relation_calls[3] == ()


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_relation_loop_matches_reference_when_norm_w_is_not_one(relation_calls, backend):
    for w in (E[4].scale(F(2)), E[4].scale(F(-3, 7)) + E[6].scale(F(3, 7))):
        p, w = _on(backend, P12, w)
        frame = basis_b(p, w, backend)
        assert frame.norm_w != 1 and frame_table(frame, backend) == ()
    # w left rational beside a float plane: its numerators are not its values
    p, t = _on(backend, P12, T35)
    w = E[4].scale(F(1, 3))
    assert frame_table(basis_b(p, w, backend), backend) == ()
    assert verify_spin7(f7(p, t, w, backend), backend).is_member
    for k in range(3):
        p, t = _on(backend, *rand_inputs(k))
        assert triality_check(p, t, backend).explicit_case_ok
    # three frame tables, a membership, then a pair and a half-turn check per triality
    assert len(relation_calls) == 10 and not any(relation_calls)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_relation_loop_matches_reference_on_a_flipped_frame_table(
    relation_calls, monkeypatch, backend
):
    table = [list(row) for row in FRAME_TABLE]
    sign, k, power = table[5][6]
    table[5][6] = (-sign, k, power)
    monkeypatch.setattr(spinmaps, "FRAME_TABLE", tuple(map(tuple, table)))
    p, w = _on(backend, P12, E[4].scale(F(2)))
    assert (5, 6) in frame_table(basis_b(p, w, backend), backend)
    p, t = _on(backend, *rand_inputs(2))
    triality_check(p, t, backend)
    assert all(relation_calls)


def test_relation_loop_matches_reference_at_a_tight_float_tolerance(relation_calls):
    """At epsilon 1e-15 rounding makes some float members fail pairs that
    the exact run passes; the two loops must still agree pair for pair."""
    tight = FloatBackend(1e-15)
    for k in range(6):
        p, t = rand_inputs(k)
        verify_spin7(f7(p, t))
        pf, tf = _on(tight, p, t)
        verify_spin7(f7(pf, tf, None, tight), tight)
        triality_check(pf, tf, tight)
    # per k: one exact membership call, then three tight calls
    assert len(relation_calls) == 24
    exact = relation_calls[0::4]
    tight_calls = [pairs for i, pairs in enumerate(relation_calls) if i % 4]
    assert not any(exact) and any(tight_calls)
