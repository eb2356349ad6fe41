import random
from fractions import Fraction as F

import pytest

from octospin.geometry import (
    Matrix8,
    OrientedPlane,
    PlaneError,
    SUBSPACE_COORDS,
    apply,
    cayley_columns,
    cayley_orthogonal,
    check_plane,
    choose_w,
    compose,
    determinant,
    mat_eq,
    max_abs_diff,
    parse_matrix,
    plane_rotation,
    random_antisymmetric,
    random_orthonormal_pair,
    rotate_plane_basis,
    serialize_matrix,
    so_check,
    solve_linear,
)
from octospin.octonion import Octonion, inner, mul, norm_sq, oct_eq
from octospin.scalar import (
    CIRCLE_QUARTER,
    CirclePoint,
    EXACT,
    FloatBackend,
    circle_from_parameter,
    derived_rng,
)

E = [Octonion.basis(i) for i in range(8)]
P12 = OrientedPlane(E[1], E[2])
T35 = CirclePoint(F(3, 5), F(4, 5))
ONE = CirclePoint(F(1), F(0))


def test_plane_rotation_quarter_turn():
    m = plane_rotation(P12, CIRCLE_QUARTER)
    assert apply(m, E[1]) == E[2]
    assert apply(m, E[2]) == -E[1]
    for j in (0, 3, 4, 5, 6, 7):
        assert apply(m, E[j]) == E[j]


def test_plane_rotation_identity_angle():
    assert mat_eq(plane_rotation(P12, ONE), Matrix8.identity())


def test_plane_rotation_scaling_invariance():
    scaled = OrientedPlane(E[1].scale(F(2)), E[2].scale(F(2)))
    assert mat_eq(plane_rotation(scaled, T35), plane_rotation(P12, T35))


def test_plane_rotation_rejects_bad_planes():
    with pytest.raises(PlaneError):
        plane_rotation(OrientedPlane(E[1], E[1] + E[2]), T35)
    with pytest.raises(PlaneError):
        plane_rotation(OrientedPlane(E[1], E[2].scale(F(2))), T35)
    with pytest.raises(PlaneError):
        plane_rotation(OrientedPlane(Octonion((0,) * 8), Octonion((0,) * 8)), T35)


def test_rotate_plane_basis():
    assert rotate_plane_basis(P12, ONE) == P12
    rotated = rotate_plane_basis(P12, CIRCLE_QUARTER)
    assert rotated.u == E[2]
    assert rotated.v == -E[1]
    check_plane(rotated)
    # same plane: the rotation built from either pair is identical
    assert mat_eq(plane_rotation(rotated, T35), plane_rotation(P12, T35))


def test_compose_and_apply():
    ident = Matrix8.identity()
    m = plane_rotation(P12, T35)
    assert mat_eq(compose(ident, m), m)
    assert mat_eq(compose(m, m.transpose()), ident)
    assert apply(plane_rotation(P12, CIRCLE_QUARTER), E[1]) == E[2]


def test_so_check():
    rep = so_check(Matrix8.identity())
    assert rep.passed and rep.orthogonality_residual == 0 and rep.determinant == 1
    flipped = Matrix8.from_rows(
        [[(-1 if i == j == 0 else (1 if i == j else 0)) for j in range(8)] for i in range(8)]
    )
    rep = so_check(flipped)
    assert not rep.passed and rep.determinant == -1
    assert so_check(plane_rotation(P12, T35)).passed


def test_determinant_backends():
    m = plane_rotation(P12, T35)
    assert determinant(m) == 1
    assert abs(determinant(m.map_scalars(float)) - 1.0) < 1e-12
    singular = Matrix8.from_rows([[F(1)] * 8 for _ in range(8)])
    assert determinant(singular) == 0


def test_determinant_of_int_matrix_is_exact():
    # tridiagonal (1, 3, 1): the determinant is the Fibonacci number F(18)
    rows = [[3 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(8)] for i in range(8)]
    det = determinant(Matrix8.from_rows(rows))
    assert det == 2584
    assert not isinstance(det, float)


def _fractions(solution):
    """The Fraction rows of a ``solve_linear`` solution (int rows, pivot)."""
    rows, pivot = solution
    assert all(type(v) is int for row in rows for v in row) and type(pivot) is int
    return [[F(v, pivot) for v in row] for row in rows]


def test_solve_linear_of_int_system_is_exact():
    x = _fractions(solve_linear([[2, 1], [1, 3]], [[1], [2]]))
    assert x == [[F(1, 5)], [F(3, 5)]]


def test_solve_linear_zero_leading_pivot():
    x = _fractions(solve_linear([[0, 1], [1, 1]], [[2], [5]]))
    assert x == [[F(3)], [F(2)]]


def test_max_abs_diff():
    m = plane_rotation(P12, T35)
    assert max_abs_diff(m, m) == 0
    assert max_abs_diff(m, Matrix8.identity()) == F(4, 5)


def test_solve_linear_singular():
    rows = [[F(1)] * 8 for _ in range(8)]
    with pytest.raises(ZeroDivisionError):
        solve_linear(rows, Matrix8.identity().rows)


def ref_solve_linear(a_rows, b_rows):
    """Forward elimination with partial pivoting in Fractions, then back
    substitution: the solve that fraction-free elimination replaced."""
    m = [[F(x) for x in list(a) + list(b)] for a, b in zip(a_rows, b_rows)]
    n = len(m)
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(m[i][k]))
        if not m[piv][k]:
            raise ZeroDivisionError("singular linear system")
        m[k], m[piv] = m[piv], m[k]
        for row in m[k + 1:]:
            if row[k]:
                f = row[k] / m[k][k]
                for j in range(k + 1, len(row)):
                    row[j] -= f * m[k][j]
    x = [None] * n
    for i in reversed(range(n)):
        known = [(m[i][j], x[j]) for j in range(i + 1, n) if m[i][j]]
        x[i] = [(c - sum(u * xj[k] for u, xj in known)) / m[i][i] for k, c in enumerate(m[i][n:])]
    return x


def ref_cayley_columns(a, cols):
    """The Cayley systems set up entry by entry from A's Fractions."""
    if any(a.rows[i][j] != -a.rows[j][i] for i in range(8) for j in range(8)):
        raise ValueError("matrix must be antisymmetric")
    plus = [[int(i == j) + a.rows[i][j] for j in range(8)] for i in range(8)]
    minus = [[int(i == j) - a.rows[i][j] for j in cols] for i in range(8)]
    return tuple(map(Octonion, zip(*_fractions(solve_linear(plus, minus)))))


@pytest.mark.parametrize("support", [SUBSPACE_COORDS["R7"], SUBSPACE_COORDS["R5"], range(8)])
def test_solve_linear_and_cayley_columns_match_reference(support):
    for k in range(100):
        a = random_antisymmetric(derived_rng(9, "solve", len(support), k), support)
        plus = [[int(i == j) + a.rows[i][j] for j in range(8)] for i in range(8)]
        minus = [[int(i == j) - a.rows[i][j] for j in range(8)] for i in range(8)]
        want = ref_solve_linear(plus, minus)
        assert repr(_fractions(solve_linear(plus, minus))) == repr(want)
        cols = (support[0], support[1], 0)
        got = cayley_columns(a, cols)
        assert repr(got) == repr(tuple(Octonion(tuple(row[c] for row in want)) for c in cols))
        assert repr(got) == repr(ref_cayley_columns(a, cols))


@pytest.mark.parametrize("support", [SUBSPACE_COORDS["R7"], SUBSPACE_COORDS["R5"], range(8)])
def test_cayley_columns_on_the_support_block_match_the_full_solve(support):
    outside = [j for j in range(8) if j not in support]
    for k in range(20):
        a = random_antisymmetric(derived_rng(13, "block", len(support), k), support)
        cols = tuple(support[:2]) + tuple(outside) + (support[-1],)
        got, want = cayley_columns(a, cols), ref_cayley_columns(a, cols)
        assert repr(got) == repr(want)
        assert [c.cleared for c in got] == [c.cleared for c in want]


def test_cayley_columns_with_a_zero_row_inside_the_support():
    a = random_antisymmetric(derived_rng(13, "zero-row"), SUBSPACE_COORDS["R7"])
    nums, scale = a.cleared
    a = Matrix8.scaled([0 if 3 in divmod(k, 8) else x for k, x in enumerate(nums)], scale)
    assert not any(a.cleared[0][24:32]) and any(a.cleared[0][8:16])
    for cols in ((1, 3), (3, 0), (2, 7, 3, 1), (3,), (0,)):
        got, want = cayley_columns(a, cols), ref_cayley_columns(a, cols)
        assert repr(got) == repr(want)
        assert [c.cleared for c in got] == [c.cleared for c in want]
    assert cayley_columns(a, (3,))[0] == E[3]
    # rows 0 and 5 are nonzero only at each other's column
    rows = [[0] * 8 for _ in range(8)]
    rows[0][5], rows[5][0], rows[1][2], rows[2][1] = 2, -2, 1, -1
    a = Matrix8.scaled([x for row in rows for x in row], 3)
    for cols in ((5, 0, 3), (1, 5)):
        assert repr(cayley_columns(a, cols)) == repr(ref_cayley_columns(a, cols))


def test_solve_linear_matches_reference_with_row_swaps():
    """Sparse int/Fraction systems, so zero pivots force row exchanges."""
    rng = random.Random("solve|swaps")
    entries = [0, 0, 0, 1, -2, 3, F(1, 2), F(-5, 3)]
    solved = 0
    while solved < 100:
        n = rng.randint(1, 6)
        a = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        b = [[rng.choice(entries) for _ in range(2)] for _ in range(n)]
        try:
            want = ref_solve_linear(a, b)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                solve_linear(a, b)
            continue
        assert repr(_fractions(solve_linear(a, b))) == repr(want)
        solved += 1


def test_cayley_zero_is_identity():
    zero = Matrix8.from_rows([[F(0)] * 8 for _ in range(8)])
    assert mat_eq(cayley_orthogonal(zero), Matrix8.identity())


def test_cayley_single_block():
    rows = [[F(0)] * 8 for _ in range(8)]
    rows[1][2] = F(1)
    rows[2][1] = F(-1)
    q = cayley_orthogonal(Matrix8.from_rows(rows))
    # expected value computed by exact elimination: the quarter turn of [e1, e2]
    assert q.rows[1][1] == 0 and q.rows[1][2] == -1
    assert q.rows[2][1] == 1 and q.rows[2][2] == 0
    assert mat_eq(q, plane_rotation(P12, CIRCLE_QUARTER))


def test_cayley_requires_antisymmetry():
    rows = [[F(0)] * 8 for _ in range(8)]
    rows[1][2] = F(1)
    with pytest.raises(ValueError):
        cayley_orthogonal(Matrix8.from_rows(rows))
    # entries over different denominators, compared on the cleared rows
    rows[1][2], rows[2][1] = F(1, 2), F(-1, 3)
    with pytest.raises(ValueError):
        cayley_columns(Matrix8.from_rows(rows), (1, 2))
    rows[2][1], rows[3][4], rows[4][3] = F(-1, 2), F(2, 3), F(-2, 3)
    a = Matrix8.from_rows(rows)
    assert repr(cayley_columns(a, (1, 2))) == repr(ref_cayley_columns(a, (1, 2)))


def test_cayley_outputs_are_special_orthogonal():
    for k in range(20):
        rng = derived_rng(5, "cayley", k)
        q = cayley_orthogonal(random_antisymmetric(rng, range(8)))
        rep = so_check(q)
        assert rep.passed and rep.orthogonality_residual == 0


def test_random_orthonormal_pair_r7():
    p = random_orthonormal_pair(42, "R7", 0)
    assert inner(p.u, p.v) == 0
    assert norm_sq(p.u) == 1 and norm_sq(p.v) == 1
    assert p.u.coords[0] == 0 and p.v.coords[0] == 0
    xy = mul(p.u, p.v)
    assert norm_sq(xy) == 1 and xy.coords[0] == 0


def test_random_orthonormal_pair_r5_support():
    p = random_orthonormal_pair(42, "R5", 3)
    for vec in (p.u, p.v):
        assert vec.coords[0] == 0 and vec.coords[6] == 0 and vec.coords[7] == 0
    assert inner(p.u, p.v) == 0 and norm_sq(p.u) == 1


@pytest.mark.parametrize("subspace", ["R7", "R5"])
def test_random_orthonormal_pair_is_two_cayley_columns(subspace):
    support = SUBSPACE_COORDS[subspace]
    for k in range(5):
        rng = derived_rng(11, "pair", subspace, k)
        q = cayley_orthogonal(random_antisymmetric(rng, support))
        p = random_orthonormal_pair(11, subspace, k)
        assert (p.u, p.v) == (q.column(support[0]), q.column(support[1]))


def test_random_orthonormal_pair_determinism():
    a = random_orthonormal_pair(7, "R7", 5)
    b = random_orthonormal_pair(7, "R7", 5)
    c = random_orthonormal_pair(7, "R7", 6)
    assert a == b
    assert a != c


def test_choose_w_standard_plane():
    assert choose_w(P12) == E[4]


def test_choose_w_orthogonality():
    for k in range(10):
        p = random_orthonormal_pair(11, "R7", k)
        w = choose_w(p)
        assert norm_sq(w) != 0
        assert w.coords[0] == 0
        for b in (Octonion.basis(0), p.u, p.v, mul(p.u, p.v)):
            assert inner(w, b) == 0


@pytest.mark.parametrize("backend", [EXACT, FloatBackend()], ids=["exact", "float"])
def test_choose_w_rejects_inadmissible_planes(backend):
    zero = Octonion((0,) * 8)
    cases = [
        ((zero, zero), "plane spanning pair must be nonzero"),
        ((E[1], zero), "plane spanning pair must have equal norms"),
        ((E[1], E[1]), "plane spanning pair must be orthogonal"),
    ]
    for (u, v), message in cases:
        p = backend.convert(OrientedPlane(u, v))
        with pytest.raises(PlaneError, match=message):
            choose_w(p, backend)


def test_matrix_serialization_round_trip():
    m = plane_rotation(P12, T35)
    text = serialize_matrix(m, EXACT)
    assert parse_matrix(text, EXACT) == m
    assert text[1][1] == "3/5"
