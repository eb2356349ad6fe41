"""Oriented planes in R^8, plane rotations as matrices, and exact random frames.

A rotation of an oriented plane is represented by its full 8x8 matrix.
The spanning pair of a plane is only required to be orthogonal with equal
norms, not unit: the rotation formula divides by the common norm, which
keeps every construction inside the rationals (unit vectors with rational
coordinates are rare, equal-norm pairs are everywhere).

Special-orthogonal matrices with exact rational entries come from the
Cayley transform A -> (I - A)(I + A)^-1 of random antisymmetric rational
matrices; their columns provide exactly orthonormal frames for the random
plane generator.  On exact input their solve, the determinant and the
Gram-Schmidt step are fraction-free, on the integer numerators; an exactly
orthogonal matrix's determinant, +-1, is read off one residue mod a prime.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .octonion import Octonion, Vector8, inner, inner_cleared, mul, norm_sq
from .scalar import (Backend, Cleared, EXACT, Scalar, cleared, cleared_eq, derived_rng,
                     over_one_scale, quotient)


class PlaneError(ValueError):
    """An oriented plane violates its orthogonality/equal-norm contract."""


@dataclass(frozen=True)
class OrientedPlane:
    """Ordered orthogonal spanning pair [u, v] with equal norms.

    [u, v] and [v, u] carry opposite orientations.
    """

    u: Vector8
    v: Vector8

    def map_scalars(self, fn) -> "OrientedPlane":
        return OrientedPlane(self.u.map_scalars(fn), self.v.map_scalars(fn))


def check_plane(p: OrientedPlane, backend: Backend = EXACT) -> Scalar:
    """The common squared norm N = |u|^2 of the spanning pair.

    Raises PlaneError unless u ⟂ v and |u|^2 = |v|^2 != 0, for ``backend.eq``.
    """
    (nu, su), (nv, sv) = inner_cleared(p.u, p.u), inner_cleared(p.v, p.v)
    if backend.eq(nu, 0):
        raise PlaneError("plane spanning pair must be nonzero")
    if not cleared_eq([nu], su, [nv], sv, backend):
        raise PlaneError("plane spanning pair must have equal norms")
    if not backend.eq(inner_cleared(p.u, p.v)[0], 0):
        raise PlaneError("plane spanning pair must be orthogonal")
    return quotient(nu, su)


@dataclass(frozen=True)
class Matrix8(Cleared):
    """8x8 matrix, row-major, generic over the scalar backend.

    A ``scalar.Cleared``: its cleared form is the 64 entries' numerators, flat
    and row-major (row i is ``nums[8*i:8*i+8]``, column j ``nums[j::8]``), and
    one from ``scaled`` builds ``rows`` on first read.
    """

    rows: Tuple[Tuple[Scalar, ...], ...]

    _field = "rows"

    @staticmethod
    def _shape(flat):
        return tuple(tuple(flat[i:i + 8]) for i in range(0, 64, 8))

    def _flat(self):
        return [x for row in self.rows for x in row]

    @staticmethod
    def identity() -> "Matrix8":
        """The shared identity in Python ints."""
        return _IDENTITY

    @staticmethod
    def from_rows(rows) -> "Matrix8":
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 8 or any(len(r) != 8 for r in rows):
            raise ValueError("matrix needs 8x8 entries")
        return Matrix8(rows)

    def column(self, j: int) -> Vector8:
        nums, scale = self.cleared
        return Octonion.scaled(nums[j::8], scale)

    def transpose(self) -> "Matrix8":
        """The transpose, from the numerators transposed over the same scale."""
        nums, scale = self.cleared
        return Matrix8.scaled([x for j in range(8) for x in nums[j::8]], scale)


#: The identity in ints, which subtract exactly from Fractions and floats alike.
_IDENTITY = Matrix8(tuple(tuple(int(i == j) for j in range(8)) for i in range(8)))


def compose(a: Matrix8, b: Matrix8) -> Matrix8:
    """Matrix product a*b (apply b first, then a), on cleared numerators."""
    (an, sa), (bn, sb) = a.cleared, b.cleared
    rows, cols = [an[8 * i:8 * i + 8] for i in range(8)], [bn[j::8] for j in range(8)]
    return Matrix8.scaled([sum(map(operator.mul, row, col)) for row in rows for col in cols],
                          sa * sb)


def apply(a: Matrix8, z: Vector8) -> Vector8:
    """Matrix-vector product, on cleared numerators."""
    (an, sa), (zn, sz) = a.cleared, z.cleared
    return Octonion.scaled([sum(map(operator.mul, an[8 * i:8 * i + 8], zn)) for i in range(8)],
                           sa * sz)


def mat_eq(a: Matrix8, b: Matrix8, backend: Backend = EXACT) -> bool:
    """Entrywise equality for the backend, on the cleared numerators."""
    return cleared_eq(*a.cleared, *b.cleared, backend)


def max_abs_diff(a: Matrix8, b: Matrix8) -> Scalar:
    """Largest entry-wise |a - b|, as max |x*sb - y*sa| / (sa*sb) on the
    cleared numerators x over sa of a and y over sb of b."""
    (an, sa), (bn, sb) = a.cleared, b.cleared
    return quotient(max([0] + [abs(x * sb - y * sa) for x, y in zip(an, bn)]), sa * sb)


def _bareiss(m, n: int, below: bool):
    """Fraction-free (Bareiss) elimination on the int rows m, in place, over
    their first n columns: pivot on the first nonzero entry; each row below it
    (``below``), or each other row, becomes (p*x - f*y) // prev, exactly.
    Returns the sign of the row swaps and the last pivot, 0 if singular."""
    sign = prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return sign, 0
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        top, p = m[k][k + 1:], m[k][k]
        for row in m[k + 1:] if below else m[:k] + m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = p
    return sign, prev


def determinant(m: Matrix8) -> Scalar:
    """The determinant: on cleared numerators N over an int scale s, a
    Fraction, from forward ``_bareiss`` ending on +-det(N) = +-s^8 det(M).  A
    float matrix keeps the signed product of the pivots of elimination with
    partial pivoting in its own scalars, ints taken as Fractions."""
    nums, scale = m.cleared
    if type(scale) is int:
        sign, last = _bareiss([nums[8 * i:8 * i + 8] for i in range(8)], 8, True)
        return Fraction(sign * last, scale ** 8)
    rows = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in m.rows]
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


@dataclass(frozen=True)
class SOReport:
    """Outcome of the special-orthogonality check for one matrix."""

    orthogonality_residual: Scalar
    determinant: Scalar
    passed: bool


_PRIME = 2**30 - 35  # below 2**30: every residue mod it is one CPython digit


def _orthogonal_determinant(m: Matrix8) -> Fraction:
    """det M of an M = N/s over an int scale s with M^T M = I exactly, as the
    Fraction 1 or -1: det N = +-s^8, and the sign is the one whose residue
    det N has mod ``_PRIME``, from forward ``_bareiss`` on N's residues.
    Takes ``determinant`` when _PRIME divides s, as +-s^8 are then both 0."""
    nums, scale = m.cleared
    if not scale % _PRIME:
        return determinant(m)
    sign, last = _bareiss([[x % _PRIME for x in nums[i:i + 8]] for i in range(0, 64, 8)], 8, True)
    return Fraction(1 if sign * last % _PRIME == pow(scale, 8, _PRIME) else -1)


def so_check(m: Matrix8, backend: Backend = EXACT) -> SOReport:
    """The residual ``max_abs_diff(M^T M, I)``, the determinant, and the verdict;
    the determinant is ``_orthogonal_determinant`` once the residual is 0 on
    an int scale."""
    residual = max_abs_diff(compose(m.transpose(), m), Matrix8.identity())
    orthogonal = type(m.cleared[1]) is int and residual == 0
    det = (_orthogonal_determinant if orthogonal else determinant)(m)
    ok = backend.eq(residual, 0) and backend.eq(det, 1)
    return SOReport(residual, det, ok)


def plane_rotation(p: OrientedPlane, t, backend: Backend = EXACT) -> Matrix8:
    """Rotation of the plane [u, v] by the angle t, fixing its complement.

    With N the common squared norm of u and v, the matrix is
    I + ((c-1)/N)(u u^T + v v^T) + (s/N)(v u^T - u v^T); it sends
    u -> c*u + s*v and v -> -s*u + c*v and is special orthogonal.  The
    entries are computed on the cleared numerators of the two coefficients
    and of u and v, brought ``over_one_scale``, and ``scaled`` over the
    product of the scales (the identity adds the scale to the diagonal
    numerators).
    """
    n = check_plane(p, backend)
    (a, b), sab = cleared([(t.c - 1) / n, t.s / n])
    (u, v), suv = over_one_scale([p.u.cleared, p.v.cleared])
    scale = sab * suv * suv
    nums = []
    for i in range(8):
        for j in range(8):
            num = a * (u[i] * u[j] + v[i] * v[j]) + b * (v[i] * u[j] - u[i] * v[j])
            nums.append(num + scale if i == j else num)
    return Matrix8.scaled(nums, scale)


def rotate_plane_basis(p: OrientedPlane, s) -> OrientedPlane:
    """Same plane and orientation, spanning pair rotated inside the plane."""
    u2 = p.u.scale(s.c) + p.v.scale(s.s)
    v2 = p.v.scale(s.c) - p.u.scale(s.s)
    return OrientedPlane(u2, v2)


def solve_linear(a_rows: Sequence[Sequence[Scalar]], b_rows: Sequence[Sequence[Scalar]]):
    """Solve A X = B for rational A and B (Fractions or Python ints).

    Fraction-free Gauss-Jordan elimination (``_bareiss`` on every other row)
    on the rows of [A | B] cleared to ints.  A ends as the last pivot times I,
    so X is B's block over it, returned as (int rows, pivot); the pivot may be
    negative.  Raises ZeroDivisionError when A is singular.
    """
    n = len(a_rows)
    m = [cleared(list(a) + list(b))[0] for a, b in zip(a_rows, b_rows)]
    prev = _bareiss(m, n, False)[1]
    if not prev:
        raise ZeroDivisionError("singular linear system")
    return [row[n:] for row in m], prev


def cayley_columns(a: Matrix8, cols: Sequence[int]) -> Tuple[Vector8, ...]:
    """Columns ``cols`` of the Cayley transform of an antisymmetric rational A,
    from one solve of (I + A) X = (I - A) with only those right-hand sides.

    (I - A) and (I + A)^-1 commute, so X is the transform in either factor
    order.  With A = N/d on its cleared rows, (d*I + N) X = (d*I - N) is
    solved on ints on the block where N has nonzero rows; outside it the rows
    are the identity's.  A column j outside the block solves to zero on it,
    as its right-hand side -N[i][j] = N[j][i] is zero there.  Each column is
    ``Octonion.scaled`` over the solve's pivot, det(d*I + N) > 0 on the block.
    """
    nums, d = a.cleared
    n = [nums[8 * i:8 * i + 8] for i in range(8)]
    if any(n[i][j] != -n[j][i] for i in range(8) for j in range(8)):
        raise ValueError("matrix must be antisymmetric")
    block = [i for i in range(8) if any(n[i])]
    rows, pivot = solve_linear(
        [[d * (i == j) + n[i][j] for j in block] for i in block],
        [[d * (i == j) - n[i][j] for j in cols] for i in block],
    )
    solved = dict(zip(block, rows))
    return tuple(Octonion.scaled([solved[i][k] if i in solved else pivot * (i == j)
                                  for i in range(8)], pivot) for k, j in enumerate(cols))


def cayley_orthogonal(a: Matrix8) -> Matrix8:
    """Cayley transform (I - A)(I + A)^-1 of an antisymmetric rational A.

    The result is an exact rational special-orthogonal matrix; I + A is
    always invertible for real antisymmetric A.
    """
    cols, scale = over_one_scale([c.cleared for c in cayley_columns(a, range(8))])
    return Matrix8.scaled([x for row in zip(*cols) for x in row], scale)


SUBSPACE_COORDS = {"R7": (1, 2, 3, 4, 5, 6, 7), "R5": (1, 2, 3, 4, 5)}


def random_antisymmetric(rng: random.Random, support: Sequence[int]) -> Matrix8:
    """Random antisymmetric rational matrix, entries p/q with p in [-5, 5],
    q in [1, 4], supported on the given coordinate block; built as the ints
    12p/q (q divides 12) ``scaled`` over 12."""
    nums = [0] * 64
    for ai, i in enumerate(support):
        for j in support[ai + 1:]:
            x = rng.randint(-5, 5) * 12 // rng.randint(1, 4)
            nums[8 * i + j], nums[8 * j + i] = x, -x
    return Matrix8.scaled(nums, 12)


def random_orthonormal_pair(seed: int, restrict_to: str = "R7", index=0) -> OrientedPlane:
    """Exact random orthonormal pair [x, y] spanning an oriented plane.

    The pair is the first two support columns of the Cayley transform of a
    random antisymmetric matrix supported on the chosen subspace (imaginary
    coordinates 1-7 for "R7", 1-5 for "R5"), so x and y are exactly unit,
    exactly orthogonal, and purely imaginary.  Distinct (seed, index) pairs
    give independent streams.
    """
    support = SUBSPACE_COORDS[restrict_to]
    rng = derived_rng(seed, "pair", restrict_to, index)
    x, y = cayley_columns(random_antisymmetric(rng, support), support[:2])
    return OrientedPlane(x, y)


def project_out(a: Vector8, span: Sequence[Vector8]) -> Vector8:
    """Gram-Schmidt step: a minus its projection onto each nonzero b of
    ``span`` in turn, which leaves a orthogonal to an orthogonal span.  On int
    scales, a = A/s_a and b = B/s_b, a step is the fraction-free ``scaled``
    (A(B.B) - B(A.B)) / (s_a(B.B)), or a itself when <a, b> = 0; float or
    mixed operands keep the formula on the values."""
    for b in span:
        (an, sa), (bn, sb) = a.cleared, b.cleared
        if type(sa) is not int or type(sb) is not int:
            a = a - b.scale(inner(a, b) / norm_sq(b))
        elif ab := sum(map(operator.mul, an, bn)):
            bb = sum(map(operator.mul, bn, bn))
            a = Octonion.scaled([x * bb - y * ab for x, y in zip(an, bn)], sa * bb)
    return a


def choose_w(p: OrientedPlane, backend: Backend = EXACT) -> Vector8:
    """Deterministic vector orthogonal to span{e0, x, y, xy}: the
    ``complement_vector`` of the plane [x, y] and its product.  Raises
    PlaneError first, as ``check_plane`` does, on an inadmissible plane."""
    check_plane(p, backend)
    x, y = p.u, p.v
    return complement_vector(x, y, mul(x, y), backend)


def complement_vector(x: Vector8, y: Vector8, xy: Vector8, backend: Backend = EXACT) -> Vector8:
    """Gram-Schmidt on e1..e7 in order against {e0, x, y, xy}, for a product
    xy already at hand; returns the first residual nonzero for ``backend.eq``,
    unnormalized (the complement has dimension four: one of the seven survives).
    """
    span = [Octonion.basis(0), x, y, xy]
    for i in range(1, 8):
        w = project_out(Octonion.basis(i), span)
        if not backend.eq(inner_cleared(w, w)[0], 0):
            return w
    raise PlaneError("no vector orthogonal to span{e0, x, y, xy} found")


def serialize_matrix(m: Matrix8, backend: Backend = EXACT) -> list:
    """Row-major 8x8 array of scalar strings."""
    return [[backend.format(x) for x in row] for row in m.rows]


def parse_matrix(rows, backend: Backend = EXACT) -> Matrix8:
    return Matrix8.from_rows(
        tuple(tuple(backend.parse(x) for x in row) for row in rows)
    )
