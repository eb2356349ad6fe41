"""Octonion algebra over the basis e0..e7.

e0 is the two-sided identity and ei**2 = -e0 for i >= 1.  Products of
distinct imaginary units are fixed by seven oriented triples: (a, b, c)
means ea*eb = ec, eb*ec = ea, ec*ea = eb, and swapping two factors flips
the sign.  Every unordered pair of imaginary indices lies on exactly one
triple, so the table below determines the full bilinear product.

The orientations were pinned down operationally: they are the unique
assignment, given e1*e2 = e3 and the products e4*e1 = -e5, e4*e2 = e6,
e4*e3 = -e7, under which the algebra is alternative and norm-multiplicative
(the identity suites in :mod:`octospin.suites` re-check this on every run).

``mul_numerators`` is the one Fano product, generated from the tables, on
coordinates or on the cleared numerators of :mod:`octospin.scalar`.  The basis
octonions hold Python ints, which mix exactly with Fractions and floats alike.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .scalar import Backend, Cleared, EXACT, Scalar, cleared_eq, quotient, random_rational

FANO_CYCLES: Tuple[Tuple[int, int, int], ...] = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 6, 7),
    (3, 5, 6),
    (3, 4, 7),
    (6, 4, 2),
    (7, 2, 5),
)


def _build_tables():
    sign = [[0] * 8 for _ in range(8)]
    index = [[0] * 8 for _ in range(8)]
    for i in range(8):
        sign[0][i] = sign[i][0] = 1
        index[0][i] = index[i][0] = i
    for i in range(1, 8):
        sign[i][i] = -1
        index[i][i] = 0
    for line in FANO_CYCLES:
        for a, b, c in (line, line[1:] + line[:1], line[2:] + line[:2]):
            sign[a][b], index[a][b] = 1, c
            sign[b][a], index[b][a] = -1, c
    return tuple(map(tuple, sign)), tuple(map(tuple, index))


#: FANO_SIGN[i][j], FANO_INDEX[i][j] encode ei*ej = FANO_SIGN * e_FANO_INDEX
#: for imaginary i != j; rows/columns 0 encode the identity element.
FANO_SIGN, FANO_INDEX = _build_tables()
#: (sign table, index table, the product ``mul_numerators`` generated from them).
_generated = (None, None, None)


@dataclass(frozen=True)
class Octonion(Cleared):
    """An octonion (equivalently, a vector of R^8) as 8 scalar coordinates.

    A ``scalar.Cleared``: its cleared form is the 8 coordinates' numerators,
    and one from ``scaled`` builds ``coords`` on first read.
    """

    coords: Tuple[Scalar, ...]

    _field = "coords"
    _shape = staticmethod(tuple)

    def __post_init__(self):
        if len(self.coords) != 8:
            raise ValueError("octonion needs exactly 8 coordinates")

    @staticmethod
    def basis(i: int) -> "Octonion":
        coords = [0] * 8
        coords[i] = 1
        return Octonion(tuple(coords))

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, k: Scalar) -> "Octonion":
        return Octonion(tuple(k * a for a in self.coords))


#: Vectors of R^8 are octonion coordinate vectors; Im O (= R^7) is the
#: subspace with coordinate 0 equal to zero.
Vector8 = Octonion


def mul_numerators(an, bn) -> list:
    """The eight coordinates of a*b for coordinate (or cleared numerator)
    lists an and bn, not divided by any scale, by straight-line code generated
    from the tables (again when either is rebound): coordinate k is the int 0
    and then each signed ai*bj with FANO_INDEX[i][j] == k, in the order of i
    and j, so a float sum never ends at -0.0.  Zero terms are summed too, so 0
    times inf gives NaN; the CLI rejects non-finite input."""
    global _generated
    if _generated[0] is not FANO_SIGN or _generated[1] is not FANO_INDEX:
        terms = [(FANO_INDEX[i][j], f"{'+' if FANO_SIGN[i][j] > 0 else '-'} a{i} * b{j}")
                 for i in range(8) for j in range(8)]
        sums = ", ".join(" ".join(["0"] + [t for k, t in terms if k == out]) for out in range(8))
        a, b = (", ".join(f"{x}{i}" for i in range(8)) for x in "ab")
        exec(f"def product(an, bn):\n {a} = an\n {b} = bn\n return [{sums}]", namespace := {})
        _generated = (FANO_SIGN, FANO_INDEX, namespace["product"])
    return _generated[2](an, bn)


def mul(a: Octonion, b: Octonion) -> Octonion:
    """Octonion product, the bilinear extension of the basis table.

    Multiplies the cleared numerators of a and b; the result is ``scaled``
    over the product of the two scales.
    """
    (an, sa), (bn, sb) = a.cleared, b.cleared
    return Octonion.scaled(mul_numerators(an, bn), sa * sb)


def conj_numerators(an) -> list:
    """Negate the imaginary part of a coordinate (or numerator) list."""
    return [an[0]] + [-c for c in an[1:]]


def conj(a: Octonion) -> Octonion:
    """Conjugation: negate the imaginary part."""
    return Octonion(tuple(conj_numerators(a.coords)))


def inner_cleared(a: Octonion, b: Octonion):
    """The dot product <a, b> as (numerator sum, sa * sb), not divided."""
    (an, sa), (bn, sb) = a.cleared, b.cleared
    return sum(map(operator.mul, an, bn)), sa * sb


def inner(a: Octonion, b: Octonion) -> Scalar:
    """Euclidean dot product of the coordinate vectors, on cleared numerators."""
    return quotient(*inner_cleared(a, b))


def norm_sq(a: Octonion) -> Scalar:
    return inner(a, a)


def right_divide(a: Octonion, u: Octonion, backend: Backend = EXACT) -> Octonion:
    """The unique b with b*u = a, namely a*conj(u) / |u|^2.

    With |u|^2 cleared to nn/ns, raises ZeroDivisionError when
    ``backend.eq(nn, 0)``; otherwise the quotient is the product of the
    numerators times ns, ``scaled`` over sa * sc * nn.
    """
    (an, sa), (un, su) = a.cleared, u.cleared
    nn, ns = inner_cleared(u, u)
    if backend.eq(nn, 0):
        raise ZeroDivisionError("division by the zero octonion")
    cn, sc = conj(u).cleared
    return Octonion.scaled([c * ns for c in mul_numerators(an, cn)], sa * sc * nn)


def oct_eq(a: Octonion, b: Octonion, backend: Backend = EXACT) -> bool:
    """Coordinatewise equality for the backend, on the cleared numerators."""
    return cleared_eq(*a.cleared, *b.cleared, backend)


def random_octonion(rng: random.Random, imaginary: bool = False) -> Octonion:
    """Random rational octonion with coordinates p/q, p in [-20, 20], q in [1, 10]."""
    coords = [random_rational(rng) for _ in range(8)]
    if imaginary:
        coords[0] = Fraction(0)
    return Octonion(tuple(coords))


def serialize(a: Octonion, backend: Backend = EXACT) -> list:
    """Coordinate list of scalar strings, order e0..e7."""
    return [backend.format(c) for c in a.coords]


def parse_octonion(values, backend: Backend = EXACT) -> Octonion:
    return Octonion(tuple(backend.parse(v) for v in values))
