"""Arithmetic backends and exact points on the unit circle.

Every quantity in this package is a scalar from one of two backends: exact
arbitrary-precision rationals (``fractions.Fraction``), where equality is
decidable and tested with ``==``, or 64-bit floats, where equality means
agreement within a hybrid relative/absolute tolerance below 1.  ``eq`` is the
one comparison and ``eq(x, 0)`` the zero test; all algebra is generic over
the scalar type and stays inside whichever backend its inputs came from.

The cleared form of a list of scalars is ``cleared``: Python-int numerators
over one positive int scale for rationals and ints, and the values themselves
over 1.0 once a float is among them.  Octonions and matrices keep it per
object, as the ``Cleared`` base class's ``cleared``: the flat 8 coordinates,
or the 64 matrix entries row-major.  Kernel results (``mul``, ``compose``,
``apply``, ``plane_rotation`` and others) are ``Cleared.scaled``: an int scale
is reduced by one gcd and kept, the values built as ``Fraction``s on first
read (``FloatBackend.convert`` divides the numerators instead); a float scale
is divided out at once, which leaves every float bit unchanged.
``over_one_scale`` brings several cleared operands to one scale (the lcm of
int scales; the values over 1.0 once a float scale is among them): the two
vectors of a plane rotation, the four plane terms of the complex structure
J, and each side of the relation g(a) g~(b) = g~(a*b).  Equality
(``cleared_eq``) and the residual ``max_abs_diff`` compare x*sb with y*sa
on the numerators, the Bareiss ``determinant`` and the residue sign of an
orthogonal one build a Fraction only for the result, and ``solve_linear``
returns int rows over its last pivot.

Rotation angles are never stored as radians.  A rotation parameter is a
point (c, s) on the unit circle, so identities involving cos and sin reduce
to field arithmetic and can be checked exactly on the rational backend.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

Scalar = Union[int, Fraction, float]


class ExactBackend:
    """Arbitrary-precision rationals; equality is exact."""

    def convert(self, x):
        """An exact value on this backend: the value itself."""
        return x

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return a == b

    def format(self, a: Scalar) -> str:
        q = Fraction(a)
        return f"{q.numerator}/{q.denominator}"

    def parse(self, text: str) -> Fraction:
        text = text.strip()
        return _fraction(text, f"number {text}")


@dataclass(frozen=True)
class FloatBackend:
    """64-bit floats compared with |a-b| <= eps * max(1, |a|, |b|), 0 < eps < 1.

    So ``eq(x, 0)`` is |x| <= eps, the zero test.  A cleared pair's zero test
    reads the numerator: the value, on converted input (scale 1.0); an exact
    test for a Fraction over another scale, which only an API caller passes.
    """

    epsilon: float = 1e-9

    def __post_init__(self):
        epsilon = float(self.epsilon)
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be above 0 and below 1, got {epsilon!r}")
        object.__setattr__(self, "epsilon", epsilon)

    def convert(self, x):
        """An exact octonion, matrix, plane or circle point in floats; Fractions,
        ints, tuples and dicts come back unchanged.

        A ``Cleared`` value converts as n / scale on its cleared numerators,
        built or not: int division rounds correctly, so each entry is
        ``float(Fraction(n, scale))`` without the Fraction.
        """
        if isinstance(x, Cleared):
            nums, scale = x.cleared
            return type(x)(x._shape([n / scale for n in nums]))
        if isinstance(x, CirclePoint):
            return x.map_scalars(float)
        if isinstance(x, (Fraction, int, tuple, dict)):
            return x
        return type(x)(self.convert(x.u), self.convert(x.v))  # an OrientedPlane

    def eq(self, a: Scalar, b: Scalar) -> bool:
        """Within the tolerance; never when |a - b| is infinite or NaN, as an
        infinite operand would make the tolerance infinite too."""
        d = abs(a - b)
        return d < math.inf and d <= self.epsilon * max(1.0, abs(a), abs(b))

    def format(self, a: Scalar) -> str:
        return format(float(a), ".17g")

    def parse(self, text: str) -> float:
        text = text.strip()
        if "/" in text:
            return float(_fraction(text, f"number {text}"))
        return float(text)


Backend = Union[ExactBackend, FloatBackend]

EXACT = ExactBackend()


def _fraction(text: str, name: str) -> Fraction:
    """``Fraction(text)``; a zero denominator raises a ValueError naming ``name``."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{name} has a zero denominator") from None


def cleared(values):
    """(numerators, scale) with ``values[i] == numerators[i] / scale``.

    Rationals and ints: Python-int numerators over the lcm of the
    denominators, with that lcm as a plain int scale, so a sum of numerator
    products over a product of scales goes to ``quotient`` as two ints.  Any
    float among the values (float vectors may also hold int basis entries and
    int zeros): the values themselves and scale 1.0, so the float operations
    are unchanged and the final division by 1.0 is exact.  The rationals of a
    float computation are integer-valued basis entries, so an all-rational
    operand there has scale 1 and numerators equal to its values.
    """
    if type(values[0]) is float or float in map(type, values):
        return values, 1.0
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def quotient(n, scale):
    """n / scale as the reduced ``Fraction(n, scale)`` on an int scale, else ``n / scale``."""
    return Fraction(n, scale) if type(scale) is int else n / scale


def over_one_scale(pairs):
    """The cleared (numerators, scale) pairs brought to one scale: (numerator
    lists, common scale).

    On int scales each pair's numerators are multiplied by lcm // scale and
    the scale is the lcm.  Once any scale is a float, each pair's values
    come back over 1.0: the numerators themselves on scale 1 (floats and
    integer-valued rationals), the ``quotient``s otherwise, so a rational
    operand beside floats keeps its value.
    """
    if any(type(s) is not int for _, s in pairs):
        return [nums if s == 1 else [quotient(x, s) for x in nums] for nums, s in pairs], 1.0
    common = math.lcm(*[s for _, s in pairs])
    return [[x * (common // s) for x in nums] for nums, s in pairs], common


def cleared_eq(xs, sa, ys, sb, backend) -> bool:
    """Whether xs[i] / sa equals ys[i] / sb for every i, for the backend.

    With both scales 1 the numerators are the values (floats have scale 1.0
    and keep their own values; rationals over 1 are their integers), so they
    are compared as they are.  Int scales on the exact backend are compared
    crosswise, xs[i] * sb against ys[i] * sa, on ints.  Any other pair, such
    as rationals over another scale on the float backend, whose tolerance is
    not scale-invariant, is compared as values.
    """
    if sa == sb == 1:
        return all(map(backend.eq, xs, ys))
    if isinstance(backend, ExactBackend) and type(sa) is type(sb) is int:
        return all(x * sb == y * sa for x, y in zip(xs, ys))
    return all(backend.eq(quotient(x, sa), quotient(y, sb)) for x, y in zip(xs, ys))


class Cleared:
    """Scalars kept as one flat list of entries, with their cleared form.

    A subclass is a frozen dataclass whose one field, named by ``_field``,
    holds the values, and its ``_shape`` turns a flat list of entries into
    that field's value; ``_flat`` reads the field back as a flat list.  An
    object from ``scaled`` holds only its cleared form until the field is
    first read; equality, hashing and repr read the field, so they see the
    same values as for an object built from them.
    """

    _field: str

    def _flat(self):
        """The entries as one flat list (the field itself when it is flat)."""
        return getattr(self, self._field)

    @classmethod
    def scaled(cls, nums, scale):
        """The object with entries nums[i] / scale, for a kernel result.

        On an int scale the pair is divided by ``gcd(scale, *nums)``, which
        makes it ``cleared`` of the reduced Fractions, and kept as
        ``cleared``; the entries are built on first read.  A float scale is
        divided out at once, as ``quotient`` would.
        """
        if type(scale) is not int:
            return cls(cls._shape([x / scale for x in nums]))
        g = math.gcd(scale, *nums)
        if g != 1:
            nums, scale = [x // g for x in nums], scale // g
        obj = object.__new__(cls)
        obj.__dict__["cleared"] = (nums, scale)
        return obj

    def __getattr__(self, name):
        """Build the field of a ``scaled`` object, whose scale is an int, on first read."""
        if name != self._field or "cleared" not in self.__dict__:
            raise AttributeError(name)
        nums, scale = self.__dict__["cleared"]
        value = self.__dict__[name] = self._shape([Fraction(x, scale) for x in nums])
        return value

    @cached_property
    def cleared(self):
        """``cleared`` of the flat entries; not a field, so equality, hashing
        and repr see only the values."""
        return cleared(self._flat())

    def map_scalars(self, fn):
        return type(self)(self._shape([fn(x) for x in self._flat()]))

    def __neg__(self):
        return type(self)(self._shape([-x for x in self._flat()]))


def make_backend(name: str, epsilon: float = 1e-9) -> Backend:
    """Build a backend from its config name ("exact" or "float")."""
    if name == "exact":
        return EXACT
    if name == "float":
        return FloatBackend(epsilon)
    raise ValueError(f"unknown backend {name!r}")


@dataclass(frozen=True)
class CirclePoint:
    """A point (c, s) on the unit circle, standing in for the angle t.

    c plays the role of cos t and s of sin t; c**2 + s**2 == 1 (exactly on
    the rational backend, within tolerance on floats).
    """

    c: Scalar
    s: Scalar

    def inverse(self) -> "CirclePoint":
        """The point of the opposite angle, (c, -s)."""
        return CirclePoint(self.c, -self.s)

    def map_scalars(self, fn) -> "CirclePoint":
        return CirclePoint(fn(self.c), fn(self.s))


CIRCLE_QUARTER = CirclePoint(Fraction(0), Fraction(1))
CIRCLE_HALF = CirclePoint(Fraction(-1), Fraction(0))


def circle_from_parameter(u: Fraction) -> CirclePoint:
    """Rational point ((1-u^2)/(1+u^2), 2u/(1+u^2)) on the unit circle.

    The stereographic parameter u keeps angle arithmetic exact: any
    rational u lands exactly on the circle.
    """
    u = Fraction(u)
    den = 1 + u * u
    return CirclePoint((1 - u * u) / den, 2 * u / den)


def double_angle(p: CirclePoint) -> CirclePoint:
    """(c, s) -> (c^2 - s^2, 2cs), the angle-doubling self-map."""
    return CirclePoint(p.c * p.c - p.s * p.s, 2 * p.c * p.s)


def angle_sum(p: CirclePoint, q: CirclePoint) -> CirclePoint:
    """Group law on the circle: add the two angles."""
    return CirclePoint(p.c * q.c - p.s * q.s, p.s * q.c + p.c * q.s)


def on_circle(p: CirclePoint, backend: Backend = EXACT) -> bool:
    return backend.eq(p.c * p.c + p.s * p.s, 1)


def parse_circle_point(text: str, backend: Backend = EXACT) -> CirclePoint:
    """Parse "c,s" or a stereographic parameter "u=p/q" into a CirclePoint."""
    text = text.strip()
    if text.startswith("u="):
        u = _fraction(text[2:], f"angle parameter {text}")
        return backend.convert(circle_from_parameter(u))
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'c,s' or 'u=p/q', got {text!r}")
    p = CirclePoint(backend.parse(parts[0]), backend.parse(parts[1]))
    if not on_circle(p, backend):
        raise ValueError(f"point {text!r} is not on the unit circle")
    return p


def random_rational(rng: random.Random, max_num: int = 20, max_den: int = 10) -> Fraction:
    """Random p/q with p in [-max_num, max_num], q in [1, max_den]."""
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def derived_rng(seed: int, *path) -> random.Random:
    """Independent deterministic stream for (seed, path).

    String seeding hashes via SHA-512 inside ``random.Random``, so streams
    are stable across processes and platforms.
    """
    return random.Random(f"{seed}|" + "|".join(str(p) for p in path))
