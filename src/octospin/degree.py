"""Winding degrees of circle self-maps and the degree bookkeeping ledger.

The top-homology effect of the rotation-product map is not computable at
desk scale; what is computable is (a) the winding degree of the circle
maps feeding the construction and (b) the pointwise commutation of the
square relating the Spin(7)-valued map, the double-cover projection, and
the plain SO(7) rotation product at doubled angles.  The circle maps are
polynomial in (c, s), so their degrees are counted exactly whatever the
backend of the run: signed branch-cut crossings of the image of a fixed set
of int circle samples, with no tolerance.  The ledger combines the computed
numbers with two multipliers imported from the literature, keeping
"computed" and "cited" provenance explicit per field, and reports the
resulting magnitude with the overall sign left undetermined.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Tuple

from .geometry import mat_eq, max_abs_diff, random_orthonormal_pair
from .scalar import (
    Backend,
    CirclePoint,
    EXACT,
    Scalar,
    circle_from_parameter,
    cleared,
    derived_rng,
    double_angle,
    random_rational,
)
from .spinmaps import f7xf5, h70, project_double_cover


class AmbiguousArcError(ValueError):
    """Two consecutive image points are antipodal; increase the samples."""


class LedgerError(ValueError):
    """The degree ledger received inconsistent or failing inputs."""


COVER_MULTIPLIER_CITATION = (
    "Pittie, 'The integral homology and cohomology rings of SO(n) and "
    "Spin(n)', 7.4: the double covering multiplies top integral homology "
    "by 2"
)
H_MULTIPLIER_CITATION = (
    "prior degree computation (Theorem 4.7 of the earlier rotation-map "
    "construction): products of two plane rotations into SO(7) act on "
    "H_18 by multiplication by +/-4"
)


@functools.lru_cache(maxsize=8)
def circle_samples(n: int) -> Tuple[CirclePoint, ...]:
    """n int points on S^1, scaled, walking once counterclockwise.

    The points are stereographic-parameter approximations of equally spaced
    angles in (-pi, pi); consecutive gaps are about 2*pi/n, and the single
    wrap-around step crosses the branch cut at angle pi exactly once.  Each
    exact point (c, s) is kept as its ``cleared`` numerators d*(c, s) over one
    positive denominator d.
    """
    if n < 8:
        raise ValueError("need at least 8 samples")
    thetas = (-math.pi + 2.0 * math.pi * (k + 0.5) / n for k in range(n))
    params = [Fraction(math.tan(theta / 2.0)).limit_denominator(10 ** 6) for theta in thetas]
    if any(a >= b for a, b in zip(params, params[1:])):
        raise ValueError("sample parameters failed to be strictly increasing")
    points = map(circle_from_parameter, params)
    return tuple(CirclePoint(*cleared([p.c, p.s])[0]) for p in points)


def _is_upper(p: CirclePoint) -> bool:
    # Branch-cut convention: the point (-1, 0) belongs to the upper side.
    return p.s > 0 or (p.s == 0 and p.c < 0)


def _cut_crossing(p: CirclePoint, q: CirclePoint) -> int:
    """Signed crossing of the negative real axis by the shorter arc p -> q.

    The shorter arc crosses the cut iff the chord does.  The chord meets
    s = 0 at x with x * (p.s - q.s) = p.s * q.c - p.c * q.s, so the sign of
    x is read without a division.  Only signs are read, so p and q may be
    points of the circle scaled by any positive factors.  Antipodes, where
    the arc is ambiguous, raise first: at any scales they are opposite points
    of one line through the origin.  After that p.s != q.s whenever p and q
    lie on opposite sides.
    """
    cross = p.s * q.c - p.c * q.s
    if cross == 0 and p.c * q.c + p.s * q.s < 0:
        raise AmbiguousArcError("consecutive image points are antipodal")
    up_p = _is_upper(p)
    if up_p == _is_upper(q) or cross * (p.s - q.s) >= 0:
        return 0
    return 1 if up_p else -1


def winding_degree(f: Callable[[CirclePoint], CirclePoint], samples: int = 256) -> int:
    """Net number of turns of the circle self-map f.

    f is applied to the int points of ``circle_samples(samples)``; the degree
    is the signed count of branch-cut crossings of the image loop.  Those
    points are positive multiples of points of the circle, so f must be
    homogeneous: f(l*p) a positive multiple of f(p) for every l > 0, as
    polynomial maps of one degree in (c, s) are.  Such a map has int images,
    and the count is exact.  The caller must supply enough samples that
    consecutive image points subtend less than pi; antipodes raise
    AmbiguousArcError.
    """
    imgs = [f(p) for p in circle_samples(samples)]
    return sum(_cut_crossing(imgs[k], imgs[(k + 1) % samples]) for k in range(samples))


@dataclass(frozen=True)
class SquareReport:
    """Pointwise check of the commuting square over random instances."""

    trials: int
    failures: Tuple[int, ...]
    max_residual: Scalar

    @property
    def passed(self) -> bool:
        return len(self.failures) == 0

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": list(self.failures),
            "max_residual": float(self.max_residual),
            "passed": self.passed,
        }


def verify_square(seed: int, trials: int, backend: Backend = EXACT) -> SquareReport:
    """Check cover(f7 * f5) = h70 at doubled angles on random instances.

    Each trial draws a random plane pair and two random circle points and
    compares the two composite matrices entry-wise.
    """
    failures = []
    max_residual = 0
    for trial in range(trials):
        p7 = random_orthonormal_pair(seed, "R7", ("square", trial))
        p5 = random_orthonormal_pair(seed, "R5", ("square", trial))
        rng = derived_rng(seed, "square-angles", trial)
        t = circle_from_parameter(random_rational(rng, 8, 5))
        t2 = circle_from_parameter(random_rational(rng, 8, 5))
        p7, p5, t, t2 = map(backend.convert, (p7, p5, t, t2))
        lhs = project_double_cover(f7xf5(p7, t, p5, t2, backend))
        rhs = h70(p7, double_angle(t), p5, double_angle(t2), backend)
        if not mat_eq(lhs, rhs, backend):
            failures.append(trial)
        residual = max_abs_diff(lhs, rhs)
        if residual > max_residual:
            max_residual = residual
    return SquareReport(trials, tuple(failures), max_residual)


@dataclass(frozen=True)
class DegreeReport:
    """The degree bookkeeping behind the factor-of-eight conclusion.

    ``p_degree`` is computed (product of the two circle-map winding
    degrees); the cover multiplier 2 and the magnitude 4 of the rotation
    product's effect are cited constants of the class.  The square identity
    conclusion * cover = h_multiplier * p_degree then fixes the magnitude
    of the composite's effect; the overall sign is not determined.
    """

    p_degree: int
    conclusion_magnitude: int
    cover_multiplier: ClassVar[int] = 2
    h_multiplier_magnitude: ClassVar[int] = 4
    sign_determined: ClassVar[bool] = False

    def to_dict(self) -> dict:
        return {
            "p_degree": {"value": self.p_degree, "provenance": "computed"},
            "cover_multiplier": {
                "value": self.cover_multiplier,
                "provenance": "cited",
                "citation": COVER_MULTIPLIER_CITATION,
            },
            "h_multiplier_magnitude": {
                "value": self.h_multiplier_magnitude,
                "provenance": "cited",
                "citation": H_MULTIPLIER_CITATION,
            },
            "conclusion_magnitude": {
                "value": self.conclusion_magnitude,
                "provenance": "computed",
            },
            "sign_determined": self.sign_determined,
        }


def degree_ledger(square: SquareReport, p_deg_t: int, p_deg_t2: int) -> DegreeReport:
    """Combine the verified square with the computed and cited degrees.

    Solves conclusion * cover = h_multiplier * |p_degree| with the cited
    constants of DegreeReport; p_degree keeps its sign, the magnitude does
    not.  Raises LedgerError when the square failed.
    """
    if not square.passed:
        raise LedgerError("the commuting-square check failed; no ledger")
    p_degree = p_deg_t * p_deg_t2
    magnitude = DegreeReport.h_multiplier_magnitude * abs(p_degree)
    return DegreeReport(p_degree, magnitude // DegreeReport.cover_multiplier)
