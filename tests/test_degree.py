import math
from fractions import Fraction as F

import pytest

from octospin.degree import (
    AmbiguousArcError,
    DegreeReport,
    LedgerError,
    SquareReport,
    _cut_crossing,
    circle_samples,
    degree_ledger,
    verify_square,
    winding_degree,
)
from octospin.geometry import OrientedPlane, mat_eq, plane_rotation
from octospin.octonion import Octonion
from octospin.scalar import (
    CIRCLE_HALF,
    CIRCLE_QUARTER,
    CirclePoint,
    double_angle,
    on_circle,
)
from octospin.spinmaps import f7xf5, h70, project_double_cover

E = [Octonion.basis(i) for i in range(8)]
ONE = CirclePoint(F(1), F(0))


def _normalized(p):
    """The point of the circle that the int sample p is a positive multiple of."""
    d = math.isqrt(p.c * p.c + p.s * p.s)
    assert d > 0 and d * d == p.c * p.c + p.s * p.s
    return CirclePoint(F(p.c, d), F(p.s, d))


def test_circle_samples_exact_and_ordered():
    pts = circle_samples(64)
    assert len(pts) == 64
    for k, p in enumerate(pts):
        # Int points over one positive denominator d: C^2 + S^2 = d^2.
        assert type(p.c) is int and type(p.s) is int
        exact = _normalized(p)
        assert on_circle(exact)
        theta = -math.pi + 2.0 * math.pi * (k + 0.5) / 64
        assert abs(math.atan2(exact.s, exact.c) - theta) < 1e-5
    for p, q in zip(pts, pts[1:] + pts[:1]):
        assert p.c * q.s - p.s * q.c > 0  # each step turns counterclockwise
    with pytest.raises(ValueError):
        circle_samples(4)


def _reference_degree(f, samples):
    """The winding degree as counted before integer sample points: the map on
    the normalized Fraction samples, and the chord's crossing point divided
    out."""
    imgs = [f(_normalized(p)) for p in circle_samples(samples)]
    degree = 0
    for p, q in zip(imgs, imgs[1:] + imgs[:1]):
        if p.c == -q.c and p.s == -q.s:
            raise AmbiguousArcError("consecutive image points are antipodal")
        up_p = p.s > 0 or (p.s == 0 and p.c < 0)
        up_q = q.s > 0 or (q.s == 0 and q.c < 0)
        if up_p != up_q and (p.s * q.c - p.c * q.s) / (p.s - q.s) < 0:
            degree += 1 if up_p else -1
    return degree


def _power(k):
    """The circle map t -> 2^k t."""
    def f(p):
        for _ in range(k):
            p = double_angle(p)
        return p
    return f


@pytest.mark.parametrize("samples", [8, 256, 1024])
@pytest.mark.parametrize(
    "name, f",
    [("identity", lambda p: p), ("inverse", lambda p: p.inverse()),
     ("constant", lambda p: CirclePoint(p.c * 0 + 1, p.s * 0)),
     ("x2", _power(1)), ("x4", _power(2)), ("x8", _power(3))],
)
def test_integer_points_wind_as_fraction_samples(name, f, samples):
    # At 8 samples x4 and x8 are undersampled; both paths must agree anyway.
    assert winding_degree(f, samples) == _reference_degree(f, samples)


def test_winding_identity():
    assert winding_degree(lambda p: p, 256) == 1


def test_winding_double_angle():
    assert winding_degree(double_angle, 256) == 2


def test_winding_constant():
    one = ONE
    assert winding_degree(lambda p: one, 256) == 0


def test_winding_inverse_map():
    assert winding_degree(lambda p: p.inverse(), 256) == -1


def test_winding_composition_multiplicative():
    quad = lambda p: double_angle(double_angle(p))
    assert winding_degree(quad, 256) == 4
    oct_map = lambda p: double_angle(quad(p))
    assert winding_degree(oct_map, 256) == 8


def test_winding_sample_stability():
    assert winding_degree(double_angle, 256) == winding_degree(double_angle, 1024)
    assert winding_degree(lambda p: p, 512) == 1


def test_winding_minimum_samples():
    assert winding_degree(lambda p: p, 8) == 1


def test_winding_antipodal_error():
    lookup = {p: ONE if k % 2 == 0 else CIRCLE_HALF for k, p in enumerate(circle_samples(8))}

    with pytest.raises(AmbiguousArcError):
        winding_degree(lambda p: lookup[p], 8)


def test_exact_antipodes_of_different_scales_raise():
    # (3, 0) then (-5, 0): opposite points of one line, at different scales.
    lookup = dict(zip(circle_samples(8), [CirclePoint(3, 0), CirclePoint(-5, 0)] * 4))

    with pytest.raises(AmbiguousArcError):
        winding_degree(lambda p: lookup[p], 8)


def test_winding_conjugation_and_a_map_crossing_both_ways():
    # (c, s) -> (c, -s) crosses the cut clockwise once.
    assert winding_degree(lambda p: CirclePoint(p.c, -p.s), 256) == -1
    # The image stays left of the origin and crosses the cut twice in each
    # direction; both maps are homogeneous, as integer points require.
    left = lambda p: CirclePoint(-(p.c * p.c + p.s * p.s), p.c * p.s)
    assert winding_degree(left, 256) == 0


def test_cut_crossing_sees_antipodes_at_different_integer_scales():
    for p, q in (((2, 0), (-3, 0)), ((0, 5), (0, -7)), ((3, 4), (-6, -8))):
        with pytest.raises(AmbiguousArcError):
            _cut_crossing(CirclePoint(*p), CirclePoint(*q))
    # the same direction at another scale is no crossing
    assert _cut_crossing(CirclePoint(2, 0), CirclePoint(3, 0)) == 0


def test_verify_square_passes():
    report = verify_square(seed=21, trials=3)
    assert report.passed
    assert report.trials == 3
    assert report.max_residual == 0
    assert report.to_dict()["passed"] is True


def test_square_single_explicit_instance():
    # both composites collapse to the half-turn rotation of [e1, e2]
    p7 = OrientedPlane(E[1], E[2])
    p5 = OrientedPlane(E[1], E[2])
    lhs = project_double_cover(f7xf5(p7, CIRCLE_QUARTER, p5, ONE))
    rhs = h70(p7, CIRCLE_HALF, p5, ONE)
    expected = plane_rotation(p7, CIRCLE_HALF)
    assert mat_eq(lhs, expected)
    assert mat_eq(rhs, expected)


def test_degree_ledger_conclusion():
    square = SquareReport(trials=100, failures=(), max_residual=F(0))
    report = degree_ledger(square, 2, 2)
    assert report.p_degree == 4
    assert report.conclusion_magnitude == 8
    assert report.cover_multiplier == 2
    assert report.h_multiplier_magnitude == 4
    assert report.sign_determined is False
    assert (
        report.conclusion_magnitude * report.cover_multiplier
        == report.h_multiplier_magnitude * report.p_degree
    )


def test_degree_ledger_degenerate_degrees():
    square = SquareReport(trials=10, failures=(), max_residual=F(0))
    assert degree_ledger(square, 1, 1).conclusion_magnitude == 2


def test_degree_ledger_magnitude_of_negative_degree():
    square = SquareReport(trials=10, failures=(), max_residual=F(0))
    report = degree_ledger(square, -1, 2)
    assert report.p_degree == -2
    assert report.conclusion_magnitude == 4


def test_degree_ledger_rejects_failed_square():
    square = SquareReport(trials=10, failures=(3,), max_residual=F(0))
    with pytest.raises(LedgerError):
        degree_ledger(square, 2, 2)


def test_degree_report_provenance():
    square = SquareReport(trials=10, failures=(), max_residual=F(0))
    payload = degree_ledger(square, 2, 2).to_dict()
    assert payload["p_degree"] == {"value": 4, "provenance": "computed"}
    assert payload["cover_multiplier"]["value"] == 2
    assert payload["cover_multiplier"]["provenance"] == "cited"
    assert payload["cover_multiplier"]["citation"]
    assert payload["h_multiplier_magnitude"]["value"] == 4
    assert payload["h_multiplier_magnitude"]["provenance"] == "cited"
    assert payload["conclusion_magnitude"]["value"] == 8
    assert payload["sign_determined"] is False
