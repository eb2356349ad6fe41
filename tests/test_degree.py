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
)
from octospin.spinmaps import f7xf5, h70, project_double_cover

E = [Octonion.basis(i) for i in range(8)]
ONE = CirclePoint(F(1), F(0))


def test_circle_samples_are_int_points_turning_counterclockwise():
    for n in (8, 64, 256):
        pts = circle_samples(n)
        assert len(pts) == n
        assert all(type(p.c) is int and type(p.s) is int for p in pts)
        for p, q in zip(pts, pts[1:] + pts[:1]):
            assert p.c * q.s - p.s * q.c > 0  # each step turns counterclockwise
        # ... and the steps add up to one turn
        assert _reference_degree(lambda p: p, n) == 1
    for n in (0, 4, 7, 12):
        with pytest.raises(ValueError):
            circle_samples(n)


def _reference_degree(f, samples):
    """The winding degree as the sum of the signed angles atan2(p x q, p . q)
    between consecutive image points, in turns; exact antipodes raise."""
    imgs = [f(p) for p in circle_samples(samples)]
    total = 0.0
    for p, q in zip(imgs, imgs[1:] + imgs[:1]):
        cross = p.c * q.s - p.s * q.c
        dot = p.c * q.c + p.s * q.s
        if cross == 0 and dot < 0:
            raise AmbiguousArcError("consecutive image points are antipodal")
        total += math.atan2(cross, dot)
    return round(total / (2 * math.pi))


def _outcome(count, f, samples):
    try:
        return count(f, samples)
    except AmbiguousArcError:
        return AmbiguousArcError


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
    # At 8 samples (45 degree steps) x4 meets exact antipodes and x8 is
    # undersampled; both counts must agree anyway.
    assert _outcome(winding_degree, f, samples) == _outcome(_reference_degree, f, samples)


def test_sixty_four_turns_wind_at_256_samples():
    # The spacing margin: steps of at most atan(1/32) alias only from about
    # degree 100 on.
    assert winding_degree(_power(6), 256) == 64 == _reference_degree(_power(6), 256)


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
