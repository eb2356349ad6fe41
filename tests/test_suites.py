"""The claim runner: pinned report bytes, error capture, value checks, defect
sensitivity and exact/float agreement."""

import hashlib
import json
import sys

import pytest

from octospin import degree, geometry, octonion, scalar, spinmaps, suites
from octospin.cli import main as cli_main
from octospin.geometry import Matrix8, OrientedPlane
from octospin.octonion import Octonion, norm_sq
from octospin.scalar import CirclePoint, FloatBackend
from octospin.suites import SUITE_NAMES, RunConfig, render_report, run_verify_suite

ALL_BUT_ROTATION = [s for s in SUITE_NAMES if s != "rotation-laws"]


@pytest.mark.parametrize(
    "backend, epsilon, seed, names, digest",
    [
        ("exact", 1e-9, 42, None,
         "195c9d3ff2bbc8d1d2ce1d5ca4a24f12660efe8fe632266b50f87f6ad7e38efc"),
        ("float", 1e-9, 11, None,
         "5857c402000c5bb24dec6ecabbf4710653733a6af264eba71d7560104e83670b"),
        # Exit 1 with 24 failures: pins the octonion, plane and angle
        # descriptions that passing reports never show.
        ("float", 1e-15, 11, ALL_BUT_ROTATION,
         "d42fcaa87256beedf19092ad5f59030745483eae46e0d03cc562f262c818589a"),
    ],
)
def test_report_bytes_are_pinned(backend, epsilon, seed, names, digest):
    config = RunConfig(backend=backend, epsilon=epsilon, seed=seed, trials=3)
    _, report = run_verify_suite(config, names)
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest


def test_suite_selection_follows_report_order_once():
    code, report = run_verify_suite(
        RunConfig(trials=1), ["triality", "octonion-identities", "triality"]
    )
    assert code == 0
    assert report["config"]["suites"] == ["octonion-identities", "triality"]
    assert list(report["results"]) == ["octonion-identities", "triality"]


def test_broken_algebra_is_a_failing_report(monkeypatch):
    # Reorient one Fano line, (7, 2, 5) -> (7, 5, 2), in the tables that the
    # octonion product and the membership decision read.
    cycles = tuple((7, 5, 2) if line == (7, 2, 5) else line for line in octonion.FANO_CYCLES)
    monkeypatch.setattr(octonion, "FANO_CYCLES", cycles)
    sign, index = octonion._build_tables()
    for module in (octonion, spinmaps):
        monkeypatch.setattr(module, "FANO_SIGN", sign)
        monkeypatch.setattr(module, "FANO_INDEX", index)

    code, report = run_verify_suite(RunConfig(trials=1))

    assert code == 1
    frame_claim = next(c for c in report["results"]["f7-well-defined"]
                       if c["claim"] == "frame.orthogonal-basis")
    assert not frame_claim["passed"]
    for name in ("f7-well-defined", "spin7-membership", "triality", "double-cover",
                 "commutative-square", "degree-ledger"):
        assert any(not claim["passed"] for claim in report["results"][name]), name


def test_check_error_is_a_failure_record_not_a_usage_error(tmp_path):
    out = tmp_path / "report.json"
    code = cli_main([
        "verify", "--suites", "rotation-laws", "--backend", "float", "--epsilon", "1e-15",
        "--seed", "11", "--trials", "3", "--out", str(out),
    ])
    assert code == 1
    failures = [f for claim in json.loads(out.read_text())["results"]["rotation-laws"]
                for f in claim["failures"]]
    assert any(isinstance(f, dict) and f.get("error", "").startswith("PlaneError: ")
               for f in failures)


@pytest.mark.parametrize("sign, passed", [(1, True), (-1, False)])
def test_spin8_compares_s_by_value(monkeypatch, sign, passed):
    spin8_map = suites.spin8_map

    def copying_spin8_map(*args):
        matrix, s = spin8_map(*args)
        return matrix, Octonion(tuple(sign * c for c in s.coords))

    monkeypatch.setattr(suites, "spin8_map", copying_spin8_map)
    claims = suites.suite_spin7_membership(FloatBackend(1e-9), 42, 2)
    claim = next(c for c in claims if c["claim"] == "spin8.product-coordinates")
    assert claim["passed"] is passed


def _identity_plus(m, k):
    """I + k (M - I)."""
    return Matrix8(tuple(
        tuple(int(i == j) + k * (x - int(i == j)) for j, x in enumerate(row))
        for i, row in enumerate(m.rows)
    ))


def _swapped(p):
    return OrientedPlane(p.v, p.u)


def _first_row_doubled(solution):
    rows, pivot = solution
    return [[2 * x for x in rows[0]]] + rows[1:], pivot


def _over_n_again(term):
    """The plane term (v u^T - u v^T) / N divided by N = |u|^2 once more."""
    def divided(p):
        nums, den = term(p)
        (n,), s = scalar.cleared([norm_sq(p.u)])
        return [x * s for x in nums], den * n
    return divided


def _with_element(frame, i, element):
    """The frame with element i replaced, unvalidated."""
    elements = frame.elements[:i] + (element,) + frame.elements[i + 1:]
    return spinmaps.FrameB(elements, frame.norm_w)


def _wx_as_xw(frame):
    # x*w = -(w*x), so the Gram matrix of the frame does not change.
    return _with_element(frame, 5, octonion.mul(frame.elements[1], frame.elements[4]))


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` in every octospin module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "octospin" or name.startswith("octospin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


_DEFECTS = {
    "double-angle-is-identity": (
        scalar.double_angle,
        lambda original: lambda p: p,
        {"cover.projects-to-doubled-rotation", "square.pointwise", "square.angle-doubling",
         "degree.double-angle", "degree.composition", "degree.ledger",
         "triality.sixty-four-pairs"},
    ),
    "plane-rotation-transposed": (
        geometry.plane_rotation,
        lambda original: lambda *args: original(*args).transpose(),
        {"f7.tail-pair-action", "triality.explicit-case"},
    ),
    "projection-negated": (
        spinmaps.project_double_cover,
        lambda original: lambda gt: -original(gt),
        {"spin7.f7-image", "cover.center", "cover.homomorphism", "square.pointwise"},
    ),
    "mul-opposite-algebra": (
        # The shared product loop, so mul, right_divide and the relation
        # loop of spinmaps all multiply in the opposite algebra.
        octonion.mul_numerators,
        lambda original: lambda an, bn: original(bn, an),
        {"octonion.e3e2-equals-minus-e1", "spin7.f7-image", "spin7.f5-image",
         "spin7.product-image", "spin7.minus-identity", "spin8.product-coordinates"},
    ),
    "conj-negates-real-part": (
        octonion.conj,
        lambda original: lambda a: -a,
        {"octonion.conjugation", "octonion.right-division"},
    ),
    "fano-line-listed-twice": (
        octonion.FANO_CYCLES,
        lambda original: tuple((1, 2, 3) if line == (7, 2, 5) else line for line in original),
        {"octonion.fano-consistency"},
    ),
    "relation-loop-finds-nothing": (
        spinmaps._relation_failures,
        lambda original: lambda *args, **kwargs: (),
        {"spin7.single-rotation-rejected"},
    ),
    "rotation-ignores-sine-sign": (
        geometry.plane_rotation,
        lambda original: lambda p, t, *rest: original(p, CirclePoint(t.c, abs(t.s)), *rest),
        {"rotation.one-parameter", "rotation.orientation-reversal"},
    ),
    "rotation-entries-doubled": (
        geometry.plane_rotation,
        lambda original: lambda *args: original(*args).map_scalars(lambda x: 2 * x),
        {"rotation.fixes-complement", "rotation.one-parameter", "rotation.special-orthogonal"},
    ),
    "rotation-divides-by-n-squared": (
        geometry.plane_rotation,
        lambda original: lambda p, *rest: _identity_plus(original(p, *rest), 1 / norm_sq(p.u)),
        {"rotation.scaling-invariance", "f7.w-choice-invariance", "triality.quarter-turn"},
    ),
    # On exact input f7 and triality read the frame's complex structure J,
    # built by _plane_term, not the plane_rotation factors.
    "plane-term-over-n-again": (
        spinmaps._plane_term,
        _over_n_again,
        {"f7.w-choice-invariance", "triality.quarter-turn"},
    ),
    # Every exactly orthogonal matrix on an int scale takes the residue path.
    "orthogonal-det-sign-flipped": (
        geometry._orthogonal_determinant,
        lambda original: lambda m: -original(m),
        {"rotation.special-orthogonal", "geometry.cayley-special-orthogonal", "spin7.f7-image",
         "spin7.f5-image", "spin7.product-image", "spin7.minus-identity",
         "spin8.product-coordinates"},
    ),
    "basis-rotation-swaps-pair": (
        geometry.rotate_plane_basis,
        lambda original: lambda *args: _swapped(original(*args)),
        {"rotation.basis-invariance", "f7.plane-basis-invariance"},
    ),
    "solve-doubles-first-row": (
        geometry.solve_linear,
        lambda original: lambda *args: _first_row_doubled(original(*args)),
        {"geometry.cayley-special-orthogonal"},
    ),
    "crossing-sign-flipped": (
        degree._cut_crossing,
        lambda original: lambda *args: -original(*args),
        {"degree.identity-map", "degree.double-angle", "degree.composition"},
    ),
    # The next two turn frame claims red by value; the broken Fano sign
    # below turns them red only through the FrameError of basis_b.
    "f7-factor-plane-e0-y": (
        # Element 3, xy, spans only the second plane: [e0, xy] becomes [e0, y].
        spinmaps.f7_factors,
        lambda original: lambda frame, *rest: original(
            _with_element(frame, 3, frame.elements[2]), *rest
        ),
        {"f7.factors-commute"},
    ),
    "frame-wx-as-xw": (
        spinmaps.basis_b,
        lambda original: lambda *args, **kwargs: _wx_as_xw(original(*args, **kwargs)),
        {"frame.orthogonal-basis", "f7.w-expansion-x", "f7.w-expansion-y", "f7.w-expansion-xy"},
    ),
    "fano-sign-symmetric-pair": (
        octonion.FANO_SIGN,
        lambda original: tuple(
            tuple(-x if (i, j) == (2, 1) else x for j, x in enumerate(row))
            for i, row in enumerate(original)
        ),
        # The frame entries fail by the FrameError that basis_b raises on
        # the broken algebra.
        {"octonion.anticommute-orthogonal", "octonion.alternative",
         "octonion.moufang-bimultiplication", "octonion.moufang-left", "octonion.moufang-right",
         "octonion.norm-multiplicative", "octonion.orthogonal-anti-associative",
         "octonion.unit-triple-cycle", "frame.orthogonal-basis", "f7.w-expansion-x",
         "f7.w-expansion-y", "f7.w-expansion-xy", "f7.factors-commute"},
    ),
    "winding-off-by-one-turn": (
        degree.winding_degree,
        lambda original: lambda *args: original(*args) + 1,
        {"degree.identity-map", "degree.double-angle", "degree.constant-map",
         "degree.composition", "degree.ledger"},
    ),
    "samples-clockwise-at-1024": (
        degree.circle_samples,
        lambda original: lambda n, *rest: original(n, *rest)[::-1 if n >= 1024 else 1],
        {"degree.sample-stability"},
    ),
}


#: The backend each defect is declared for, when it is not exact: on floats f7
#: still chains the plane_rotation factors.
_DEFECT_BACKENDS = {"rotation-divides-by-n-squared": "float"}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_defect_turns_named_claims_red(monkeypatch, defect):
    original, make_replacement, expected_red = _DEFECTS[defect]
    _patch_everywhere(monkeypatch, original, make_replacement(original))

    backend = _DEFECT_BACKENDS.get(defect, "exact")
    code, report = run_verify_suite(RunConfig(backend=backend, seed=42, trials=1))

    red = {c["claim"] for claims in report["results"].values() for c in claims if not c["passed"]}
    assert code == 1
    assert expected_red <= red


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("defect", ["f7-factor-plane-e0-y", "frame-wx-as-xw"])
def test_frame_defect_fails_claims_by_value(monkeypatch, defect, backend):
    original, make_replacement, expected_red = _DEFECTS[defect]
    _patch_everywhere(monkeypatch, original, make_replacement(original))

    _, report = run_verify_suite(
        RunConfig(backend=backend, seed=42, trials=1), ["f7-well-defined", "triality"]
    )

    claims = {c["claim"]: c for results in report["results"].values() for c in results}
    for cid in expected_red:
        failures = claims[cid]["failures"]
        assert failures and all("error" not in f for f in failures), cid


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize(
    "defect", ["crossing-sign-flipped", "winding-off-by-one-turn", "samples-clockwise-at-1024"]
)
def test_degree_defect_fails_circle_claims_by_value(monkeypatch, defect, backend):
    original, make_replacement, expected_red = _DEFECTS[defect]
    _patch_everywhere(monkeypatch, original, make_replacement(original))

    _, report = run_verify_suite(RunConfig(backend=backend, seed=42, trials=1), ["degree-ledger"])

    claims = {c["claim"]: c for c in report["results"]["degree-ledger"]}
    for cid in expected_red - {"degree.ledger"}:
        assert claims[cid]["failures"] == ["mismatch"], cid


def test_every_claim_has_a_defect_that_turns_it_red():
    code, report = run_verify_suite(RunConfig(backend="exact", seed=42, trials=1))

    claims = {c["claim"] for results in report["results"].values() for c in results}
    assert code == 0
    assert claims <= set().union(*(red for _, _, red in _DEFECTS.values()))


def test_frame_table_flip_fails_by_value(monkeypatch):
    table = [list(row) for row in spinmaps.FRAME_TABLE]
    sign, k, power = table[5][6]
    table[5][6] = (-sign, k, power)
    monkeypatch.setattr(spinmaps, "FRAME_TABLE", tuple(map(tuple, table)))

    code, report = run_verify_suite(RunConfig(backend="exact", seed=42, trials=1))

    claims = {c["claim"]: c for results in report["results"].values() for c in results}
    frame_failures = claims["frame.orthogonal-basis"]["failures"]
    assert code == 1
    assert frame_failures and all("pairs" in f and "error" not in f for f in frame_failures)
    assert [5, 6] in frame_failures[0]["pairs"]
    assert not claims["triality.sixty-four-pairs"]["passed"]


def _verdicts(backend, seed):
    _, report = run_verify_suite(RunConfig(backend=backend, epsilon=1e-9, seed=seed, trials=1))
    return {
        c["claim"]: (c["passed"], c["instances"], c["failure_count"])
        for claims in report["results"].values()
        for c in claims
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_exact_and_float_verdicts_agree(seed):
    assert _verdicts("float", seed) == _verdicts("exact", seed)


@pytest.mark.parametrize("epsilon", [1e-9, 0.5])
def test_exact_and_float_circle_degrees_agree(epsilon):
    def circle_records(backend):
        config = RunConfig(backend=backend, epsilon=epsilon, seed=11, trials=1)
        _, report = run_verify_suite(config, ["degree-ledger"])
        return [c for c in report["results"]["degree-ledger"] if c["claim"] != "degree.ledger"]

    exact = circle_records("exact")
    assert len(exact) == 5 and all(c["passed"] for c in exact)
    assert circle_records("float") == exact


@pytest.fixture
def square_calls(monkeypatch):
    """The trials of every ``degree.verify_square`` call."""
    calls = []
    verify_square = degree.verify_square

    def counting(seed, trials, *rest):
        calls.append(trials)
        return verify_square(seed, trials, *rest)

    monkeypatch.setattr(degree, "verify_square", counting)
    return calls


def test_a_full_run_checks_the_commuting_square_once(square_calls):
    assert run_verify_suite(RunConfig(trials=1))[0] == 0
    assert square_calls == [1]


@pytest.mark.parametrize("suite", ["commutative-square", "degree-ledger"])
def test_a_square_suite_run_alone_checks_its_own_square(square_calls, suite):
    assert run_verify_suite(RunConfig(trials=1), [suite])[0] == 0
    assert square_calls == [1]
    suites.SUITES[suite](scalar.EXACT, 42, 1)
    assert square_calls == [1, 1]


def test_the_ledger_caps_its_square_at_ten_trials(square_calls):
    run_verify_suite(RunConfig(trials=12), ["commutative-square", "degree-ledger"])
    assert square_calls == [12, 10]


def test_no_square_survives_a_run(square_calls, monkeypatch):
    names = ["commutative-square", "degree-ledger"]
    assert run_verify_suite(RunConfig(trials=1), names)[0] == 0
    failing = degree.SquareReport(1, (0,), 0)
    monkeypatch.setattr(degree, "verify_square", lambda *args: failing)

    code, report = run_verify_suite(RunConfig(trials=1), names)

    red = {c["claim"] for claims in report["results"].values() for c in claims if not c["passed"]}
    assert code == 1 and red == {"square.pointwise", "degree.ledger"}
    assert square_calls == [1]
