"""Acceptance criteria, one test per criterion, one printed verdict line each.

The heavy suite runs are shared through session-scoped fixtures; every
criterion checks the claim families it names at its stated instance counts
and tolerances (exact equality unless stated otherwise).
"""

import json
import time
from fractions import Fraction as F

import pytest

from octospin.cli import main as cli_main
from octospin.degree import degree_ledger, verify_square, winding_degree
from octospin.geometry import random_orthonormal_pair
from octospin.scalar import (
    EXACT,
    FloatBackend,
    circle_from_parameter,
    derived_rng,
    double_angle,
    random_rational,
)
from octospin.spinmaps import f7
from octospin.suites import (
    suite_double_cover,
    suite_f7_well_defined,
    suite_octonion_identities,
    suite_rotation_laws,
    suite_spin7_membership,
    suite_triality,
)

SEED = 42


def report(number, description, ok):
    print(f"ACCEPTANCE {number} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def claims_by_id(claims):
    return {c["claim"]: c for c in claims}


@pytest.fixture(scope="session")
def membership_claims():
    return suite_spin7_membership(EXACT, SEED, 100)


@pytest.fixture(scope="session")
def cover_claims():
    return suite_double_cover(EXACT, SEED, 100)


@pytest.fixture(scope="session")
def triality_claims():
    return suite_triality(EXACT, SEED, 50)


def test_criterion_1_octonion_suite():
    t0 = time.perf_counter()
    claims = suite_octonion_identities(EXACT, SEED, 500)
    elapsed = time.perf_counter() - t0
    by_id = claims_by_id(claims)
    required = [
        "octonion.e3e2-equals-minus-e1",
        "octonion.alternative",
        "octonion.moufang-bimultiplication",
        "octonion.moufang-left",
        "octonion.moufang-right",
        "octonion.anticommute-orthogonal",
        "octonion.unit-triple-cycle",
        "octonion.orthogonal-anti-associative",
        "octonion.norm-multiplicative",
    ]
    ok = all(by_id[c]["passed"] for c in required)
    ok = ok and all(
        by_id[c]["instances"] >= 500 for c in required if c != "octonion.e3e2-equals-minus-e1"
    )
    ok = ok and all(c["passed"] for c in claims)
    ok = ok and elapsed < 10.0
    report(1, f"octonion identity suite, 500 exact instances each, {elapsed:.1f}s", ok)


def test_criterion_2_rotation_laws():
    claims = suite_rotation_laws(EXACT, SEED, 200)
    by_id = claims_by_id(claims)
    required = [
        "rotation.one-parameter",
        "rotation.fixes-complement",
        "rotation.orientation-reversal",
        "rotation.scaling-invariance",
        "rotation.basis-invariance",
    ]
    ok = all(by_id[c]["passed"] and by_id[c]["instances"] >= 200 for c in required)
    ok = ok and all(c["passed"] for c in claims)
    report(2, "rotation laws, 200 exact instances each", ok)


def test_criterion_3_well_definedness():
    claims = suite_f7_well_defined(EXACT, SEED, 100)
    by_id = claims_by_id(claims)
    required = [
        "f7.plane-basis-invariance",
        "f7.w-choice-invariance",
        "f7.w-expansion-x",
        "f7.w-expansion-y",
        "f7.w-expansion-xy",
    ]
    ok = all(by_id[c]["passed"] and by_id[c]["instances"] >= 100 for c in required)
    ok = ok and all(c["passed"] for c in claims)
    report(3, "well-definedness in the plane basis and in w, 100 exact instances", ok)


def test_criterion_4_membership_cover_triality(
    membership_claims, cover_claims, triality_claims
):
    members = claims_by_id(membership_claims)
    cover = claims_by_id(cover_claims)
    triality = claims_by_id(triality_claims)
    ok = members["spin7.f7-image"]["passed"] and members["spin7.f7-image"]["instances"] >= 100
    ok = ok and members["spin7.single-rotation-rejected"]["passed"]
    ok = (
        ok
        and cover["cover.projects-to-doubled-rotation"]["passed"]
        and cover["cover.projects-to-doubled-rotation"]["instances"] >= 100
    )
    ok = ok and triality["triality.sixty-four-pairs"]["passed"]
    ok = ok and triality["triality.sixty-four-pairs"]["instances"] >= 50
    ok = ok and triality["triality.explicit-case"]["passed"]
    report(
        4,
        "membership on 100 values, cover formula on 100, 64-pair compatibility on 50",
        ok,
    )


def test_criterion_5_degree_skeleton():
    wind = winding_degree(double_angle, 256)
    square = verify_square(SEED, 100)
    ledger = degree_ledger(square, wind, wind)
    payload = ledger.to_dict()
    ok = wind == 2
    ok = ok and square.passed and square.trials == 100
    ok = ok and ledger.conclusion_magnitude == 8
    ok = ok and ledger.sign_determined is False
    ok = ok and payload["p_degree"]["provenance"] == "computed"
    ok = ok and payload["cover_multiplier"] == {
        "value": 2,
        "provenance": "cited",
        "citation": payload["cover_multiplier"]["citation"],
    }
    ok = ok and payload["h_multiplier_magnitude"]["value"] == 4
    ok = ok and payload["h_multiplier_magnitude"]["provenance"] == "cited"
    report(5, "winding degree 2, 100 exact square trials, ledger magnitude 8", ok)


def test_criterion_6_spin8(membership_claims):
    members = claims_by_id(membership_claims)
    claim = members["spin8.product-coordinates"]
    ok = claim["passed"] and claim["instances"] >= 50
    report(6, "Spin(8) product coordinates: membership and s pass-through, 50+", ok)


def test_criterion_7_global_sanity(cover_claims):
    cover = claims_by_id(cover_claims)
    center = cover["cover.center"]
    ok = center["passed"] and center["instances"] >= 20

    float_backend = FloatBackend(1e-9)
    agree = True
    for k in range(50):
        p = random_orthonormal_pair(SEED, "R7", ("float-agree", k))
        t = circle_from_parameter(
            random_rational(derived_rng(SEED, "float-agree", k), 8, 5)
        )
        exact_matrix = f7(p, t)
        float_matrix = f7(
            p.map_scalars(float), t.map_scalars(float), None, float_backend
        )
        for row_e, row_f in zip(exact_matrix.rows, float_matrix.rows):
            for a, b in zip(row_e, row_f):
                if abs(float(a) - b) > 1e-9:
                    agree = False
    ok = ok and agree
    report(7, "center sanity on 20+ instances; float agrees with exact on 50", ok)


def test_criterion_8_determinism(tmp_path):
    args = [
        "verify",
        "--suites",
        "octonion-identities,degree-ledger",
        "--trials",
        "5",
        "--seed",
        "11",
    ]
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    bytes1, bytes2 = out1.read_bytes(), out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and bytes1 == bytes2
    ok = ok and json.loads(bytes1)["all_passed"] is True
    report(8, "identical config produces byte-identical reports", ok)
