import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from octospin import spinmaps, suites
from octospin.cli import main
from octospin.octonion import parse_octonion
from octospin.scalar import EXACT
from octospin.geometry import parse_matrix, Matrix8, mat_eq, plane_rotation, OrientedPlane
from octospin.octonion import Octonion, inner, norm_sq
from octospin.scalar import CIRCLE_QUARTER

E = [Octonion.basis(i) for i in range(8)]


def run(args):
    return main(args)


def test_verify_small_run(tmp_path):
    out = tmp_path / "report.json"
    code = run([
        "verify", "--suites", "octonion-identities", "--trials", "3",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert report["config"]["suites"] == ["octonion-identities"]
    assert report["config"]["trials"] == 3
    claims = {c["claim"] for c in report["results"]["octonion-identities"]}
    assert "octonion.e3e2-equals-minus-e1" in claims


def test_verify_rejects_zero_trials(tmp_path):
    code = run(["verify", "--trials", "0", "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_verify_rejects_unknown_suite(tmp_path, capsys):
    code = run(["verify", "--suites", "nonsense", "--out", str(tmp_path / "r.json")])
    assert code == 2
    code = run(["verify", "--suites", ",", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "no suites selected" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_verify_rejects_bad_epsilon(tmp_path):
    code = run([
        "verify", "--backend", "float", "--epsilon", "-1",
        "--trials", "2", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_verify_rejects_infinite_epsilon(tmp_path, capsys):
    code = run([
        "verify", "--backend", "float", "--epsilon", "inf", "--trials", "1",
        "--suites", "octonion-identities", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify", "--suites", "octonion-identities", "--trials", "1"],
    ["eval", "f5", "--plane", "e1,e2", "--angle", "0,1"],
    ["table", "--plane", "e1,e2"],
    ["gen-frame"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("target", ["directory", "missing-parent", "empty"])
def test_unwritable_out_is_a_usage_error(tmp_path, command, target, capsys, monkeypatch):
    """verify reports the unwritable --out before any suite runs."""
    def no_suite_runs(*args):
        raise AssertionError("a suite ran before --out was checked")

    monkeypatch.setattr(suites, "_run", no_suite_runs)
    out = {"directory": tmp_path, "missing-parent": tmp_path / "missing" / "r.json",
           "empty": ""}[target]
    assert run(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize("command", [
    ["verify", "--backend", "float", "--epsilon", "1", "--seed", "11", "--trials", "2"],
    ["eval", "f7", "--plane", "e1,e2", "--angle", "u=1/2", "--backend", "float",
     "--epsilon", "2"],
], ids=lambda command: command[0])
def test_epsilon_of_one_or_more_is_a_usage_error(command, capsys, monkeypatch):
    def no_suite_runs(*args):
        raise AssertionError("a suite ran with an invalid epsilon")

    monkeypatch.setattr(suites, "_run", no_suite_runs)
    assert run(command) == 2
    captured = capsys.readouterr()
    assert "epsilon" in captured.err and captured.out == ""


def test_verify_out_replaces_an_existing_file(tmp_path, capsys):
    argv = ["verify", "--suites", "octonion-identities", "--trials", "1"]
    assert run(argv) == 0
    report = capsys.readouterr().out
    out = tmp_path / "r.json"
    out.write_text("x" * (2 * len(report)))
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_text() == report


def test_eval_rejects_nan_epsilon(capsys):
    code = run([
        "eval", "h70", "--plane", "e1,e2", "--angle", "u=1", "--plane2", "e3,e4",
        "--angle2", "u=1", "--backend", "float", "--epsilon", "nan",
    ])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


def test_module_entry_point_writes_report_to_stdout():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "octospin.cli", "verify", "--suites", "octonion-identities",
         "--trials", "1"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["config"]["suites"] == ["octonion-identities"]


def test_verify_is_deterministic(tmp_path):
    args = ["verify", "--suites", "degree-ledger", "--trials", "2", "--seed", "5"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_f7_quarter_turn(tmp_path):
    out = tmp_path / "f7.json"
    code = run([
        "eval", "f7", "--plane", "e1,e2", "--angle", "0,1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    matrix = parse_matrix(payload["matrix"], EXACT)
    from octospin.spinmaps import f7
    assert mat_eq(matrix, f7(OrientedPlane(E[1], E[2]), CIRCLE_QUARTER))
    assert payload["so_check"]["passed"] is True
    assert payload["spin7_membership"]["is_member"] is True


def test_eval_f7_identity_angle(tmp_path):
    out = tmp_path / "f7.json"
    assert run(["eval", "f7", "--plane", "e1,e2", "--angle", "1,0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert mat_eq(parse_matrix(payload["matrix"], EXACT), Matrix8.identity())


def test_eval_f7_full_tuple_plane_and_parameter_angle(tmp_path):
    out = tmp_path / "f7.json"
    plane = "0,1,0,0,0,0,0,0;0,0,1,0,0,0,0,0"
    assert run(["eval", "f7", "--plane", plane, "--angle", "u=1/2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spin7_membership"]["is_member"] is True


def test_eval_f7xf5_identity(tmp_path):
    out = tmp_path / "prod.json"
    code = run([
        "eval", "f7xf5", "--plane", "e1,e2", "--angle", "1,0",
        "--plane2", "e4,e5", "--angle2", "1,0", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert mat_eq(parse_matrix(payload["matrix"], EXACT), Matrix8.identity())


def test_eval_f5_to_stdout(capsys):
    assert run(["eval", "f5", "--plane", "e1,e2", "--angle", "u=1/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["map"] == "f5"
    assert payload["so_check"]["passed"] is True
    assert payload["spin7_membership"]["is_member"] is True


def test_eval_f7xf5_requires_second_arguments(tmp_path):
    code = run(["eval", "f7xf5", "--plane", "e1,e2", "--angle", "1,0"])
    assert code == 2


def test_eval_h70_reports_membership_without_failing(tmp_path):
    out = tmp_path / "h70.json"
    code = run([
        "eval", "h70", "--plane", "e1,e2", "--angle", "0,1",
        "--plane2", "e4,e5", "--angle2", "3/5,4/5", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["so_check"]["passed"] is True


def test_eval_spin8(tmp_path):
    out = tmp_path / "spin8.json"
    code = run([
        "eval", "spin8", "--plane", "e1,e2", "--angle", "3/5,4/5",
        "--plane2", "e4,e5", "--angle2", "u=2", "--s-vector", "e0",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert parse_octonion(payload["s_vector"], EXACT) == E[0]
    assert payload["spin7_membership"]["is_member"] is True


def test_eval_spin8_requires_s_vector(capsys):
    code = run([
        "eval", "spin8", "--plane", "e1,e2", "--angle", "1,0",
        "--plane2", "e4,e5", "--angle2", "1,0",
    ])
    assert code == 2
    assert "spin8 needs --s-vector" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["f5", "--w", "e3"], "--w"),
        (["h70", "--plane2", "e3,e4", "--angle2", "0,1", "--w", "e4"], "--w"),
        (["f7", "--s-vector", "e0"], "--s-vector"),
        (["f7xf5", "--plane2", "e4,e5", "--angle2", "0,1", "--s-vector", "e0"], "--s-vector"),
        (["f7", "--plane2", "e3,e4", "--angle2", "0,1"], "--plane2"),
        (["f5", "--angle2", "0,1"], "--angle2"),
    ],
)
def test_eval_rejects_flags_its_map_does_not_read(extra, flag, capsys):
    code = run(["eval", extra[0], "--plane", "e1,e2", "--angle", "0,1", *extra[1:]])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: map {extra[0]} does not take {flag}\n"


def test_eval_spin8_rejects_non_unit_s(tmp_path):
    code = run([
        "eval", "spin8", "--plane", "e1,e2", "--angle", "1,0",
        "--plane2", "e4,e5", "--angle2", "1,0",
        "--s-vector", "2,0,0,0,0,0,0,0",
    ])
    assert code == 2


def test_eval_rejects_malformed_plane():
    assert run(["eval", "f7", "--plane", "e1", "--angle", "1,0"]) == 2
    assert run(["eval", "f7", "--plane", "e1,e2,e3", "--angle", "1,0"]) == 2
    # a vector with three entries instead of eight
    assert run(["eval", "f7", "--plane", "1,2,3;e2", "--angle", "1,0"]) == 2


def test_eval_rejects_off_circle_angle():
    assert run(["eval", "f7", "--plane", "e1,e2", "--angle", "1,1"]) == 2
    for angle in ("inf,0", "1e200,0"):
        assert run(["eval", "f7", "--plane", "e1,e2", "--angle", angle,
                    "--backend", "float"]) == 2
    huge = ",".join(["1e200"] + ["0"] * 7)
    assert run(["eval", "spin8", "--plane", "e1,e2", "--angle", "1,0",
                "--plane2", "e1,e2", "--angle2", "1,0", "--s-vector", huge,
                "--backend", "float"]) == 2


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_eval_names_a_zero_denominator_angle_parameter(backend, capsys):
    assert run(["eval", "f7", "--plane", "e1,e2", "--angle", "u=1/0",
                "--backend", backend]) == 2
    assert "angle parameter u=1/0 has a zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize(
    "flags",
    [["--plane", "e1,e2", "--angle", "1/0,0"],
     ["--plane", "1/0,0,0,0,0,0,0,0;e2", "--angle", "1,0"],
     ["--plane", "e1,e2", "--angle", "1,0", "--w", "0,0,0,0,1/0,0,0,0"]],
    ids=["angle", "plane", "w"],
)
def test_eval_names_a_zero_denominator_number(backend, flags, capsys):
    assert run(["eval", "f7"] + flags + ["--backend", backend]) == 2
    assert "error: number 1/0 has a zero denominator" in capsys.readouterr().err


def test_eval_rejects_bad_plane_geometry(capsys):
    # not orthogonal
    assert run(["eval", "f7", "--plane", "1,1,0,0,0,0,0,0;0,1,0,0,0,0,0,0",
                "--angle", "1,0"]) == 2
    # f5 takes planes inside span{e1..e5} only
    assert run(["eval", "f5", "--plane", "e1,e6", "--angle", "1,0"]) == 2
    assert "supported on coordinates 1..5" in capsys.readouterr().err


def test_eval_f7_rejects_zero_plane(capsys):
    zero = ",".join(["0"] * 8)
    assert run(["eval", "f7", "--plane", zero + ";" + zero, "--angle", "0,1"]) == 2
    assert "plane spanning pair must be nonzero" in capsys.readouterr().err


def test_eval_float_backend(tmp_path):
    out = tmp_path / "f7f.json"
    code = run([
        "eval", "f7", "--plane", "e1,e2", "--angle", "0,1",
        "--backend", "float", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["so_check"]["passed"] is True
    assert float(payload["matrix"][2][1]) == pytest.approx(1.0)


def test_table_command(tmp_path):
    out = tmp_path / "table.txt"
    assert run(["table", "--plane", "e1,e2", "--out", str(out)]) == 0
    text = out.read_text()
    assert "w(xy)" in text
    assert "+xy" in text
    assert "N = 1/1" in text


def test_table_with_explicit_w(tmp_path):
    out = tmp_path / "table.txt"
    assert run(["table", "--plane", "e1,e2", "--w", "e4", "--out", str(out)]) == 0
    assert "-N*xy" in out.read_text()


def test_table_rejects_inadmissible_w():
    assert run(["table", "--plane", "e1,e2", "--w", "e3"]) == 2


def test_table_rejects_frame_that_disagrees_with_frame_table(monkeypatch, capsys):
    table = [list(row) for row in spinmaps.FRAME_TABLE]
    sign, k, power = table[5][6]
    table[5][6] = (-sign, k, power)
    monkeypatch.setattr(spinmaps, "FRAME_TABLE", tuple(map(tuple, table)))
    assert run(["table", "--plane", "e1,e2", "--w", "e4"]) == 1
    assert "[(5, 6)] disagree with FRAME_TABLE" in capsys.readouterr().err


def test_gen_frame(tmp_path):
    out = tmp_path / "frame.json"
    assert run(["gen-frame", "--seed", "9", "--subspace", "R5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    u = parse_octonion(payload["u"], EXACT)
    v = parse_octonion(payload["v"], EXACT)
    assert inner(u, v) == 0
    assert norm_sq(u) == 1 and norm_sq(v) == 1
    assert u.coords[0] == 0 and u.coords[6] == 0 and u.coords[7] == 0
    assert payload["norm_sq"] == "1/1"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["eval", "unknown-map", "--plane", "e1,e2", "--angle", "1,0"])
    assert exc.value.code == 2
