"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _full_result(capsys) -> tuple:
    """(last line, ``result`` line) of a run's standard output."""
    lines = capsys.readouterr().out.strip().splitlines()
    full = next(line for line in lines if line.startswith("result "))
    return json.loads(lines[-1]), json.loads(full[len("result "):])


def _counts(metrics) -> dict:
    return {k: v for k, (v, _) in metrics.items() if k.endswith((".calls", ".max_bits"))}


@pytest.fixture(autouse=True)
def _src_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_one_request_run_emits_every_metric_with_its_unit(name, trace, capsys):
    argv = ["--workload", name, "--seconds", "1", "--trace", str(trace)]
    code = run.main(argv, max_requests=1)
    result, full = _full_result(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        unmeasured = full["env"]["not_applicable"]
        assert all(result["metrics"][k]["value"] == 0 for k in unmeasured)
        assert result["metrics"]["spinmaps.f7.calls"]["value"] > 0
        if name == "verify-float":
            assert {k for k in expected if k.endswith(".max_bits")} <= set(unmeasured)
    else:
        assert len(full["env"]["unscaled"]["setups_s"]) == run.SETUPS


def test_flipped_report_byte_lands_in_failed_frac(monkeypatch, capsys):
    execute = workloads.VerifyWorkload.execute

    def flipped(self, api, request):
        code, text = execute(self, api, request)
        i = text.index('"statement": "') + len('"statement": "')
        return code, text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]

    monkeypatch.setattr(workloads.VerifyWorkload, "execute", flipped)
    code = run.main(["--workload", "verify-float", "--seconds", "1"], max_requests=2)
    result = _result(capsys)
    assert code == 1 and not result["correct"]
    # The cold set-ups run unpatched in their own interpreters; the in-process
    # warm-up and both timed requests fail.
    assert result["failed"] == result["attempted"] - run.SETUPS == 3


def test_wrong_matrix_entry_lands_in_failed_frac(monkeypatch, capsys):
    execute = workloads.EvalWorkload.execute

    def corrupted(api, argv):
        code, text = execute(api, argv)
        payload = json.loads(text)
        payload["matrix"][2][5] = str(Fraction(payload["matrix"][2][5]) + Fraction(1, 3))
        return code, json.dumps(payload)

    monkeypatch.setattr(workloads.EvalWorkload, "execute", staticmethod(corrupted))
    code = run.main(["--workload", "eval-height", "--seconds", "1"], max_requests=3)
    result = _result(capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] - run.SETUPS == 4


def test_cold_set_up_output_is_checked():
    workload = workloads.make_workload("verify-float", workloads.load_golden())
    tally = run.Tally(workload.pace_kernel)
    # The report of another request cannot match the warm-up request's sha256.
    run.cold_setup(workload, workload.requests(workloads.DEFAULT_SEED, 2)[1], tally)
    assert tally.attempted == 1 and len(tally.raw) == 1
    assert tally.failures == ["cold set-up: report bytes differ from golden.json"]


def test_traced_counts_repeat_across_runs():
    workload = workloads.make_workload("eval-height", workloads.load_golden())
    first = run.traced(workload, 5, max_requests=5)[0]
    second = run.traced(workload, 5, max_requests=5)[0]
    assert _counts(first) == _counts(second)
    assert first["spinmaps.f7.calls"][0] > 0 and first["octonion.mul.max_bits"][0] > 0


def test_function_the_probe_never_reaches_fails_the_traced_run(monkeypatch, capsys):
    unused = ("geometry.parse_matrix", "octospin.geometry", "parse_matrix", ("calls",))
    monkeypatch.setattr(spans, "FUNCTIONS", spans.FUNCTIONS + (unused,))
    code = run.main(["--workload", "eval-height", "--trace", "1"], max_requests=1)
    out = capsys.readouterr().out
    assert code == 1
    assert "never reached: geometry.parse_matrix" in out


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-height",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
