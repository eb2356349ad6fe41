"""The benchmark's byte gate: the first seed-1 verify reports match golden.json.

``perfbench/run.py`` counts a verify request as failed when its report bytes
differ from the sha256 pinned in ``perfbench/golden.json``; this test runs the
first requests of each verify workload through the benchmark's own
``execute`` and ``check`` so that a change to the report bytes shows up in the
unit run.
"""

import importlib.util
import types
from pathlib import Path

import pytest

from octospin import cli, suites

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
FIRST_REQUESTS = 8


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["verify-exact", "verify-float"])
def test_first_verify_reports_match_golden(name):
    workloads = _load_workloads()
    workload = workloads.make_workload(name, workloads.load_golden())
    api = types.SimpleNamespace(cli=cli, suites=suites)
    seed = workloads.DEFAULT_SEED

    for index, request in enumerate(workload.requests(seed, FIRST_REQUESTS)):
        sha = workload.golden_sha(seed, index)
        assert sha is not None
        _, reason = workload.check(request, workload.execute(api, request), sha)
        assert reason is None, f"request {index}: {reason}"
