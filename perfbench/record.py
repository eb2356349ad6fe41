"""Regenerate golden.json and counts.json at the default workload seed.

    python3 perfbench/record.py

golden.json pins, for each verify workload, the claim ids with their
instance counts and the sha256 of the report of each of the first
GOLDEN_REQUESTS requests at the default seed; run.py rejects other bytes
there.  Regenerate it only in a change that alters the report on purpose,
and say why.  counts.json records the per-layer calls and coefficient
heights of a traced run of every workload at that seed, the base against
which a later version's counts are compared.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import run
import workloads

GOLDEN_REQUESTS = 128
HERE = Path(__file__).resolve().parent


def record_golden(api) -> dict:
    golden = {}
    for name in ("verify-exact", "verify-float"):
        workload = workloads.make_workload(name, {})
        claims, shas = None, []
        for seed in workload.requests(workloads.DEFAULT_SEED, GOLDEN_REQUESTS):
            code, text = workload.execute(api, seed)
            _, reason = workload.check(seed, (code, text))
            got = workloads.claim_counts(json.loads(text))
            if reason is None and claims not in (None, got):
                reason = "claim ids or instance counts depend on the seed"
            if reason is not None:
                sys.exit(f"{name} request seed {seed}: {reason}")
            claims = got
            shas.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        golden[name] = {
            "seed": workloads.DEFAULT_SEED,
            "trials": workloads.TRIALS,
            "claims": claims,
            "sha256": shas,
        }
    return golden


def record_counts() -> dict:
    counts = {}
    for name in workloads.WORKLOAD_NAMES:
        workload = workloads.make_workload(name, workloads.load_golden())
        metrics, info, tally = run.traced(workload, workloads.DEFAULT_SEED)
        if tally.failures:
            sys.exit(f"{name}: {tally.failures[0]}")
        counts[name] = {
            "seed": workloads.DEFAULT_SEED,
            "traced_requests": info["traced_requests"],
            "counts": {
                k: v for k, (v, _) in metrics.items() if k.endswith((".calls", ".max_bits"))
            },
        }
    return counts


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    _write(workloads.GOLDEN_PATH, record_golden(run._import_octospin()))
    _write(HERE / "counts.json", record_counts())


if __name__ == "__main__":
    main()
