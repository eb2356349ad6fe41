"""octospin benchmark: one client, one thread, closed loop, in-process.

    python3 perfbench/run.py --workload verify-exact --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports octospin from the
checkout's ``src`` directory and exits with code 2, printing no result, when
that is missing.  Workloads are defined in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics: requests are sent one after
another for ``--seconds`` seconds, each timed around the public call that
serves it, and every output is checked.  Set-up is timed SETUPS times, each
in a fresh interpreter (``cold_setup.py``).  Times and set-up are reported at
a nominal machine pace, which removes the slowdown other tenants of a shared
host cause (see ``pace.py``); the ``result`` line also holds the unscaled
figures.

``--trace 1`` runs the workload's fixed first requests once untraced and
twice traced (see ``spans.py``); it reports per-layer metrics from the first
traced pass, fails when calls or coefficient heights differ between the two
passes, and ignores ``--seconds``.  Before the traced passes a probe,
``octospin verify`` through ``cli.main``, must reach every traced function.
Every per-layer metric is reported on every workload; those that read 0 only
because nothing was measured (a function the workload never reaches, heights
on the float backend) are listed as ``not_applicable`` in the ``result``
line.

Standard output ends with a summary, a ``result`` line holding the full
result with its environment block, and, as the last line, the JSON object
{correct, attempted, failed, metrics}.  Results and spans are also written
to ``.perfbench-out/``.  The exit code is 0 when every output was correct and
1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
COLD_SETUP = Path(__file__).resolve().parent / "cold_setup.py"
#: Set-ups per run; setup_s is their median.
SETUPS = 7
#: Length of the generated request list; a run cycles through it.
REQUESTS = 2048
#: The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
PROBE_ARGV = ("verify", "--trials", str(workloads.TRIALS), "--seed", "7")

END_TO_END = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_octospin():
    importlib.import_module("octospin")
    api = types.SimpleNamespace(
        suites=importlib.import_module("octospin.suites"),
        cli=importlib.import_module("octospin.cli"),
    )
    where = Path(api.cli.__file__).resolve().parent
    if where != SRC / "octospin":
        raise ImportError(f"octospin was imported from {where}, not from {SRC}")
    return api


class Tally:
    """Request times, their paces when a pace ``kernel`` is named, completed
    work and failures so far."""

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.raw = []
        self.pace = []
        self.units = 0
        self.attempted = 0
        self.failures = []

    def time(self, fn):
        if self.kernel is None:
            t0 = perf_counter()
            result = fn()
            self.raw.append(perf_counter() - t0)
            return result
        result, elapsed, pace_s = pace.timed(fn, self.kernel)
        self.raw.append(elapsed)
        self.pace.append(pace_s)
        return result

    def run(self, workload, api, request, golden_sha=None) -> None:
        self.attempted += 1
        try:
            output = self.time(lambda: workload.execute(api, request))
        except (Exception, SystemExit) as err:  # a crash is a failed request
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{request!r:.80}: raised {err!r}")
            return
        units, reason = workload.check(request, output, golden_sha)
        self.units += units
        if reason is not None:
            self.failures.append(f"{request!r:.80}: {reason}")

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failures.append(reason)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failures += other.failures

    def scaled(self) -> list:
        return pace.scale(self.raw, self.pace, self.kernel)


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile that
    has TAIL_BEYOND samples above it; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def cold_setup(workload, warmup, tally) -> None:
    """Import octospin and serve one warm-up request in a fresh interpreter;
    record the time it reports in ``tally``, paced by the kernel runs it
    makes after the clock stops."""
    argv = [
        sys.executable, str(COLD_SETUP), str(SRC), tally.kernel, *workload.cold_args(warmup)
    ]
    tally.attempted += 1
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        tally.failures.append("cold set-up: timed out")
        return
    lines = proc.stdout.split("\n", 2)
    if proc.returncode != 0 or len(lines) < 3:
        tally.failures.append(f"cold set-up: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return
    elapsed, *after = map(float, lines[0].split())
    tally.raw.append(elapsed)
    tally.pace.append(statistics.median(after))
    output = (int(lines[1]), lines[2])
    _, reason = workload.check(warmup, output, workload.golden_sha(workloads.DEFAULT_SEED, 0))
    if reason is not None:
        tally.failures.append(f"cold set-up: {reason}")


def warm_up(workload, tally):
    """Import octospin into this process and serve the warm-up request,
    untimed; failures land in ``tally``."""
    api = _import_octospin()
    warmup = workload.requests(workloads.DEFAULT_SEED, 1)[0]
    once = Tally()
    once.run(workload, api, warmup, workload.golden_sha(workloads.DEFAULT_SEED, 0))
    tally.absorb(once)
    return api


def _latency_metrics(times, units) -> dict:
    value, pct, beyond = tail(times)
    return {
        "instances_per_s": units / sum(times),
        "latency_p50_ms": 1000.0 * statistics.median(times),
        "latency_tail_ms": 1000.0 * value,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
    }


def measure(workload, seed, seconds, max_requests=None) -> tuple:
    """End-to-end metrics of a closed-loop run lasting ``seconds``."""
    requests = workload.requests(seed, REQUESTS)
    warmup = workload.requests(workloads.DEFAULT_SEED, 1)[0]
    setups = Tally(workload.pace_kernel)
    for _ in range(SETUPS):
        cold_setup(workload, warmup, setups)
    api = warm_up(workload, setups)
    timed = Tally(workload.pace_kernel)
    gc.collect()
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or (perf_counter() < deadline and i != max_requests):
        k = i % len(requests)
        timed.run(workload, api, requests[k], workload.golden_sha(seed, k))
        i += 1
    if not timed.raw or not setups.raw:
        failures = setups.failures + timed.failures
        raise RuntimeError("no request completed: " + "; ".join(failures[:3]))
    scaled = _latency_metrics(timed.scaled(), timed.units)
    raw = _latency_metrics(timed.raw, timed.units)
    metrics = {k: scaled[k] for k in ("instances_per_s", "latency_p50_ms", "latency_tail_ms")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = statistics.median(setups.scaled())
    info = {
        "timed_requests": len(timed.raw),
        "tail_percentile": scaled["tail_percentile"],
        "tail_samples_beyond": scaled["tail_samples_beyond"],
        "pace_kernel": workload.pace_kernel,
        "nominal_pace_s": pace.NOMINAL_S[workload.pace_kernel],
        "median_pace_s": statistics.median(timed.pace),
        "unscaled": {
            "instances_per_s": raw["instances_per_s"],
            "latency_p50_ms": raw["latency_p50_ms"],
            "latency_tail_ms": raw["latency_tail_ms"],
            "setup_s": statistics.median(setups.raw),
            "setups_s": setups.raw,
        },
    }
    setups.absorb(timed)
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info, setups


def _probe(api, tally) -> None:
    output = workloads.run_cli(api, PROBE_ARGV)
    probe_check = workloads.make_workload("verify-exact", workloads.load_golden())
    _, reason = probe_check.check(int(PROBE_ARGV[-1]), output)
    tally.attempted += 1
    if reason is not None:
        tally.failures.append(f"probe: {reason}")


def traced(workload, seed, max_requests=None) -> tuple:
    """Per-layer metrics from two traced passes over a fixed request list.

    In the first pass each request also runs untraced next to its traced run,
    so both see the same machine state; the trace overhead compares them.
    """
    count = workload.trace_requests
    if max_requests is not None:
        count = min(count, max_requests)
    requests = workload.requests(seed, REQUESTS)[:count]
    shas = [workload.golden_sha(seed, k) for k in range(count)]
    tally, plain, first, second = (Tally() for _ in range(4))
    api = warm_up(workload, tally)
    tracer = spans.Tracer(workload.exact)
    with tracer:
        _probe(api, tally)
    missing = tracer.missing()
    if missing:
        tally.fail("traced functions the probe never reached: " + ", ".join(missing))
    tracer.reset()
    for k, (request, sha) in enumerate(zip(requests, shas)):
        # Alternate which run goes first: a repeat of a request runs faster.
        if k % 2 == 0:
            plain.run(workload, api, request, sha)
        tracer.request = k
        with tracer:
            first.run(workload, api, request, sha)
        if k % 2 == 1:
            plain.run(workload, api, request, sha)
    metrics = tracer.metrics()
    not_applicable = tracer.not_applicable()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")
    spans_written = len(tracer.end)
    tracer.reset()
    with tracer:
        for k, (request, sha) in enumerate(zip(requests, shas)):
            tracer.request = k
            second.run(workload, api, request, sha)
    again = tracer.metrics()
    counted = [k for k in metrics if k.endswith((".calls", ".max_bits"))]
    differ = [k for k in counted if metrics[k] != again[k]]
    if differ:
        tally.fail("counts differ between traced passes: " + ", ".join(differ))
    metrics[spans.OVERHEAD[0]] = sum(first.raw) / sum(plain.raw) - 1.0
    for t in (plain, first, second):
        tally.absorb(t)
    info = {
        "traced_requests": count,
        "untraced_busy_s": sum(plain.raw),
        "traced_busy_s": sum(first.raw),
        "spans": spans_written,
        "not_applicable": not_applicable,
    }
    units = spans.metric_units()
    return {k: (v, units[k]) for k, v in metrics.items()}, info, tally


def _git() -> dict:
    """Commit and dirty flag of the checkout; null when it is not a git repo."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def environment(workload, seed, seconds, trace) -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setups": SETUPS,
        "loop": "closed, one client, one thread",
    }
    env.update(_git())
    env.update(workload.env())
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description="octospin benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None, max_requests=None) -> int:
    """Run one benchmark invocation; ``max_requests`` caps it for smoke tests."""
    args = parse_args(argv)
    if not (SRC / "octospin" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no octospin sources under {SRC}\n")
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = workloads.make_workload(args.workload, workloads.load_golden())
    if args.trace:
        metrics, info, tally = traced(workload, args.seed, max_requests)
    else:
        metrics, info, tally = measure(workload, args.seed, args.seconds, max_requests)
    env = environment(workload, args.seed, args.seconds, args.trace)
    env.update(info)
    env["requests"] = tally.attempted
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for reason in tally.failures[:10]:
        print("FAILED", reason)
    unmeasured = set(env.get("not_applicable", ()))
    for name, (value, unit) in metrics.items():
        note = "  (n/a: nothing measured)" if name in unmeasured else ""
        print(f"{name:42s} {value:>16.6g} {unit}{note}")
    print(f"{'failed_frac':42s} {failed / tally.attempted:>16.6g} fraction")
    full = dict(result, failed_frac=failed / tally.attempted, env=env, failures=tally.failures)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("result " + json.dumps(full, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
