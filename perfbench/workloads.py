"""The benchmark's workloads: generated inputs, requests and output checks.

Inputs are made from the workload seed by this file alone, before octospin
is imported, so the program only ever sees the generated requests.  Each
workload runs a request through public octospin functions (``execute``) and
judges the output with the benchmark's own code (``check``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

#: Seed whose verify reports are pinned by sha256 in ``golden.json``.
DEFAULT_SEED = 1
#: Trials per verify request; every request runs all eight suites.
TRIALS = 1
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

EVAL_MAPS = ("f7", "f5", "f7xf5", "h70", "spin8")
#: Maps whose output must be a Spin(7) member (h70 lands in SO(7) only).
MEMBER_MAPS = ("f7", "f5", "f7xf5", "spin8")
#: Bit heights of the numerator and denominator of stereographic angles.
#: Request i evaluates EVAL_MAPS[i % 5] at height EVAL_HEIGHTS[(i // 5) % 5],
#: so every 25 consecutive requests meet each map at each height once.
EVAL_HEIGHTS = (8, 16, 32, 64, 128)
SUPPORTS = {"R7": range(1, 8), "R5": range(1, 6), "R8": range(0, 8)}
#: Distinct planes of each kind per seed; a run uses each about twice, so the
#: tail does not hang on a few extreme planes of one seed.
PLANE_POOL = 256


def _stream(*path) -> random.Random:
    return random.Random("perfbench|" + "|".join(str(p) for p in path))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(api, argv) -> tuple:
    """(exit code, standard output) of ``octospin`` run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(list(argv))
    return code, buf.getvalue()


def claim_counts(report: dict) -> dict:
    """{suite: [[claim id, instances], ...]} of a verify report."""
    return {
        suite: [[r["claim"], r["instances"]] for r in recs]
        for suite, recs in report.get("results", {}).items()
    }


class VerifyWorkload:
    """``run_verify_suite`` over all suites at TRIALS trials, one seed each."""

    def __init__(self, name: str, backend: str, golden: dict):
        self.name = name
        self.backend = backend
        self.exact = backend == "exact"
        self.golden = golden.get(name, {})
        self.trace_requests = 5 if self.exact else 16
        #: Small rationals, the interpreter and long integers share the time.
        self.pace_kernel = "mixed"

    def env(self) -> dict:
        return {"backend": self.backend, "trials": TRIALS}

    def requests(self, seed: int, count: int) -> list:
        rng = _stream(self.name, seed)
        return [rng.randrange(2**31) for _ in range(count)]

    def execute(self, api, request_seed: int):
        config = api.suites.RunConfig(
            backend=self.backend, seed=request_seed, trials=TRIALS
        )
        code, report = api.suites.run_verify_suite(config)
        return code, api.suites.render_report(report)

    def cold_args(self, request_seed: int) -> list:
        """Arguments of ``cold_setup.py`` that serve this request."""
        return ["verify", self.backend, str(request_seed), str(TRIALS)]

    def check(self, request_seed: int, output, golden_sha=None):
        """Return (instances, None) for a correct report, else (0, reason)."""
        code, text = output
        if code != 0:
            return 0, f"exit code {code}"
        if golden_sha is not None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != golden_sha:
                return 0, "report bytes differ from golden.json"
        try:
            report = json.loads(text)
        except ValueError as err:
            return 0, f"report is not JSON: {err}"
        if report.get("all_passed") is not True:
            return 0, "all_passed is not true"
        config = report.get("config", {})
        if (config.get("backend"), config.get("seed"), config.get("trials")) != (
            self.backend,
            request_seed,
            TRIALS,
        ):
            return 0, f"report config {config} does not match the request"
        expected = self.golden.get("claims")
        records = report.get("results", {})
        if expected is not None and claim_counts(report) != expected:
            return 0, "claim ids or instance counts differ from golden.json"
        if not all(r["passed"] for recs in records.values() for r in recs):
            return 0, "a claim record did not pass"
        return sum(r["instances"] for recs in records.values() for r in recs), None

    def golden_sha(self, seed: int, index: int):
        shas = self.golden.get("sha256", [])
        if seed == DEFAULT_SEED and index < len(shas):
            return shas[index]
        return None


def _solve(a, rhs):
    """Solve a x = b exactly for square a and each column b in ``rhs``."""
    n = len(a)
    m = [list(row) + [b[i] for b in rhs] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [[m[i][n + c] / m[i][i] for i in range(n)] for c in range(len(rhs))]


def cayley_columns(rng: random.Random, support, count: int = 2) -> list:
    """``count`` orthonormal 8-vectors supported on ``support``.

    They are columns of the Cayley transform (I + A)^-1 (I - A) of a random
    antisymmetric rational matrix A, which is exactly orthogonal.
    """
    idx = list(support)
    n = len(idx)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            a[i][j], a[j][i] = x, -x
    ipa = [[a[i][j] + (i == j) for j in range(n)] for i in range(n)]
    rhs = [[(i == k) - a[i][k] for i in range(n)] for k in range(count)]
    cols = []
    for col in _solve(ipa, rhs):
        vec = [Fraction(0)] * 8
        for i, x in zip(idx, col):
            vec[i] = x
        cols.append(vec)
    return cols


def _vec_text(vec) -> str:
    return ",".join(str(x) for x in vec)


def _plane_text(cols) -> str:
    return _vec_text(cols[0]) + ";" + _vec_text(cols[1])


def _parameter(rng: random.Random, bits: int) -> str:
    p = rng.getrandbits(bits) | (1 << (bits - 1))
    q = rng.getrandbits(bits) | (1 << (bits - 1))
    return f"u={Fraction(rng.choice((-1, 1)) * p, q)}"


def is_orthogonal(rows) -> bool:
    """Exact M^T M = I over integers: each column scaled by its denominator lcm."""
    cols = []
    for j in range(8):
        entries = [rows[i][j] for i in range(8)]
        den = math.lcm(*(x.denominator for x in entries))
        cols.append(([int(x * den) for x in entries], den))
    for i, (ni, di) in enumerate(cols):
        for j in range(i, 8):
            nj, dj = cols[j]
            dot = sum(x * y for x, y in zip(ni, nj))
            if dot != (di * dj if i == j else 0):
                return False
    return True


class EvalWorkload:
    """In-process ``octospin eval`` over five maps and five angle heights."""

    name = "eval-height"
    exact = True
    trace_requests = 50
    #: Long-integer arithmetic dominates at large heights.
    pace_kernel = "integer"

    def env(self) -> dict:
        return {
            "backend": "exact",
            "maps": list(EVAL_MAPS),
            "height_mix_bits": list(EVAL_HEIGHTS),
            "height_mix": "uniform; request i uses height index (i // 5) % 5",
        }

    def requests(self, seed: int, count: int) -> list:
        rng = _stream(self.name, seed)
        pool = min(PLANE_POOL, count)
        p7 = [_plane_text(cayley_columns(rng, SUPPORTS["R7"])) for _ in range(pool)]
        p5 = [_plane_text(cayley_columns(rng, SUPPORTS["R5"])) for _ in range(pool)]
        s8 = [_vec_text(cayley_columns(rng, SUPPORTS["R8"], 1)[0]) for _ in range(pool)]
        out = []
        for i in range(count):
            name = EVAL_MAPS[i % len(EVAL_MAPS)]
            bits = EVAL_HEIGHTS[(i // len(EVAL_MAPS)) % len(EVAL_HEIGHTS)]
            # Values are glued to their flags, as a vector may start with "-";
            # the pools are walked with different strides so pairings vary.
            argv = ["eval", name, "--angle=" + _parameter(rng, bits)]
            argv.append("--plane=" + (p5 if name == "f5" else p7)[i % pool])
            if name in ("f7xf5", "h70", "spin8"):
                argv.append("--plane2=" + p5[(3 * i + 1) % pool])
                argv.append("--angle2=" + _parameter(rng, bits))
            if name == "spin8":
                argv.append("--s-vector=" + s8[(5 * i + 2) % pool])
            out.append(tuple(argv))
        return out

    @staticmethod
    def execute(api, argv):
        return run_cli(api, argv)

    @staticmethod
    def cold_args(argv) -> list:
        """Arguments of ``cold_setup.py`` that serve this request."""
        return ["eval", *argv]

    @staticmethod
    def check(argv, output, golden_sha=None):
        """Return (1, None) for a correct eval payload, else (0, reason)."""
        code, text = output
        if code != 0:
            return 0, f"exit code {code}"
        try:
            payload = json.loads(text)
            rows = [[Fraction(x) for x in row] for row in payload["matrix"]]
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
            return 0, f"payload does not parse: {err!r}"
        name = argv[1]
        if payload.get("map") != name:
            return 0, "payload names another map"
        if payload["so_check"]["passed"] is not True:
            return 0, "so_check did not pass"
        if name in MEMBER_MAPS and payload["spin7_membership"]["is_member"] is not True:
            return 0, "not a Spin(7) member"
        if len(rows) != 8 or any(len(r) != 8 for r in rows) or not is_orthogonal(rows):
            return 0, "matrix is not orthogonal"
        return 1, None

    @staticmethod
    def golden_sha(seed: int, index: int):
        return None


def make_workload(name: str, golden: dict):
    if name == "verify-exact":
        return VerifyWorkload(name, "exact", golden)
    if name == "verify-float":
        return VerifyWorkload(name, "float", golden)
    if name == "eval-height":
        return EvalWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("verify-exact", "verify-float", "eval-height")
