"""Spans around the octospin functions that make up each layer.

``Tracer.install`` rebinds every function in FUNCTIONS, in each ``octospin``
module namespace (and module-level dict, such as ``suites.SUITES``) that
holds it, to a wrapper that records one span per call: function, start,
end, parent span and request id.  Spans stay in memory until ``write``;
``metrics`` derives calls, total time, self time and coefficient height
from them.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

SUITE_NAMES = (
    "octonion-identities",
    "rotation-laws",
    "f7-well-defined",
    "spin7-membership",
    "triality",
    "double-cover",
    "commutative-square",
    "degree-ledger",
)

_CS = ("calls", "self_s")
_CTS = ("calls", "total_s", "self_s")

#: (span name, defining module, attribute, metrics reported for it)
FUNCTIONS = (
    ("octonion.mul", "octospin.octonion", "mul", _CS + ("max_bits",)),
    ("octonion.right_divide", "octospin.octonion", "right_divide", _CS),
    ("geometry.compose", "octospin.geometry", "compose", _CS + ("max_bits",)),
    ("geometry.apply", "octospin.geometry", "apply", _CS),
    ("geometry.plane_rotation", "octospin.geometry", "plane_rotation", _CS),
    ("geometry.so_check", "octospin.geometry", "so_check", _CS),
    ("geometry.choose_w", "octospin.geometry", "choose_w", _CS),
    ("geometry.mat_eq", "octospin.geometry", "mat_eq", _CS),
    (
        "geometry.random_orthonormal_pair",
        "octospin.geometry",
        "random_orthonormal_pair",
        ("calls", "total_s"),
    ),
    ("spinmaps.f7", "octospin.spinmaps", "f7", _CTS + ("max_bits",)),
    ("spinmaps.basis_b", "octospin.spinmaps", "basis_b", _CTS),
    ("spinmaps.frame_table", "octospin.spinmaps", "frame_table", _CTS),
    ("spinmaps.verify_spin7", "octospin.spinmaps", "verify_spin7", _CTS),
    (
        "spinmaps.project_double_cover",
        "octospin.spinmaps",
        "project_double_cover",
        _CTS,
    ),
    ("spinmaps.triality_check", "octospin.spinmaps", "triality_check", _CTS),
    ("degree.winding_degree", "octospin.degree", "winding_degree", _CS),
    ("degree.circle_samples", "octospin.degree", "circle_samples", _CS),
    ("degree.verify_square", "octospin.degree", "verify_square", _CS),
    (
        "scalar.circle_from_parameter",
        "octospin.scalar",
        "circle_from_parameter",
        _CS,
    ),
) + tuple(
    (f"suites.{s}", "octospin.suites", "suite_" + s.replace("-", "_"), ("total_s",))
    for s in SUITE_NAMES
) + (
    ("suites.render_report", "octospin.suites", "render_report", ("total_s",)),
    ("cli.main", "octospin.cli", "main", ("self_s",)),
)

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "max_bits": "bits"}
OVERHEAD = ("trace_overhead_frac", "fraction")


def metric_units() -> dict:
    """Every per-layer metric name of a traced run, with its unit."""
    out = {
        f"{span}.{field}": UNITS[field]
        for span, _, _, fields in FUNCTIONS
        for field in fields
    }
    out[OVERHEAD[0]] = OVERHEAD[1]
    return out


def _entry_bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _octonion_bits(a) -> int:
    return max(_entry_bits(x) for x in a.coords)


def _matrix_bits(m) -> int:
    return max(_entry_bits(x) for row in m.rows for x in row)


def _octospin_modules() -> list:
    return [
        m
        for n, m in list(sys.modules.items())
        if n == "octospin" or n.startswith("octospin.")
    ]


class Tracer:
    """In-memory span recorder for one process; install, run, uninstall."""

    def __init__(self, exact: bool):
        #: Coefficient heights are recorded on the exact backend only.
        self.exact = exact
        self.request = -1
        self.fn = []
        self.start = []
        self.end = []
        self.parent = []
        self.req = []
        self.bits = []
        self._stack = [-1]
        self._patches = []

    def reset(self) -> None:
        for column in (self.fn, self.start, self.end, self.parent, self.req, self.bits):
            column.clear()

    def install(self) -> None:
        modules = _octospin_modules()
        by_name = {m.__name__: m for m in modules}
        for fid, (span, module, attr, fields) in enumerate(FUNCTIONS):
            original = getattr(by_name[module], attr)
            bits = None
            if self.exact and "max_bits" in fields:
                bits = _octonion_bits if span == "octonion.mul" else _matrix_bits
            wrapper = self._wrap(fid, original, bits)
            for mod in modules:
                for ns in [vars(mod)] + [
                    v for k, v in vars(mod).items()
                    if isinstance(v, dict) and k != "__builtins__"
                ]:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapper
                            self._patches.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fid, fn, bits):
        fns, starts, ends = self.fn, self.start, self.end
        parents, reqs, heights, stack = self.parent, self.req, self.bits, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            fns.append(fid)
            parents.append(stack[-1])
            reqs.append(self.request)
            ends.append(0.0)
            heights.append(-1)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if bits is not None:
                heights[idx] = bits(result)
            return result

        return traced

    def missing(self) -> list:
        """Span names with no recorded call."""
        hit = set(self.fn)
        return [f[0] for fid, f in enumerate(FUNCTIONS) if fid not in hit]

    def not_applicable(self) -> list:
        """Metric names that read 0 only because nothing was measured: the
        function never ran, or heights are not recorded on this backend."""
        hit = set(self.fn)
        out = []
        for fid, (span, _, _, fields) in enumerate(FUNCTIONS):
            for field in fields:
                if fid not in hit or (field == "max_bits" and not self.exact):
                    out.append(f"{span}.{field}")
        return out

    def metrics(self) -> dict:
        """calls, total_s, self_s and max_bits per function, from the spans.

        Self time is a span's duration minus the durations of its child
        spans; calls nest, so the children never overlap.
        """
        n = len(self.end)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        acc = [[0, 0.0, 0.0, 0] for _ in FUNCTIONS]
        for i in range(n):
            a = acc[self.fn[i]]
            a[0] += 1
            a[1] += dur[i]
            a[2] += dur[i] - child[i]
            a[3] = max(a[3], self.bits[i])
        out = {}
        for (span, _, _, fields), (calls, total, own, bits) in zip(FUNCTIONS, acc):
            values = {"calls": calls, "total_s": total, "self_s": own, "max_bits": bits}
            for field in fields:
                out[f"{span}.{field}"] = values[field]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON: function names, then one row per span."""
        rows = [
            [self.fn[i], self.start[i], self.end[i], self.parent[i], self.req[i], self.bits[i]]
            for i in range(len(self.end))
        ]
        doc = {
            "functions": [f[0] for f in FUNCTIONS],
            "columns": ["function", "start", "end", "parent", "request", "max_bits"],
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
