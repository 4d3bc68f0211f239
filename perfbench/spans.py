"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` wraps each traced function and rebinds every name in the
``wtdesigns`` modules that refers to it (``optimal.beta_k``,
``designs.expand``, ...), so calls between modules go through the wrapper.
Each call records a span (name, start, end, parent span, CLI call id) in
memory; ``write`` saves them at the end. Self time is a span's duration
minus the durations of its direct children.
"""

import json
import sys
import time
from collections import Counter, defaultdict

from wtdesigns.aberration import compositions


def _count_beta_k(tracer, design, k, basis=None):
    # exponent vectors x runs x columns, the work of the enumeration
    N, n = design.rows.shape
    tracer.counts["aberration.beta_k.terms"] += len(compositions(k, n, design.q - 1)) * N * n


# search_shifts builds a full pattern for every shift vector when the shift
# space has at most this many; larger spaces take the grid path
DIRECT_LIMIT = 2048


def _count_pattern(tracer, design, *args, **kwargs):
    # row pairs x columns x kernel degrees x pattern length, the pair identity
    N, n = design.rows.shape
    q = design.q
    tracer.counts["aberration.beta_pattern.pair_terms"] += N * N * n * q * n * (q - 1)
    if tracer.active["optimal.search_shifts"]:
        tracer.counts["pending.full_patterns"] += 1


def _count_scanned(tracer, gen, *args, **kwargs):
    # runs when search_shifts returns: its full patterns count on the direct path only
    full = tracer.counts.pop("pending.full_patterns", 0)
    if gen.q**gen.m <= DIRECT_LIMIT:
        tracer.counts["optimal.search_shifts.full_patterns"] += full
        tracer.counts["optimal.search_shifts.scanned"] += gen.q**gen.m


# (module, attribute, span name, count hook). "Design.__init__" is a method.
TARGETS = (
    ("fieldmath", "check_odd_prime", "fieldmath.check_odd_prime", None),
    ("fieldmath", "rank_mod", "fieldmath.rank_mod", None),
    ("orthopoly", "orthonormal_basis", "orthopoly.orthonormal_basis", None),
    ("designs", "Design.__init__", "designs.design_init", None),
    ("designs", "expand", "designs.expand", None),
    ("designs", "linear_permute", "designs.linear_permute", None),
    ("designs", "williams", "designs.williams", None),
    ("optimal", "build_design", "optimal.build_design", None),
    ("aberration", "beta_k", "aberration.beta_k", _count_beta_k),
    ("aberration", "beta_pattern", "aberration.beta_pattern", _count_pattern),
    ("aberration", "beta_sum_check", "aberration.beta_pattern", _count_pattern),
    ("optimal", "shift_grid_beta", "optimal.shift_grid_beta", None),
    ("optimal", "search_shifts", "optimal.search_shifts", _count_scanned),
    ("optimal", "search_q2", "optimal.search_q2", None),
    ("recursion", "classify", "recursion.classify", None),
    ("cli", "main", "cli.main", None),
)

# spans whose self time makes up designs.build.self_s
BUILD_SPANS = (
    "optimal.build_design",
    "designs.linear_permute",
    "designs.williams",
    "designs.expand",
)

NOTES = {
    "designs.build.self_s": "self time of build_design, linear_permute, williams and expand",
    "aberration.beta_k.terms": "computed: exponent vectors x runs x columns, summed over calls",
    "aberration.beta_k.ns_per_term": "self_s / terms",
    "aberration.beta_pattern.pair_terms": "computed: N^2 * n * q * K per call, K = n(q-1)",
    "aberration.beta_pattern.ns_per_term": "self_s / pair_terms",
    "optimal.search_shifts.full_patterns": "full patterns built by direct-path searches (q^m <= 2048)",
    "optimal.search_shifts.scanned": "shift vectors of direct-path searches (q^m <= 2048)",
    "optimal.full_pattern_ratio": "full_patterns / scanned, direct path only",
    "trace.overhead_ratio": "overhead_s / untraced_wall_s",
    "trace.unaccounted_s": "wall_s - self_total_s: the benchmark loop outside any span",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, call id)
        self.stack = []  # [span index, time covered by child spans]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self.call_id = 0
        self._undo = []

    def wrap(self, name, fn, count=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                spans[idx] = (name, start, end, parent, self.call_id)
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if count is not None:
                    count(self, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target and rebind each package name that refers to it."""
        package = [m for k, m in sys.modules.items() if k == "wtdesigns" or k.startswith("wtdesigns.")]
        for modname, attr, name, count in TARGETS:
            owner = sys.modules[f"wtdesigns.{modname}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, count)
            self._rebind(owner, attr, orig, traced)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, traced)

    def _rebind(self, owner, attr, orig, traced):
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path):
        """Write the spans as JSON lines, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, call_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "call": call_id}) + "\n")

    def table(self, segments=1):
        """Rows (name, calls, total_s, self_s) per segment for every span name."""
        return [(n, self.calls[n] // segments, self.total[n] / segments,
                 self.self_time[n] / segments) for n in sorted(self.calls)]

    def layer_metrics(self, segments=1):
        """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit).

        Counts and times are per segment: the traced run repeats the same
        pass ``segments`` times.
        """
        calls = Counter({n: c // segments for n, c in self.calls.items()})
        self_s = defaultdict(float, {n: t / segments for n, t in self.self_time.items()})
        counts = Counter({n: c // segments for n, c in self.counts.items()})
        out = {}
        for name in ("fieldmath.check_odd_prime", "fieldmath.rank_mod",
                     "orthopoly.orthonormal_basis", "designs.design_init",
                     "aberration.beta_k", "aberration.beta_pattern",
                     "optimal.shift_grid_beta", "optimal.search_shifts",
                     "optimal.search_q2", "recursion.classify", "cli.main"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["designs.expand.calls"] = (calls["designs.expand"], "count")
        out["designs.build.self_s"] = (sum(self_s[n] for n in BUILD_SPANS), "s")
        for name, terms in (("aberration.beta_k", "terms"), ("aberration.beta_pattern", "pair_terms")):
            n_terms = counts[f"{name}.{terms}"]
            out[f"{name}.{terms}"] = (n_terms, "count")
            out[f"{name}.ns_per_term"] = (self_s[name] / n_terms * 1e9 if n_terms else 0.0, "ns")
        full = counts["optimal.search_shifts.full_patterns"]
        scanned = counts["optimal.search_shifts.scanned"]
        out["optimal.search_shifts.full_patterns"] = (full, "count")
        out["optimal.search_shifts.scanned"] = (scanned, "count")
        out["optimal.full_pattern_ratio"] = (full / scanned if scanned else 0.0, "ratio")
        return out
