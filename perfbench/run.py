"""Benchmark of the wtdesigns sweeps, run through the CLI entry point in-process.

    python3 perfbench/run.py --workload q2-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's ``src/``; any other copy is refused. One process, no extra
threads: the workload's CLI calls run one after another through
``wtdesigns.cli.main(argv)`` in passes, until ``--seconds`` have passed and
at least the workload's minimum number of passes is done. Every output is
checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics. Their times are scaled to a
reference host speed, measured by a fixed job that runs between the calls
(see ``hostspeed.py``); the unscaled values are printed and recorded too.
``--trace 1`` runs a fixed
number of passes, two of them traced, and reports the per-layer metrics per
traced pass plus the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A
record of the run (environment, metrics, per-layer table) and, when traced,
the spans are written under ``.perfbench_out/`` in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MIN_PASSES = 3
TRACE_ORDER = (False, True, True, False)  # untraced and traced segments, ABBA

# one thread: numpy's BLAS would otherwise start one thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# A fresh process imports the package and does the workload's lazy set-up.
SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import wtdesigns
from wtdesigns import aberration, orthopoly
spec = json.loads(sys.argv[2])
for q in spec["basis"]:
    orthopoly.orthonormal_basis(q)
for k, n, cap in spec["compositions"]:
    aberration.compositions(k, n, cap)
print(wtdesigns.__file__)
"""


def _check_package_path(file):
    expected = (SRC / "wtdesigns" / "__init__.py").resolve()
    if Path(file).resolve() != expected:
        sys.exit(f"perfbench: wtdesigns was imported from {file}, expected {expected}")


def import_package():
    """Import wtdesigns from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import wtdesigns
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import wtdesigns from {SRC}: {exc}")
    _check_package_path(wtdesigns.__file__)
    return wtdesigns


def cli_call(main, argv):
    """Run one CLI call; returns (exit code, stdout, wall seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = main(list(argv))
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def warm(spec):
    """The workload's lazy set-up in this process."""
    from wtdesigns import aberration, orthopoly

    for q in spec["basis"]:
        orthopoly.orthonormal_basis(q)
    for k, n, cap in spec["compositions"]:
        aberration.compositions(k, n, cap)


def fresh_setup_seconds(spec):
    """Wall time of a fresh interpreter that imports the package and warms up."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up process failed: {proc.stderr.strip()}")
    _check_package_path(proc.stdout.strip())
    return elapsed


class Pass:
    def __init__(self):
        self.wall = []
        self.candidates = 0
        self.failures = []
        self.scale = []  # per call, its host-speed scale (hostspeed.py)


def run_pass(main, calls, check, tracer=None, speed=None):
    """One pass over calls; with a HostSpeed, its jobs run between the calls."""
    done = Pass()
    for call in calls:
        if tracer is not None:
            tracer.call_id += 1
        rc, out, elapsed = cli_call(main, call.argv)
        ok, candidates = check(call, rc, out)
        done.wall.append(elapsed)
        done.candidates += candidates
        if not ok:
            done.failures.append(" ".join(call.argv))
        if speed is not None:
            speed.after(elapsed)
    if speed is not None:
        done.scale = speed.scales()
    return done


def perturb(text):
    """Change the last digit of text; with no digit, repeat its last letter."""
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    body = text.rstrip("\n")
    return body + body[-1] + text[len(body):]


def gate_is_live(workload, call):
    """The checker must reject a perturbed copy of a correct output."""
    ok, _ = workload.check(call, 0, perturb(workload.expected(call)))
    return not ok


def percentile(values, pct):
    """The pct-th percentile (integer pct), interpolating between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(count):
    """The highest percentile with at least ten of count samples beyond it.

    The median when no percentile above it has ten beyond it.
    """
    return max((p for p in range(50, 100) if count * (100 - p) >= 1000), default=50)


def environment(wt, seed):
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "package": wt.__file__,
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def scaled_setup_seconds(spec):
    """fresh_setup_seconds, scaled by the host speed around it; also unscaled."""
    speed = HostSpeed()
    elapsed = fresh_setup_seconds(spec)
    speed.after(elapsed)
    return elapsed * speed.scales()[0], elapsed


def end_to_end(passes, setups, scaled):
    """The end-to-end metrics and their notes; times scaled to the reference host or not."""
    walls = [[w * s for w, s in zip(p.wall, p.scale)] if scaled else p.wall for p in passes]
    per_call = [statistics.median(wall[i] for wall in walls) for i in range(len(walls[0]))]
    tail = tail_percentile(len(per_call))
    beyond = len(per_call) * (100 - tail) // 100
    metrics = {
        "candidates_per_s": (statistics.median(
            p.candidates / sum(wall) for p, wall in zip(passes, walls)), "1/s"),
        "call_p50_ms": (percentile(per_call, 50) * 1e3, "ms"),
        "call_tail_ms": (percentile(per_call, tail) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "candidates_per_s": f"median over {len(passes)} passes of candidates / time in cli.main",
        "call_p50_ms": f"median over {len(per_call)} calls of each call's median latency",
        "call_tail_ms": f"p{tail} over {len(per_call)} calls, {beyond} beyond it",
        "setup_s": f"median of {len(setups)} fresh processes",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def timed_run(cli, workload, calls, seconds):
    """Untraced passes; returns (passes, end-to-end metrics, notes, detail).

    Throughput is the median over passes. Each call's latency is its median
    over the passes, so the percentiles describe the inputs, not a burst of
    load from the host. The fresh-process set-ups are spread over the run,
    one after each pass. Every time is scaled by the host speed measured
    right around its own call or set-up (hostspeed.py).
    """
    spec = workload.warm_spec()
    warm(spec)
    passes, setups = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli.main, calls, workload.check, speed=HostSpeed()))
        setups.append(scaled_setup_seconds(spec))
    while len(setups) < SETUP_REPEATS:
        setups.append(scaled_setup_seconds(spec))
    metrics, notes = end_to_end(passes, [s for s, _ in setups], scaled=True)
    for name in ("candidates_per_s", "call_p50_ms", "call_tail_ms", "setup_s"):
        notes[name] += f", scaled to a host where the reference job takes {REFERENCE_S} s"
    unscaled, _ = end_to_end(passes, [u for _, u in setups], scaled=False)
    detail = {"unscaled": {k: v for k, (v, _) in unscaled.items()},
              "pass_scale": [statistics.median(p.scale) for p in passes],
              "pass_wall_s": [sum(p.wall) for p in passes],
              "setup_runs_s": [u for _, u in setups]}
    return passes, metrics, notes, detail


def traced_run(cli, workload, calls):
    """A warm pass, then untraced and traced segments in the order U T T U.

    Each segment clears the package's caches, redoes the lazy set-up and runs
    one pass, so both kinds pay the same set-up. The per-layer metrics are
    per traced segment; the overhead is the traced segments' wall time minus
    the untraced segments'.
    """
    from wtdesigns import aberration, orthopoly

    from spans import NOTES, Tracer

    spec = workload.warm_spec()
    caches = (orthopoly.orthonormal_basis, aberration.compositions)
    warm(spec)
    passes = [run_pass(cli.main, calls, workload.check)]
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    for traced in TRACE_ORDER:
        for cached in caches:
            cached.cache_clear()
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            if traced:
                tracer.wrap("perfbench.setup", warm)(spec)
                check = tracer.wrap("perfbench.check", workload.check)
                passes.append(run_pass(cli.main, calls, check, tracer))
            else:
                warm(spec)
                passes.append(run_pass(cli.main, calls, workload.check))
            wall[traced] += time.perf_counter() - start
        finally:
            tracer.uninstall()

    segments = TRACE_ORDER.count(True)
    metrics = tracer.layer_metrics(segments)
    self_total = sum(tracer.self_time.values()) / segments
    traced, untraced = wall[True] / segments, wall[False] / segments
    metrics.update({
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_ratio": ((traced - untraced) / untraced, "ratio"),
        "trace.self_total_s": (self_total, "s"),
        "trace.unaccounted_s": (traced - self_total, "s"),
        "trace.spans": (len(tracer.spans) // segments, "count"),
    })
    return passes, metrics, NOTES, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="q2-sweep, shift-scan or closure")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wt = import_package()
    from wtdesigns import cli

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    calls = workload.calls(args.seed)
    env = environment(wt, args.seed)
    print(f"perfbench: workload={workload.name} seed={args.seed} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not gate_is_live(workload, calls[0]):
        sys.exit("perfbench: the output check accepted a perturbed output")
    print("gate: a perturbed output was rejected (failed_ratio 1/1 on that output)")

    tracer = None
    record = {"env": env, "workload": workload.name, "trace": args.trace}
    if args.trace:
        passes, metrics, notes, tracer = traced_run(cli, workload, calls)
    else:
        passes, metrics, notes, detail = timed_run(cli, workload, calls, args.seconds)
        record.update(detail)
        print(f"host speed: scale {statistics.median(detail['pass_scale']):.4g} "
              f"(median over calls and passes); unscaled: " + " ".join(
                  f"{k}={v:.6g}" for k, v in detail["unscaled"].items()))

    attempted = sum(len(p.wall) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"passes={len(passes)} calls={attempted} candidates={sum(p.candidates for p in passes)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:.6g} {unit}{note}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for failure in failures[:10]:
        print(f"FAILED: {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        print(f"{'span':32s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        table = tracer.table(TRACE_ORDER.count(True))
        for name, n, total, own in table:
            print(f"{name:32s} {n:9d} {total:10.4f} {own:10.4f}")
        record["spans"] = [list(row) for row in table]
        tracer.write(stem.with_suffix(".spans.jsonl"))
    record.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "attempted": attempted,
        "failures": failures,
    })
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
