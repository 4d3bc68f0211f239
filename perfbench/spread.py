"""Run the benchmark over a seed range twice and check that the runs agree.

    python3 perfbench/spread.py --seeds 1-10 [--trace-seed 1] [--out FILE]

For every workload in ``BENCHMARK.json``, runs ``run.py --trace 0`` for
``run_seconds`` once per seed, one run at a time, and then the whole seed
range again. For each set and end-to-end metric it prints the median,
quartiles and spread: the distance between the first and third quartile
(``statistics.quantiles``, n=4) as a share of the median. It also prints how
much worse the second set's median is than the first's, as a share of the
first. Both must stay within the metric's bound. With ``--trace-seed`` it
also makes one traced run per workload and keeps its per-layer metrics and
span table. ``--out`` writes everything as JSON; ``baseline.json`` was made
this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT

SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"spread: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs, metrics):
    summary = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "values": values}
    return summary


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    report = {
        "about": "end_to_end: per set, one --trace 0 run per seed and workload, with the "
                 "median, quartiles and spread ((q3 - q1) / median) of each metric; "
                 "second_worse is how much worse the second set's median is than the "
                 "first's, as a share of the first. per_layer: one --trace 1 run per "
                 "workload, per traced pass, with the span table.",
        "seeds": parse_seeds(args.seeds), "seconds": seconds, "workloads": {},
    }
    runs = {w: [] for w in workloads}
    for s in range(SETS):
        for workload in workloads:
            runs[workload].append([])
            for seed in report["seeds"]:
                result = run_once(workload, seed, seconds, 0)
                runs[workload][s].append(result)
                print(f"set {s + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)

    ok = True
    for workload in workloads:
        sets = [summarise(r, metrics) for r in runs[workload]]
        second_worse = {}
        print(workload)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first, second = sets[0][name]["median"], sets[-1][name]["median"]
            worse = (first - second if m["better"] == "higher" else second - first) / first
            second_worse[name] = worse
            spreads = [st[name]["spread"] for st in sets]
            within = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok = ok and within
            print(f"  {name:18s} medians " + " ".join(f"{st[name]['median']:.6g}" for st in sets)
                  + "  spreads " + " ".join(f"{x:.4f}" for x in spreads)
                  + f"  second_worse {worse:+.4f}  bound {bound}  {'ok' if within else 'OUT'}",
                  flush=True)
        flat = [r for rs in runs[workload] for r in rs]
        entry = {"sets": sets,
                 "second_worse": second_worse,
                 "all_correct": all(r["correct"] for r in flat),
                 "failed": sum(r["failed"] for r in flat),
                 "attempted": sum(r["attempted"] for r in flat)}
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            record = json.loads((OUT_DIR / f"{workload}-seed{args.trace_seed}-trace1.json").read_text())
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "metrics": traced["metrics"],
                "table": {"columns": ["span", "calls", "total_s", "self_s"], "rows": record["spans"]},
                "notes": record["notes"],
            }
        report["workloads"][workload] = entry
    first = f"{workloads[0]}-seed{report['seeds'][0]}-trace0.json"
    report["env"] = json.loads((OUT_DIR / first).read_text())["env"]
    report["env"]["package"] = str(Path(report["env"]["package"]).relative_to(ROOT))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("all within bounds" if ok else "some metric is out of its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
