"""Record the reference outputs that the benchmark checks every call against.

    python3 perfbench/record.py

Writes ``perfbench/reference/{q2-sweep,shift-scan,closure}.json`` from the
program in this checkout. Run it only to re-baseline on purpose: the
benchmark treats these files as the correct outputs, byte for byte.

- ``q2-sweep``: stdout of ``searchq2 --q 7 --n N --json`` for N = 3..8.
- ``shift-scan``: a pool of up to ``POOL`` generator sets per cell, drawn
  once with a fixed seed, and the stdout of ``search`` for each set and
  family. The benchmark's seed draws from this pool.
- ``closure``: the ``classify`` verdict of every reduced generator set of
  each cell, one character per set in ``reduced_generator_sets`` order.
"""

import json
import random

from run import BENCH_DIR, cli_call, import_package

POOL = 16


def _write(name, data):
    path = BENCH_DIR / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _stdout(main, argv):
    rc, out, _ = cli_call(main, argv)
    if rc != 0:
        raise SystemExit(f"record: {' '.join(argv)} exited {rc}")
    return out


def main():
    import_package()
    from wtdesigns import cli

    from workloads import FAMILIES, Closure, Q2Sweep, ShiftScan, reduced_generator_sets

    _write(Q2Sweep.name, {"outputs": {
        str(n): _stdout(cli.main, Q2Sweep.argv(n)) for n in Q2Sweep.ns
    }})

    rng = random.Random("shift-scan-pool")
    pool, outputs = {}, {}
    for q, n, _ in ShiftScan.cells():
        space = reduced_generator_sets(q, n)
        pool[f"{q},{n}"] = rng.sample(space, min(POOL, len(space)))
        for gens in pool[f"{q},{n}"]:
            for family in FAMILIES:
                outputs[ShiftScan.key(q, n, family, gens)] = _stdout(
                    cli.main, ShiftScan.argv(q, gens, family))
    _write(ShiftScan.name, {"pool": pool, "outputs": outputs})

    codes = {"TypeI": "1", "TypeII": "2", "TypeIII": "3", "NotRecursive": "N"}
    cells = {}
    for q, n in Closure.cells:
        cells[f"{q},{n}"] = "".join(
            codes[_stdout(cli.main, Closure.argv(q, g)).strip()]
            for g in reduced_generator_sets(q, n)
        )
    _write(Closure.name, {"codes": codes, "cells": cells})


if __name__ == "__main__":
    main()
