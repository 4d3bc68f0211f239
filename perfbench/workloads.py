"""The three benchmark workloads: inputs drawn from a seed, and output checks.

Each workload is a list of CLI calls (one pass) that the runner repeats. A
workload also names the lazy set-up it needs (orthonormal bases and
composition tables), which the runner times in fresh processes as
``setup_s``.

Every call is checked against reference outputs recorded by ``record.py``
from the same program: stdout must match byte for byte. ``q2-sweep`` is also
checked against the published ``q2-49run`` golden table.
"""

import itertools
import json
import random
from collections import namedtuple
from pathlib import Path

from wtdesigns.catalog import GOLDEN_TABLES

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FAMILIES = ("linear", "williams")


def reduced_generator_sets(q, n):
    """Every reduced generator set of the q^2-run, n-column cell, as CLI text.

    Dependent column i is (c_i, c_i * s_i mod q): the slopes s_i are distinct
    values in 1..q-1 in ascending order and the scales c_i lie in
    1..(q-1)/2. This is the space that ``searchq2`` and ``count`` sweep.
    """
    half = (q - 1) // 2
    return [
        ";".join(f"{c},{c * s % q}" for c, s in zip(scales, slopes))
        for slopes in itertools.combinations(range(1, q), n - 2)
        for scales in itertools.product(range(1, half + 1), repeat=n - 2)
    ]


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _printed_match(value, printed):
    """True when value rounds to the printed golden string."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return abs(value - float(printed)) <= 0.5 * 10.0**-decimals + 1e-9


# argv: the CLI arguments; key: where the reference output is stored
Call = namedtuple("Call", "argv key")


class Q2Sweep:
    """``searchq2 --q 7 --n N --json`` for N = 3..8: the q2-49run cells.

    The seed only permutes the cell order; every pass runs all six cells.
    """

    name = "q2-sweep"
    q = 7
    ns = tuple(range(3, 9))

    def __init__(self):
        self.outputs = load_reference(self.name)["outputs"]
        self.golden = GOLDEN_TABLES["q2-49run"]["rows"]

    def warm_spec(self):
        comps = [(k, n, self.q - 1) for n in self.ns for k in (3, 4)]
        return {"basis": [self.q], "compositions": comps}

    @classmethod
    def argv(cls, n):
        return ("searchq2", "--q", str(cls.q), "--n", str(n), "--json")

    def calls(self, seed):
        ns = list(self.ns)
        random.Random(f"{self.name}/{seed}").shuffle(ns)
        return [Call(self.argv(n), str(n)) for n in ns]

    def expected(self, call):
        return self.outputs[call.key]

    def check(self, call, rc, out):
        """(output correct, candidates evaluated) for one call."""
        try:
            report = json.loads(out)
            fams = [report[f] for f in FAMILIES]
            candidates = sum(int(f["evaluations"]) for f in fams)
            betas = [(float(f["beta"][0]), float(f["beta"][1])) for f in fams]
        except (ValueError, KeyError, TypeError, IndexError):
            return False, 0
        row = self.golden[int(call.key)]
        ok = rc == 0 and out == self.outputs[call.key]
        for fam, (b3, b4) in zip(FAMILIES, betas):
            ok = ok and abs(b3) <= 1e-9 and _printed_match(b4, row[fam])
        return ok, candidates


class ShiftScan:
    """``search --json --force`` for both families on seeded generator sets.

    Per pass the seed draws ``count`` sets per cell from the recorded pool
    of the cell, and each set is searched in both families. The direct
    cells (q^m <= 2048) build a full pattern per shift vector; the grid
    cells prune with ``shift_grid_beta``. The two halves take about the
    same time.

    The grid cells are the ones where the grid tables, not the final full
    patterns of the survivors, take most of a call: q=7 and q=11 with six
    dependent columns. At q=11 n<=7 and at q=13 one full pattern of a
    121- or 169-run design costs several times the tables.
    """

    name = "shift-scan"
    # (q, n, sets per pass)
    direct_cells = ((5, 5, 4), (5, 6, 1))
    grid_cells = ((7, 8, 10), (11, 8, 1))

    def __init__(self):
        ref = load_reference(self.name)
        self.pool = ref["pool"]
        self.outputs = ref["outputs"]

    @classmethod
    def cells(cls):
        return cls.direct_cells + cls.grid_cells

    def warm_spec(self):
        qs = sorted({q for q, _, _ in self.cells()})
        # the grid path prunes at degrees 1..3 before the winner is decided
        comps = [(k, n, q - 1) for q, n, _ in self.grid_cells for k in (1, 2, 3)]
        return {"basis": qs, "compositions": comps}

    @staticmethod
    def key(q, n, family, gens):
        return f"{q}|{n}|{family}|{gens}"

    @staticmethod
    def argv(q, gens, family):
        return ("search", "--q", str(q), "--generators", gens, "--family", family,
                "--json", "--force")

    def calls(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for q, n, count in self.cells():
            for gens in rng.sample(self.pool[f"{q},{n}"], count):
                for family in FAMILIES:
                    out.append(Call(self.argv(q, gens, family), self.key(q, n, family, gens)))
        rng.shuffle(out)
        return out

    def expected(self, call):
        return self.outputs[call.key]

    def check(self, call, rc, out):
        try:
            candidates = int(json.loads(out)["evaluations"])
        except (ValueError, KeyError, TypeError):
            return False, 0
        return rc == 0 and out == self.outputs[call.key], candidates


class Closure:
    """``classify --q Q --generators G`` on a seeded sample of generator sets.

    The sample is stratified: ``per_cell`` sets from each cell. No aliasing
    measure is computed, so this is the control workload for changes to the
    aberration, optimal and designs layers.
    """

    name = "closure"
    cells = ((7, 5), (7, 6), (7, 7), (7, 8), (11, 4), (11, 5))
    per_cell = 150

    def __init__(self):
        ref = load_reference(self.name)
        self.stdout_of = {code: f"{label}\n" for label, code in ref["codes"].items()}
        self.verdicts = ref["cells"]
        self.spaces = {f"{q},{n}": reduced_generator_sets(q, n) for q, n in self.cells}

    @staticmethod
    def argv(q, gens):
        return ("classify", "--q", str(q), "--generators", gens)

    def warm_spec(self):
        # classify computes no aliasing measure: no basis, no compositions
        return {"basis": [], "compositions": []}

    def calls(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for q, n in self.cells:
            space = self.spaces[f"{q},{n}"]
            for i in rng.sample(range(len(space)), self.per_cell):
                out.append(Call(self.argv(q, space[i]), (f"{q},{n}", i)))
        rng.shuffle(out)
        return out

    def expected(self, call):
        cell, i = call.key
        return self.stdout_of[self.verdicts[cell][i]]

    def check(self, call, rc, out):
        return rc == 0 and out == self.expected(call), 1


WORKLOADS = {w.name: w for w in (Q2Sweep, ShiftScan, Closure)}
