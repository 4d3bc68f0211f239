"""Command-line interface.

Exit codes: 0 success (or verification pass), 1 usage error, 2 invalid
mathematical input, 3 internal failure, 4 verification or reproduction
mismatch. All printed values are deterministic for a given flag set.
"""

import argparse
import json
import sys

from .aberration import beta_k, beta_pattern
from .catalog import TABLE_IDS, reproduce
from .designs import (
    Design,
    GeneratorSet,
    linear_permute,
    load_design,
    save_design,
    strength,
    williams,
)
from .errors import CapExceededError, InputError
from .fieldmath import check_odd_prime
from .models import estimate_variances, info_matrix_csv, information_matrix
from .optimal import SEARCH_CAP, search_q2, search_shifts, verify_theorem
from .orthopoly import orthonormal_basis
from .recursion import classify, count_recursive

CLI_SCAN_LIMIT = 100_000  # larger shift scans need --force

USAGE_EXIT = 1
INPUT_EXIT = 2
INTERNAL_EXIT = 3
MISMATCH_EXIT = 4


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def parse_generator_text(text: str, q: int) -> GeneratorSet:
    """Parse 'c11,c12;c21,c22;...' into a generator set."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(v) for v in chunk.split(",")])
        except ValueError as exc:
            raise InputError(f"malformed generator row {chunk!r}") from exc
    if not rows:
        raise InputError("empty generator specification")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError("generator rows must all have the same width")
    return GeneratorSet(q, rows)


def _design_from_args(args) -> Design:
    if getattr(args, "design", None):
        return load_design(args.design)
    if args.q is None or args.generators is None:
        raise InputError("provide either --design or both --q and --generators")
    gen = parse_generator_text(args.generators, check_odd_prime(args.q))
    b = [0] * gen.m
    if getattr(args, "b", None):
        b = [int(v) for v in args.b.split(",")]
    design = linear_permute(gen, b)
    if getattr(args, "williams", False):
        design = williams(design)
    return design


def cmd_construct(args) -> int:
    gen = parse_generator_text(args.generators, check_odd_prime(args.q))
    b = [int(v) for v in args.b.split(",")] if args.b else [0] * gen.m
    design = linear_permute(gen, b)
    if args.williams:
        design = williams(design)
    save_design(design, args.out)
    basis = orthonormal_basis(design.q)
    print(f"N={design.runs} n={design.n_factors} strength={strength(design, 3)}")
    print(
        f"beta3={beta_k(design, 3, basis):.4f} beta4={beta_k(design, 4, basis):.4f}"
    )
    print(f"written to {args.out}")
    return 0


def cmd_beta(args) -> int:
    design = _design_from_args(args)
    K = design.n_factors * (design.q - 1)
    k_max = args.kmax if args.kmax else K
    if not 1 <= k_max <= K:
        print(f"error: --kmax must lie in 1..{K}", file=sys.stderr)
        return USAGE_EXIT
    pattern = beta_pattern(design, k_max)
    if args.json:
        print(json.dumps({"q": design.q, "n": design.n_factors, "beta": list(pattern.values)}))
    else:
        print(" ".join(f"{v:.4f}" for v in pattern.values))
    return 0


def cmd_search(args) -> int:
    gen = parse_generator_text(args.generators, check_odd_prime(args.q))
    total = gen.q**gen.m
    if total > CLI_SCAN_LIMIT and not args.force:
        raise CapExceededError(
            f"shift space has {total} candidates; rerun with --force to scan it"
        )
    report = search_shifts(gen, args.family, k_max=args.kmax, cap=SEARCH_CAP)
    if args.json:
        print(json.dumps(report.to_json_dict(gen.q, gen.n)))
    else:
        print(f"family={report.family} evaluated={report.evaluations}")
        print(f"best b: {','.join(str(v) for v in report.b)}")
        print(
            f"beta3={report.pattern[2]:.4f} beta4={report.pattern[3]:.4f}"
            if len(report.pattern) >= 4
            else f"pattern={report.pattern}"
        )
        print(f"ties: {len(report.ties)} (decided at k={report.decided_k})")
    return 0


def cmd_classify(args) -> int:
    gen = parse_generator_text(args.generators, check_odd_prime(args.q))
    print(classify(gen).value)
    return 0


def cmd_count(args) -> int:
    c1, c2, c3 = count_recursive(check_odd_prime(args.q), args.n)
    print(f"typeI:   {c1}")
    print(f"typeII:  {c2}")
    print(f"typeIII: {c3}")
    return 0


def cmd_searchq2(args) -> int:
    report = search_q2(check_odd_prime(args.q), args.n)
    if args.json:
        print(json.dumps(report.to_json_dict()))
        return 0
    print(
        f"standard: beta3={report.standard_beta3:.4f} beta4={report.standard_beta4:.4f}"
    )
    for fam in (report.linear, report.williams):
        gens = " ".join(f"({c1},{c2})" for c1, c2 in fam.generators)
        print(
            f"best {fam.family}: {gens}  b={fam.b}  "
            f"beta3={fam.beta3:.4f} beta4={fam.beta4:.4f}  ties={len(fam.ties)}"
        )
    return 0


def cmd_model(args) -> int:
    design = _design_from_args(args)
    info = information_matrix(design)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(info_matrix_csv(info))
        print(f"written {args.csv}")
    print("information matrix (3 decimals):")
    for row in info.matrix:
        print("  " + " ".join(f"{v:6.3f}" for v in row))
    print("variance factors:")
    for label, v in estimate_variances(design):
        print(f"  {label:10s} {v:.3f}")
    return 0


def cmd_reproduce(args) -> int:
    report = reproduce(args.table)
    print(report.text, end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.text)
    return 0 if report.ok else MISMATCH_EXIT


def cmd_verify(args) -> int:
    q = check_odd_prime(args.q)
    nmax = args.nmax if args.nmax else (q + 1 if q <= 7 else 5)
    if not 3 <= nmax <= q + 1:
        print(f"error: --nmax must lie in 3..{q + 1}", file=sys.stderr)
        return USAGE_EXIT
    failures = verify_theorem(args.theorem, q, nmax)
    label = {
        1: "closed-form shift zeroes the degree-3 measure",
        2: "unique zero shift for type-II designs",
        4: "mirror symmetry at the closed-form shift",
    }[args.theorem]
    if failures:
        print(f"FAIL ({label}, q={q}, n<={nmax}):")
        for f in failures[:20]:
            print("  " + f)
        return MISMATCH_EXIT
    print(f"PASS ({label}, q={q}, n<={nmax})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wtdesigns", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_design_flags(p, need_out=False):
        p.add_argument("--q", type=int, help="level count (odd prime)")
        p.add_argument("--generators", help="'c11,c12;c21,c22;...' rows of coefficients")
        p.add_argument("--b", help="comma-separated shift vector, default zeros")
        p.add_argument("--williams", action="store_true", help="apply the Williams transformation")
        if need_out:
            p.add_argument("--out", required=True, help="output design file")

    p = sub.add_parser("construct", help="build a design and write it to a file")
    add_common_design_flags(p, need_out=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("beta", help="print the aliasing pattern of a design")
    p.add_argument("--design", help="design file to read")
    add_common_design_flags(p)
    p.add_argument("--kmax", type=int, help="highest degree to print")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("search", help="exhaustive best-shift search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--generators", required=True)
    p.add_argument("--family", choices=("linear", "williams"), required=True)
    p.add_argument("--kmax", type=int)
    p.add_argument("--force", action="store_true", help="allow large scans")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("classify", help="recursive-type classification")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--generators", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count", help="recursive-design counts over the reduced space")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("searchq2", help="generator-space search for q^2-run designs")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_searchq2)

    p = sub.add_parser("model", help="second-order model diagnostics")
    p.add_argument("--design", help="design file to read")
    add_common_design_flags(p)
    p.add_argument("--csv", help="write the full-precision information matrix as CSV")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("reproduce", help="recompute a golden table and check it")
    p.add_argument("--table", required=True, choices=TABLE_IDS)
    p.add_argument("--csv", help="also write the rendered table to a file")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", help="check a structural guarantee exhaustively")
    p.add_argument("--theorem", type=int, choices=(1, 2, 4), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--nmax", type=int, help="largest column count to cover")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except Exception as exc:  # noqa: BLE001 - contract maps these to exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
