"""Command-line front end.

Verbs: charpoly, snf, nullity, bound, solve, counts, sweep, verify.
Whenever the elimination oracle fits under the size cap, both the formula
value and the oracle value are reported with a match flag; disagreement is
an invariant violation and exits 1.  Usage errors (unknown flags, flags the
verb does not read, malformed graph specs, unreadable or non-UTF-8 files, a
non-prime --p, a negative --max-oracle, an unwritable --csv path) exit 2.
Any other exception is an internal fault and exits 3.  An operator larger
than --max-oracle is never built: its row is marked ``skipped`` in every verb.
Each distinct factor graph is summarized (switching matrix, invariant
factors, characteristic polynomial) once per invocation, so a sweep over
n x n pairs computes n Smith forms in open mode and 2n in closed, not 2n^2.

Reports render as an aligned text table by default, as JSON with --json
(schema documented in docs/report_schema.json, versioned ``schema: 1``),
and additionally as CSV with --csv PATH.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from typing import Sequence

from lightsout import formulas, game, gfmat, snf
from lightsout.game import Graph, GraphParseError
from lightsout.gfmat import PrimeFieldMatrix
from lightsout.gfpoly import Poly, check_prime, shift_one

SCHEMA_VERSION = 1

RANDOM_PAIR_COUNT = 500
RANDOM_MAX_VERTICES = 8
LEMMA_TRIALS = 10_000
LEMMA_MAX_TOTAL = 12


@dataclass
class Report:
    """Result of one CLI invocation; serializes to the documented JSON schema."""

    command: str
    seed: int | None = None
    results: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "results": self.results,
            "violations": self.violations,
            "notes": self.notes,
        }


# -- output ----------------------------------------------------------------


def _format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no results)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[str(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    head = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = ("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells)
    return "\n".join([head, sep, *body])


def _emit(report: Report, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(_format_table(report.results))
        for note in report.notes:
            print(f"note: {note}")
        for v in report.violations:
            print(f"violation: {v}")


def _write_csv(path: str, rows: list[dict]) -> None:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if columns:
            writer.writerow(columns)
        for row in rows:
            writer.writerow([str(row.get(c, "")) for c in columns])


# -- shared computation ------------------------------------------------------


def _oracle(A, B, cap: int, compute=None):
    """compute(A, B) for the A-by-B product operator, or "skipped" over the cap.

    compute defaults to the elimination oracle, formulas.oracle_nullity.
    Every verb that builds a product operator comes through here, so an
    operator larger than --max-oracle is skipped the same way everywhere.
    """
    if A.rows * B.rows > cap:
        return "skipped"
    if compute is None:
        return formulas.oracle_nullity(A, B, max_dim=cap)
    return compute(A, B)


#: A factor graph's (switching matrix, invariant factors, characteristic
#: polynomial): all a comparison row needs of it.
FactorSummary = tuple[PrimeFieldMatrix, snf.SnfResult, Poly]


def _factor(memo: dict, g: Graph, mode: str, p: int) -> FactorSummary:
    """The FactorSummary of g in ``mode`` over GF(p), computed once per memo.

    memo is keyed by (Graph, mode, p) and lives for one handler call, so
    each distinct factor of a sweep is summarized once per invocation.
    """
    key = (g, mode, p)
    if key not in memo:
        M = game.switching_matrix(g, mode, p)
        s = snf.invariant_factors(M)
        memo[key] = (M, s, snf.charpoly_from_snf(s, p))
    return memo[key]


def _product_row(
    gspec: str,
    hspec: str,
    fa: FactorSummary,
    fb: FactorSummary,
    mode: str,
    p: int,
    cap: int,
    extra: dict | None = None,
    charpolys: bool = False,
) -> dict:
    """One formula/oracle/bound comparison row for a product operator.

    fa summarizes the first factor in ``mode`` and fb the second in open
    mode.  Closed mode shifts the first matrix to A + I; over GF(2) that is
    exactly the closed-switching matrix of the product graph.  The bound is
    deg gcd(c_A, c_B) of the two matrices compared, with both characteristic
    polynomials read off their invariant factors.  With ``charpolys`` the
    row also carries the open-mode polynomials of both factors:
    c_A(x) = c_{A+I}(x + 1) over every GF(p).
    """
    A, sa, ca = fa
    B, sb, cb = fb
    value = formulas.nullity_snf_product(sa, sb)
    bound = formulas.gcd_lower_bound(ca, cb)
    oracle = _oracle(A, B, cap)

    row = dict(extra or {})
    row.update(
        g=gspec,
        h=hspec,
        mode=mode,
        p=p,
        operator_size=A.rows * B.rows,
        nullity_formula=value,
        lower_bound=bound,
        nullity_oracle=oracle,
    )
    if oracle == "skipped":
        row["oracle_match"] = "skipped"
        row["bound_holds"] = "ok" if bound <= value else "violated"
    else:
        row["oracle_match"] = "ok" if oracle == value else "mismatch"
        row["bound_holds"] = "ok" if bound <= oracle else "violated"
    if charpolys:
        row["charpoly_g"] = str(shift_one(ca) if mode == "closed" else ca)
        row["charpoly_h"] = str(cb)
    return row


def _note_skipped(report: Report, column: str) -> None:
    skipped = sum(1 for r in report.results if r.get(column) == "skipped")
    if skipped:
        report.notes.append(f"{skipped} rows exceeded the oracle cap and were skipped")


def _collect_row_violations(row: dict, violations: list[dict]) -> None:
    if row.get("oracle_match") == "mismatch" or row.get("bound_holds") == "violated":
        violations.append(dict(row))


def _presses_string(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


# -- handlers ----------------------------------------------------------------


def _cmd_charpoly(args) -> tuple[int, Report]:
    report = Report(command=args.command_echo)
    g = game.build_family(args.g)
    M, _, via_snf = _factor({}, g, args.mode, args.p)
    via_oracle = snf.charpoly_oracle(M, args.p)
    match = via_snf == via_oracle
    report.results.append(
        {
            "g": args.g,
            "mode": args.mode,
            "p": args.p,
            "n": g.vertex_count,
            "charpoly_snf": str(via_snf),
            "charpoly_oracle": str(via_oracle),
            "match": "ok" if match else "mismatch",
        }
    )
    if not match:
        report.violations.append(dict(report.results[0]))
    return (0 if match else 1), report


def _cmd_snf(args) -> tuple[int, Report]:
    report = Report(command=args.command_echo)
    g = game.build_family(args.g)
    _, s, c = _factor({}, g, args.mode, args.p)
    report.results.append(
        {
            "g": args.g,
            "mode": args.mode,
            "p": args.p,
            "n": g.vertex_count,
            "invariant_factors": str(s),
            "charpoly": str(c),
        }
    )
    return 0, report


def _cmd_nullity(args, charpolys: bool = False) -> tuple[int, Report]:
    report = Report(command=args.command_echo)
    memo: dict = {}
    fa = _factor(memo, game.build_family(args.g), args.mode, args.p)
    fb = _factor(memo, game.build_family(args.h), "open", args.p)
    row = _product_row(
        args.g, args.h, fa, fb, args.mode, args.p, args.max_oracle, charpolys=charpolys
    )
    report.results.append(row)
    _collect_row_violations(row, report.violations)
    return (1 if report.violations else 0), report


def _cmd_bound(args) -> tuple[int, Report]:
    return _cmd_nullity(args, charpolys=True)


def _cmd_counts(args) -> tuple[int, Report]:
    report = Report(command=args.command_echo)
    g = game.build_family(args.g)
    r, nu = game.count_exponents(g, args.mode)
    report.results.append(
        {"g": args.g, "mode": args.mode, "n": g.vertex_count, "r": r, "nu": nu}
    )
    report.notes.append(
        f"2^{r} solvable configurations, 2^{nu} press sets for each"
    )
    return 0, report


def _cmd_solve(args) -> tuple[int, Report]:
    report = Report(command=args.command_echo)
    g = game.build_family(args.g)
    if args.h is None:
        inst = game.LightsInstance(g, args.mode, (1,) * g.vertex_count)
        sol = game.solve_presses(inst)
        row = {
            "g": args.g,
            "mode": args.mode,
            "n": g.vertex_count,
            "config": "all-on",
            "solvable": "yes" if sol else "no",
            "presses": _presses_string(sol.presses) if sol else "-",
            "solution_exponent": sol.count_exponent if sol else "-",
        }
        report.results.append(row)
        return 0, report
    h = game.build_family(args.h)
    A = game.switching_matrix(g, args.mode)
    B = game.switching_matrix(h, "open")
    m, n = g.vertex_count, h.vertex_count
    # all-on; with no rows, only zeros(0, n) keeps the n columns
    C = gfmat.PrimeFieldMatrix([[1] * n] * m, 2) if m else gfmat.PrimeFieldMatrix.zeros(0, n, 2)

    def solve_and_nullity(A, B):
        nu = gfmat.rank_nullity(gfmat.sylvester_operator(A, B)).nullity
        return game.sylvester_solve(A, B, C), nu

    solved = _oracle(A, B, args.max_oracle, solve_and_nullity)
    row = {"g": args.g, "h": args.h, "mode": args.mode, "m": m, "n": n, "config": "all-on"}
    if solved == "skipped":
        row.update(solvable="skipped", presses="skipped", solution_exponent="skipped")
    else:
        X, nu = solved
        row.update(
            solvable="yes" if X is not None else "no",
            presses="/".join(_presses_string(X.row(i)) for i in range(m))
            if X is not None
            else "-",
            solution_exponent=nu if X is not None else "-",
        )
    report.results.append(row)
    return 0, report


def _parse_range(arg: str, default: tuple[int, int], what: str) -> tuple[int, int]:
    if not arg:
        return default
    lo, dash, hi = arg.partition("-")
    if not dash or not lo.isdigit() or not hi.isdigit():
        raise GraphParseError(f"malformed {what} range {arg!r} (want LO-HI)")
    if int(lo) > int(hi):
        raise GraphParseError(f"reversed {what} range {arg!r} (want LO <= HI)")
    return int(lo), int(hi)


# Sweep target -> (graph family, default LO-HI range); stars take odd sizes only.
_SWEEP_FAMILIES = {
    "stars": ("star", (3, 9)),
    "paths": ("path", (2, 10)),
    "cycles": ("cycle", (3, 10)),
}


def _sweep_pairs(target: str, seed: int):
    """Expand a sweep target into (gspec, hspec, G, H, extra) tuples."""
    kind, _, arg = target.partition(":")
    kind = kind.strip().lower()
    if kind in _SWEEP_FAMILIES:
        family, default = _SWEEP_FAMILIES[kind]
        lo, hi = _parse_range(arg, default, kind)
        specs = [f"{family}:{v}" for v in range(lo, hi + 1) if kind != "stars" or v % 2]
        graphs = [game.build_family(spec) for spec in specs]
        for gspec, g in zip(specs, graphs):
            for hspec, h in zip(specs, graphs):
                yield gspec, hspec, g, h, {}
    elif kind == "random":
        count = RANDOM_PAIR_COUNT
        if arg:
            if not arg.isdigit():
                raise GraphParseError(f"malformed random count {arg!r}")
            count = int(arg)
        rng = random.Random(seed)
        for i in range(count):
            n = rng.randint(1, RANDOM_MAX_VERTICES)
            m = rng.randint(1, RANDOM_MAX_VERTICES)
            g = game.random_graph(n, rng)
            h = game.random_graph(m, rng)
            yield f"random[{i}].g(n={n})", f"random[{i}].h(n={m})", g, h, {"pair": i}
    else:
        raise GraphParseError(
            f"unknown sweep target {target!r} "
            "(want stars[:LO-HI], paths[:LO-HI], cycles[:LO-HI] or random[:COUNT])"
        )


def _sweep(args, mode: str, p: int, target: str) -> tuple[int, Report]:
    randomized = target.partition(":")[0] == "random"
    report = Report(command=args.command_echo, seed=args.seed if randomized else None)
    memo: dict = {}
    for gspec, hspec, g, h, extra in _sweep_pairs(target, args.seed):
        if randomized:
            extra = {**extra, "seed": args.seed}
        fa, fb = _factor(memo, g, mode, p), _factor(memo, h, "open", p)
        row = _product_row(gspec, hspec, fa, fb, mode, p, args.max_oracle, extra)
        report.results.append(row)
        _collect_row_violations(row, report.violations)
    _note_skipped(report, "oracle_match")
    return (1 if report.violations else 0), report


def _cmd_sweep(args) -> tuple[int, Report]:
    return _sweep(args, args.mode, args.p, args.target)


def _verify_conjecture(args, mode: str) -> tuple[int, Report]:
    """The random sweep over GF(2), plus how often the bound held."""
    code, report = _sweep(args, mode, 2, "random")
    ok = sum(1 for r in report.results if r["bound_holds"] == "ok")
    report.notes.append(
        f"bound held on {ok}/{len(report.results)} pairs in {mode} mode"
    )
    return code, report


def _random_partition(rng: random.Random, total: int) -> tuple[int, ...]:
    parts = []
    remaining = total
    while remaining:
        part = rng.randint(1, remaining)
        parts.append(part)
        remaining -= part
    return tuple(parts)


def _verify_lemma(args) -> tuple[int, Report]:
    report = Report(command=args.command_echo, seed=args.seed)
    rng = random.Random(args.seed)
    inequality_violations = 0
    equality_cases = 0
    condition_mismatches = []
    for _ in range(LEMMA_TRIALS):
        r = rng.randint(0, LEMMA_MAX_TOTAL)
        s = rng.randint(0, LEMMA_MAX_TOTAL)
        pi = _random_partition(rng, r)
        tau = _random_partition(rng, s)
        value = formulas.partition_min_sum(pi, tau)
        floor = min(r, s)
        if value < floor:
            inequality_violations += 1
            report.violations.append(
                {"pi": str(list(pi)), "tau": str(list(tau)), "min_sum": value, "floor": floor}
            )
        equal = value == floor
        claimed = (len(pi) == 1 or len(tau) == 1) and r == s
        if equal:
            equality_cases += 1
        if equal != claimed:
            condition_mismatches.append((pi, tau, value, floor))
    report.results.append(
        {
            "trials": LEMMA_TRIALS,
            "inequality_violations": inequality_violations,
            "equality_cases": equality_cases,
            "equality_condition_mismatches": len(condition_mismatches),
        }
    )
    if condition_mismatches:
        report.notes.append(
            "the min-sum inequality held everywhere, but the stated "
            "equality condition ((k=1 or l=1) and r=s) does not characterize "
            "equality; counterexamples follow"
        )
        for pi, tau, value, floor in condition_mismatches[:5]:
            report.notes.append(
                f"  pi={list(pi)} tau={list(tau)}: min_sum={value}, min(r,s)={floor}"
            )
    return (1 if inequality_violations else 0), report


def _x_multiplicity(f: Poly) -> int:
    """Multiplicity of the factor x, i.e. the number of leading zero coefficients."""
    for i, c in enumerate(f.coeffs):
        if c:
            return i
    return 0


def _piecewise_star_path(symbol: int, nu: int) -> int:
    """The audited piecewise rule: 0 if nu=0; (symbol-3)+nu if 1<=nu<=3; symbol else."""
    if nu == 0:
        return 0
    if nu <= 3:
        return (symbol - 3) + nu
    return symbol


def _verify_example_star_path(args) -> tuple[int, Report]:
    report = Report(command=args.command_echo)
    readings = [
        "nullity_as_written",
        "multiplicity_as_written",
        "nullity_swapped",
        "multiplicity_swapped",
    ]
    for n in (3, 5, 7, 9):
        star = game.star_graph(n)
        a_star = game.switching_matrix(star, "open")
        s_star = snf.invariant_factors(a_star)
        for m in range(1, 10):
            path = game.path_graph(m)
            a_path = game.switching_matrix(path, "open")
            value = formulas.nullity_path_product(m, s_star)
            oracle = _oracle(a_star, a_path, args.max_oracle)
            nu_nullity = gfmat.rank_nullity(a_path).nullity
            nu_mult = _x_multiplicity(snf.charpoly_oracle(a_path, 2))
            row = {
                "n": n,
                "m": m,
                "oracle": oracle,
                "formula": value,
                "nullity_as_written": _piecewise_star_path(m, nu_nullity),
                "multiplicity_as_written": _piecewise_star_path(m, nu_mult),
                "nullity_swapped": _piecewise_star_path(n, nu_nullity),
                "multiplicity_swapped": _piecewise_star_path(n, nu_mult),
            }
            report.results.append(row)
            if oracle not in ("skipped", value):
                report.violations.append(dict(row))
    checked = [row for row in report.results if row["oracle"] != "skipped"]
    matching = [
        name for name in readings if all(row[name] == row["oracle"] for row in checked)
    ]
    if checked:
        report.notes.append(
            "oracle agrees with reading(s): " + ", ".join(matching)
            if matching
            else "oracle agrees with none of the four readings"
        )
    for name in readings:
        misses = sum(1 for row in checked if row[name] != row["oracle"])
        report.notes.append(f"reading {name}: {misses} mismatched rows")
    _note_skipped(report, "oracle")
    return (1 if report.violations else 0), report


def _cmd_verify(args) -> tuple[int, Report]:
    kind, _, mode = args.target.partition("-")
    if kind == "conjecture":
        return _verify_conjecture(args, mode)
    if kind == "lemma":
        return _verify_lemma(args)
    return _verify_example_star_path(args)


_HANDLERS = {
    "charpoly": _cmd_charpoly,
    "snf": _cmd_snf,
    "nullity": _cmd_nullity,
    "bound": _cmd_bound,
    "solve": _cmd_solve,
    "counts": _cmd_counts,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def _nonnegative_int(text: str) -> int:
    """argparse type for a size: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


#: Options shared by several verbs; each verb takes only the ones it reads.
_OPTIONS = {
    "--mode": dict(choices=("open", "closed"), default="open"),
    "--p": dict(type=int, default=2, metavar="PRIME"),
    "--seed": dict(type=int, default=1, metavar="N"),
    "--max-oracle": dict(
        type=_nonnegative_int,
        default=formulas.ORACLE_SIZE_CAP,
        metavar="N",
        help="largest operator size the elimination oracle will attempt",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False keeps a mistyped --h (on verbs without it) from
    # silently matching --help
    parser = argparse.ArgumentParser(
        prog="lightsout",
        description="Nullities, invariant factors and press sets for Lights Out! "
        "on graphs and Cartesian products of graphs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, *options):
        for name in options:
            sp.add_argument(name, **_OPTIONS[name])
        sp.add_argument("--json", action="store_true", help="emit the JSON report")
        sp.add_argument("--csv", metavar="PATH", help="also write the results as CSV")

    sp = sub.add_parser("charpoly", allow_abbrev=False, help="characteristic polynomial, two routes")
    sp.add_argument("--g", required=True, metavar="SPEC")
    common(sp, "--mode", "--p")

    sp = sub.add_parser("snf", allow_abbrev=False, help="invariant factors of xI - A")
    sp.add_argument("--g", required=True, metavar="SPEC")
    common(sp, "--mode", "--p")

    sp = sub.add_parser("nullity", allow_abbrev=False, help="product-operator nullity, formula vs oracle")
    sp.add_argument("--g", required=True, metavar="SPEC")
    sp.add_argument("--h", required=True, metavar="SPEC")
    common(sp, "--mode", "--p", "--max-oracle")

    sp = sub.add_parser("bound", allow_abbrev=False, help="gcd-degree lower bound for a product pair")
    sp.add_argument("--g", required=True, metavar="SPEC")
    sp.add_argument("--h", required=True, metavar="SPEC")
    common(sp, "--mode", "--p", "--max-oracle")

    sp = sub.add_parser("solve", allow_abbrev=False, help="press sets for the all-on configuration")
    sp.add_argument("--g", required=True, metavar="SPEC")
    sp.add_argument("--h", metavar="SPEC", help="optional second factor (product game)")
    common(sp, "--mode", "--max-oracle")

    sp = sub.add_parser("counts", allow_abbrev=False, help="rank/nullity exponents of the switching matrix")
    sp.add_argument("--g", required=True, metavar="SPEC")
    common(sp, "--mode")

    sp = sub.add_parser("sweep", allow_abbrev=False, help="formula/oracle/bound table over a family")
    sp.add_argument(
        "target",
        metavar="TARGET",
        help="stars[:LO-HI], paths[:LO-HI], cycles[:LO-HI] or random[:COUNT]",
    )
    common(sp, "--mode", "--p", "--seed", "--max-oracle")

    sp = sub.add_parser("verify", allow_abbrev=False, help="run one of the verification suites")
    sp.add_argument(
        "target",
        metavar="TARGET",
        choices=("conjecture-open", "conjecture-closed", "lemma", "example2"),
    )
    common(sp, "--seed", "--max-oracle")

    return parser


def run(argv: Sequence[str]) -> tuple[int, Report | None]:
    """Execute a command line; returns (exit code, report).

    Exit codes: 0 success; 1 violated invariant (formula/oracle mismatch or
    bound violation); 2 usage error (bad flags, a malformed graph spec or
    graph file, a reversed sweep range or a cycles range below 3, a --p that
    is not prime, a negative --max-oracle, an unwritable --csv path); 3
    internal fault (any other exception, reported on stderr as ``error:
    internal ...`` and its traceback).  The report is None when no handler
    ran to the end.
    """
    try:
        args = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code, None
    args.command_echo = "lightsout " + " ".join(argv)
    if getattr(args, "p", None) is not None:
        try:
            check_prime(args.p)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2, None
    try:
        code, report = _HANDLERS[args.verb](args)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except Exception as exc:
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3, None
    _emit(report, args)
    if getattr(args, "csv", None):
        try:
            _write_csv(args.csv, report.results)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write {args.csv}: {reason}", file=sys.stderr)
            return 2, report
    return code, report


def main() -> None:
    sys.exit(run(sys.argv[1:])[0])
