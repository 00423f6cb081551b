"""Command-line front end.

Verbs: the keys of ``_VERBS``, which gives each verb's handler, help and the
arguments it reads; the parser and ``run`` both read it.  verify's targets
are the keys of ``_VERIFY_TARGETS``.
A handler only builds its report's rows and notes.  Every comparison row
carries its verdicts: ``oracle_match`` (a primary route against its oracle:
the elimination oracle, the Berkowitz expansion for charpoly, or for a
product solve a check by substitution on a build of the operator) and, on
product rows, ``bound_holds`` (gcd bound).  ``solve`` reads its press set and
nullity off one ``gfmat.solve_system`` elimination of the switching matrix
on one graph; on a product, ``gfmat.solve_sylvester`` gives the same
solvability and nullity, a press set checked by substitution, and a
certificate when unsolvable, by a light chase along one factor.  One
step in ``run`` then copies each row that reads ``mismatch`` or ``violated``
into the violations, adds one note counting the rows with a cell skipped
over the oracle cap, and exits 1 exactly when the violations are non-empty.
Usage errors (unknown flags, flags the verb does not read, malformed graph
specs, unreadable or non-UTF-8 files, a non-prime --p, a negative
--max-oracle, an unwritable --csv path, a factor graph over the formula
route's vertex cap) exit 2.
Any other exception is an internal fault and exits 3.  An operator larger
than --max-oracle is never built (``solve --h`` builds only file: graphs
first): its row is marked ``skipped`` in every verb; the default cap is
4096, and 1024 for elimination at odd p.  charpoly counts n vertices as
n * n, so by default its O(n^4) oracle runs up to n = 64.  Each distinct
factor graph is summarized once per invocation (``FactorSummary``, in
``gfpoly``'s working form, where no GF(2) row builds a Poly), so a sweep over
n x n pairs computes n invariant-factor lists in open mode and 2n in closed,
not 2n^2: each one Krylov pass and a k x k Smith form.

Reports render as an aligned text table by default, as JSON with --json
(schema documented in docs/report_schema.json, versioned ``schema: 1``),
and additionally as CSV with --csv PATH.

Import rule: every run pays this module's imports before any algebra, so
it loads no standard-library module that a text-output run does not use.
``json``, ``csv`` and ``traceback`` are imported where they are used: in
the --json branch of ``_emit``, in ``_write_csv`` and in ``run``'s
internal-fault branch.  The records are a ``types.SimpleNamespace``
subclass (``Report``) and a ``typing.NamedTuple`` (``FactorSummary``), whose
modules lightsout's own imports load already; not dataclasses, which would
load ``inspect`` and with it ``ast``, ``dis`` and ``tokenize``.  lightsout's
own modules stay imported here: every verb needs them.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import cache, reduce
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from lightsout import formulas, game, gfmat, snf
from lightsout.game import Graph, GraphParseError
from lightsout.gfmat import PrimeFieldMatrix
from lightsout.gfpoly import Poly, check_prime, poly_ops, shift_one

SCHEMA_VERSION = 1

#: Largest factor graph, in vertices, that ``_factor`` summarizes once it is
#: built.  It prices the Krylov pass, O(n^2) row operations: at p = 2 about 0.2 s
#: on grid:64x64, at odd p (residue lists) about 20 s on grid:32x32 at p = 3.
#: It does not bound k, the size of R's Smith form: grids have k = m, but
#: stars and complete graphs k = n - 1, and star:800 takes about 20 s.
FORMULA_VERTEX_CAP = 4096
FORMULA_VERTEX_CAP_ODD_P = 1024

RANDOM_PAIR_COUNT = 500
RANDOM_MAX_VERTICES = 8
LEMMA_TRIALS = 10_000
LEMMA_MAX_TOTAL = 12


class OverCapError(ValueError):
    """A factor graph over the formula route's vertex cap: a usage error."""


class Report(SimpleNamespace):
    """Result of one CLI invocation; serializes to the documented JSON schema.

    Mutable: handlers and ``_judge`` append to its lists.  Reports compare
    field by field, so two runs with the same output give equal reports.
    """

    def __init__(
        self,
        command: str,
        seed: int | None = None,
        results: list[dict] | None = None,
        violations: list[dict] | None = None,
        notes: list[str] | None = None,
    ):
        super().__init__(
            command=command,
            seed=seed,
            results=[] if results is None else results,
            violations=[] if violations is None else violations,
            notes=[] if notes is None else notes,
        )

    def to_dict(self) -> dict:
        """The JSON payload: a copy, so rows (flat dicts of scalars) are copied too."""
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "results": [dict(row) for row in self.results],
            "violations": [dict(row) for row in self.violations],
            "notes": list(self.notes),
        }


# -- output ----------------------------------------------------------------


def _cells(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    """The columns of rows in first-seen order, and each row's cells as text."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    return columns, [[str(row.get(c, "")) for c in columns] for row in rows]


def _format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no results)"
    columns, cells = _cells(rows)
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    head = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = ("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells)
    return "\n".join([head, sep, *body])


def _emit(report: Report, args) -> None:
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(_format_table(report.results))
        for note in report.notes:
            print(f"note: {note}")
        for v in report.violations:
            print(f"violation: {v}")


def _write_csv(path: str, rows: list[dict]) -> None:
    import csv

    columns, cells = _cells(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if columns:
            writer.writerow(columns)
        writer.writerows(cells)


# -- shared computation ------------------------------------------------------


def _oracle_cap(args, odd_p_elimination: bool) -> int:
    """--max-oracle, or by default formulas.ORACLE_SIZE_CAP, and ORACLE_SIZE_CAP_ODD_P
    for the elimination oracle at odd p: every verb skips an operator with more
    rows (n * n for charpoly) than this, before building it."""
    if args.max_oracle is not None:
        return args.max_oracle
    return formulas.ORACLE_SIZE_CAP_ODD_P if odd_p_elimination else formulas.ORACLE_SIZE_CAP


def _match(oracle, value) -> str:
    """A row's oracle_match: "skipped" over the cap, else whether oracle == value."""
    if oracle == "skipped":
        return "skipped"
    return "ok" if oracle == value else "mismatch"


class FactorSummary(NamedTuple):
    """A factor graph's switching matrix, SnfResult and characteristic polynomial, the
    last in ``gfpoly.poly_ops(p)``'s working form; ``poly()`` builds its Poly."""

    matrix: PrimeFieldMatrix
    snf: snf.SnfResult
    charpoly: int | Poly

    def poly(self) -> Poly:
        return poly_ops(self.matrix.p).to_poly(self.charpoly)


def _check_cap(n: int, p: int) -> None:
    """Raise OverCapError for a factor graph of n vertices over FORMULA_VERTEX_CAP
    (FORMULA_VERTEX_CAP_ODD_P at odd p)."""
    cap = FORMULA_VERTEX_CAP if p == 2 else FORMULA_VERTEX_CAP_ODD_P
    if n > cap:
        raise OverCapError(f"factor graph has {n} vertices, over the formula cap of {cap} at p = {p}")


def _family(spec: str, p: int) -> Graph:
    """``game.build_family(spec)``, refused over the formula cap at p before its
    first edge is built; a file: spec's size comes with its edges, so ``_factor``
    checks it."""
    n = game.family_order(spec)
    if n is not None:
        _check_cap(n, p)
    return game.build_family(spec)


def _factor(memo: dict, g: Graph, mode: str, p: int) -> FactorSummary:
    """The FactorSummary of g in ``mode`` over GF(p), computed once per memo.

    memo is keyed by (Graph, mode, p) and lives for one handler call, so
    each distinct factor of a sweep is summarized once per invocation.
    Raises OverCapError for a graph over the formula cap before its switching
    matrix is built: file: specs and random graphs are checked only here.
    """
    key = (g, mode, p)
    if key not in memo:
        _check_cap(g.vertex_count, p)
        M = game.switching_matrix(g, mode, p)
        s, ops = snf.invariant_factors(M), poly_ops(p)
        memo[key] = FactorSummary(M, s, reduce(ops.mul, s.factors, ops.one))
    return memo[key]


def _product_row(
    gspec: str, hspec: str, fa: FactorSummary, fb: FactorSummary, mode: str, p: int, cap: int
) -> dict:
    """One formula/oracle/bound comparison row for a product operator.

    fa summarizes the first factor in ``mode`` and fb the second in open
    mode.  Closed mode shifts the first matrix to A + I; over GF(2) that is
    exactly the closed-switching matrix of the product graph.  The bound is
    deg gcd(c_A, c_B) of the two matrices compared, with both characteristic
    polynomials read off their invariant factors, in the working form.  The
    elimination oracle runs when the operator has at most ``cap`` rows.
    """
    size = fa.matrix.rows * fb.matrix.rows
    value = formulas.nullity_snf_product(fa.snf, fb.snf)
    bound = formulas.gcd_lower_bound(fa.charpoly, fb.charpoly)
    oracle = "skipped" if size > cap else formulas.oracle_nullity(fa.matrix, fb.matrix, max_dim=cap)
    return {
        "g": gspec,
        "h": hspec,
        "mode": mode,
        "p": p,
        "operator_size": size,
        "nullity_formula": value,
        "lower_bound": bound,
        "nullity_oracle": oracle,
        "oracle_match": _match(oracle, value),
        "bound_holds": "ok" if bound <= (value if oracle == "skipped" else oracle) else "violated",
    }


def _presses_string(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


# -- handlers ----------------------------------------------------------------


def _one_factor(args) -> tuple[dict, FactorSummary]:
    """The g, mode, p and n cells of charpoly's and snf's row, and the FactorSummary."""
    f = _factor({}, _family(args.g, args.p), args.mode, args.p)
    return {"g": args.g, "mode": args.mode, "p": args.p, "n": f.matrix.rows}, f


def _cmd_charpoly(args) -> Report:
    row, f = _one_factor(args)
    n, via_snf = f.matrix.rows, f.poly()
    cap = _oracle_cap(args, odd_p_elimination=False)
    via_oracle = "skipped" if n * n > cap else snf.charpoly_oracle(f.matrix, args.p)
    row.update(
        charpoly_snf=str(via_snf),
        charpoly_oracle=str(via_oracle),
        oracle_match=_match(via_oracle, via_snf),
    )
    return Report(args.command_echo, results=[row])


def _cmd_snf(args) -> Report:
    row, f = _one_factor(args)
    row.update(invariant_factors=str(f.snf), charpoly=str(f.poly()))
    return Report(args.command_echo, results=[row])


def _cmd_nullity(args) -> Report:
    """The product row of nullity and of bound.  bound's row also carries the
    open-mode polynomials of both factors: c_A(x) = c_{A+I}(x + 1) over every GF(p)."""
    memo: dict = {}
    fa = _factor(memo, _family(args.g, args.p), args.mode, args.p)
    fb = _factor(memo, _family(args.h, args.p), "open", args.p)
    fa.poly(), fb.poly()  # unprinted; perfbench/test_tracer.py counts a GF(2) nullity's Poly
    cap = _oracle_cap(args, odd_p_elimination=args.p != 2)
    row = _product_row(args.g, args.h, fa, fb, args.mode, args.p, cap)
    if args.verb == "bound":
        row["charpoly_g"] = str(shift_one(fa.poly()) if args.mode == "closed" else fa.poly())
        row["charpoly_h"] = str(fb.poly())
    return Report(args.command_echo, results=[row])


def _cmd_counts(args) -> Report:
    g = game.build_family(args.g)
    r, nu = game.count_exponents(g, args.mode)
    row = {"g": args.g, "mode": args.mode, "n": g.vertex_count, "r": r, "nu": nu}
    note = f"2^{r} solvable configurations, 2^{nu} press sets for each"
    return Report(args.command_echo, results=[row], notes=[note])


def _cmd_solve(args) -> Report:
    if args.h is None:
        g = game.build_family(args.g)
        n = g.vertex_count
        x, nu, _ = gfmat.solve_system(game.switching_matrix(g, args.mode), (1,) * n)
        row = {
            "g": args.g,
            "mode": args.mode,
            "n": n,
            "config": "all-on",
            "solvable": "yes" if x is not None else "no",
            "presses": _presses_string(x) if x is not None else "-",
            "solution_exponent": nu if x is not None else "-",
        }
        return Report(args.command_echo, results=[row])
    specs = (args.g, args.h)  # a family's order is read off its spec: only file: graphs are built
    files = {s: game.build_family(s) for s in specs if game.family_order(s) is None}
    m, n = (files[s].vertex_count if s in files else game.family_order(s) for s in specs)
    row = {"g": args.g, "h": args.h, "mode": args.mode, "m": m, "n": n, "config": "all-on"}
    if m * n > _oracle_cap(args, odd_p_elimination=False):
        cells = ("solvable", "presses", "solution_exponent", "oracle_match")
        row.update(dict.fromkeys(cells, "skipped"))
        return Report(args.command_echo, results=[row])
    g, h = (files[s] if s in files else game.build_family(s) for s in specs)
    A, B = game.switching_matrix(g, args.mode), game.switching_matrix(h, "open")
    ones = (1,) * (m * n)  # vec of the all-on configuration
    x, nu, y = gfmat.solve_sylvester(A, B, ones)
    # The check builds L.  A and B are symmetric, so L is too, and a null vector
    # y of L with y . ones = 1 proves all-on is outside L's column space.
    # unprinted; perfbench/test_tracer.py counts two builds (ROADMAP item 1):
    gfmat.sylvester_operator(A, B)  # test_sylvester_operator_repeat_share_is_one_half_on_one_product_solve
    L = gfmat.sylvester_operator(A, B)
    if x is not None:
        ok = L.mul_vec(x) == ones
    else:
        ok = y is not None and not any(L.mul_vec(y)) and sum(y) % 2 == 1
    row.update(
        solvable="yes" if x is not None else "no",
        presses="/".join(_presses_string(x[i::m]) for i in range(m)) if x is not None else "-",
        solution_exponent=nu if x is not None else "-",
        oracle_match="ok" if ok else "mismatch",
    )
    return Report(args.command_echo, results=[row])


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
#: The sweep targets as the help and the unknown-target error name them.
_SWEEP_TARGETS = ", ".join(f"{kind}[:LO-HI]" for kind in _SWEEP_FAMILIES) + " or random[:COUNT]"


def _sweep_pairs(target: str, seed: int, p: int):
    """Expand a sweep target into (gspec, hspec, G, H, cells) tuples; cells lead the row.

    A family's members are checked against the formula cap at p as they are
    named, and none is built until all are named: an over-cap family is
    refused at its first member over the cap, before any graph is built or
    any row computed.  Random graphs have at most RANDOM_MAX_VERTICES
    vertices; a random pair's cells are its index and the seed.
    """
    kind, _, arg = target.partition(":")
    kind = kind.strip().lower()
    if kind in _SWEEP_FAMILIES:
        family, default = _SWEEP_FAMILIES[kind]
        lo, hi = _parse_range(arg, default, kind)
        specs = []
        for v in range(lo, hi + 1):
            if kind != "stars" or v % 2:
                _check_cap(v, p)  # the member has v vertices
                specs.append(f"{family}:{v}")
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
            yield f"random[{i}].g(n={n})", f"random[{i}].h(n={m})", g, h, {"pair": i, "seed": seed}
    else:
        raise GraphParseError(f"unknown sweep target {target!r} (want {_SWEEP_TARGETS})")


def _sweep(args, mode: str, p: int, target: str) -> Report:
    randomized = target.partition(":")[0] == "random"
    report = Report(command=args.command_echo, seed=args.seed if randomized else None)
    memo: dict = {}
    cap = _oracle_cap(args, odd_p_elimination=p != 2)
    for gspec, hspec, g, h, cells in _sweep_pairs(target, args.seed, p):
        fa, fb = _factor(memo, g, mode, p), _factor(memo, h, "open", p)
        report.results.append({**cells, **_product_row(gspec, hspec, fa, fb, mode, p, cap)})
    return report


def _verify_conjecture(args, mode: str) -> Report:
    """The random sweep over GF(2), plus how often the bound held."""
    report = _sweep(args, mode, 2, "random")
    ok = sum(1 for r in report.results if r["bound_holds"] == "ok")
    report.notes.append(
        f"bound held on {ok}/{len(report.results)} pairs in {mode} mode"
    )
    return report


def _random_partition(rng: random.Random, total: int) -> tuple[int, ...]:
    parts = []
    remaining = total
    while remaining:
        part = rng.randint(1, remaining)
        parts.append(part)
        remaining -= part
    return tuple(parts)


def _verify_lemma(args) -> Report:
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
        held = "" if inequality_violations else "the min-sum inequality held everywhere, but "
        report.notes.append(
            held + "the stated equality condition ((k=1 or l=1) and r=s) does not "
            "characterize equality; counterexamples follow"
        )
        for pi, tau, value, floor in condition_mismatches[:5]:
            report.notes.append(
                f"  pi={list(pi)} tau={list(tau)}: min_sum={value}, min(r,s)={floor}"
            )
    return report


def _piecewise_star_path(symbol: int, nu: int) -> int:
    """The audited piecewise rule: 0 if nu=0; (symbol-3)+nu if 1<=nu<=3; symbol else."""
    if nu == 0:
        return 0
    if nu <= 3:
        return (symbol - 3) + nu
    return symbol


def _verify_example_star_path(args) -> Report:
    report = Report(command=args.command_echo)
    readings = [
        "nullity_as_written",
        "multiplicity_as_written",
        "nullity_swapped",
        "multiplicity_swapped",
    ]
    memo: dict = {}
    cap = _oracle_cap(args, odd_p_elimination=False)
    paths = {}  # m -> (summary, GF(2) nullity, multiplicity of x in c_path)
    for m in range(1, 10):
        f = _factor(memo, game.path_graph(m), "open", 2)
        x_mult = next(i for i, c in enumerate(f.poly().coeffs) if c)
        paths[m] = (f, gfmat.nullity(f.matrix), x_mult)
    for n in (3, 5, 7, 9):
        star = _factor(memo, game.star_graph(n), "open", 2)
        for m, (path, nu_nullity, nu_mult) in paths.items():
            product = _product_row(f"star:{n}", f"path:{m}", star, path, "open", 2, cap)
            report.results.append(
                {
                    "n": n,
                    "m": m,
                    "oracle": product["nullity_oracle"],
                    "formula": product["nullity_formula"],
                    "oracle_match": product["oracle_match"],
                    "nullity_as_written": _piecewise_star_path(m, nu_nullity),
                    "multiplicity_as_written": _piecewise_star_path(m, nu_mult),
                    "nullity_swapped": _piecewise_star_path(n, nu_nullity),
                    "multiplicity_swapped": _piecewise_star_path(n, nu_mult),
                }
            )
    checked = [row for row in report.results if row["oracle"] != "skipped"]
    if checked:
        matching = [
            name for name in readings if all(row[name] == row["oracle"] for row in checked)
        ]
        report.notes.append(
            "oracle agrees with reading(s): " + ", ".join(matching)
            if matching
            else "oracle agrees with none of the four readings"
        )
        for name in readings:
            misses = sum(1 for row in checked if row[name] != row["oracle"])
            report.notes.append(f"reading {name}: {misses} mismatched rows")
    return report


#: Verify target -> its handler; the keys are the parser's choices.
_VERIFY_TARGETS = {
    "conjecture-open": lambda args: _verify_conjecture(args, "open"),
    "conjecture-closed": lambda args: _verify_conjecture(args, "closed"),
    "lemma": _verify_lemma,
    "example2": _verify_example_star_path,
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


#: Every argument a verb may read.  A key names its argument after its last
#: colon; the part before tells apart two declarations of one name.
_OPTIONS = {
    "--g": dict(required=True, metavar="SPEC"),
    "--h": dict(required=True, metavar="SPEC"),
    "solve:--h": dict(metavar="SPEC", help="optional second factor (product game)"),
    "sweep:target": dict(metavar="TARGET", help=_SWEEP_TARGETS),
    "verify:target": dict(metavar="TARGET", choices=tuple(_VERIFY_TARGETS)),
    "--mode": dict(choices=game.MODES, default="open"),
    "--p": dict(type=int, default=2, metavar="PRIME"),
    "--seed": dict(type=int, default=1, metavar="N"),
    "--max-oracle": dict(
        type=_nonnegative_int,
        metavar="N",
        help="largest operator size (n * n for charpoly) an oracle will attempt "
        "(default 4096; 1024 for odd-p elimination)",
    ),
}

#: Verb -> (handler, help, the _OPTIONS keys it reads in order).  The parser
#: and ``run`` both read this table; every verb also takes --json and --csv.
_VERBS = {
    "charpoly": (_cmd_charpoly, "characteristic polynomial, two routes", "--g --mode --p --max-oracle"),
    "snf": (_cmd_snf, "invariant factors of xI - A", "--g --mode --p"),
    "nullity": (
        _cmd_nullity, "product-operator nullity, formula vs oracle", "--g --h --mode --p --max-oracle"
    ),
    "bound": (
        _cmd_nullity, "gcd-degree lower bound for a product pair", "--g --h --mode --p --max-oracle"
    ),
    "solve": (_cmd_solve, "press sets for the all-on configuration", "--g solve:--h --mode --max-oracle"),
    "counts": (_cmd_counts, "rank/nullity exponents of the switching matrix", "--g --mode"),
    "sweep": (
        lambda args: _sweep(args, args.mode, args.p, args.target),
        "formula/oracle/bound table over a family",
        "sweep:target --mode --p --seed --max-oracle",
    ),
    "verify": (
        lambda args: _VERIFY_TARGETS[args.target](args),
        "run one of the verification suites",
        "verify:target --seed --max-oracle",
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
    for verb, (_, text, options) in _VERBS.items():
        sp = sub.add_parser(verb, allow_abbrev=False, help=text)
        for key in options.split():
            sp.add_argument(key.rpartition(":")[2], **_OPTIONS[key])
        sp.add_argument("--json", action="store_true", help="emit the JSON report")
        sp.add_argument("--csv", metavar="PATH", help="also write the results as CSV")
    return parser


_parser = cache(build_parser)  # run's parser, built on first use: parse_args leaves it unchanged


def _judge(report: Report) -> int:
    """Add the rows that fail their check to violations; 1 if any violation, else 0.

    A row fails when its ``oracle_match`` reads ``mismatch`` or its
    ``bound_holds`` reads ``violated``.  Rows with any cell reading
    ``skipped`` are counted in one note after the handler's own notes.
    """
    for row in report.results:
        if row.get("oracle_match") == "mismatch" or row.get("bound_holds") == "violated":
            report.violations.append(dict(row))
    skipped = sum(1 for row in report.results if "skipped" in row.values())
    if skipped:
        report.notes.append(f"{skipped} rows exceeded the oracle cap and were skipped")
    return 1 if report.violations else 0


def run(argv: Sequence[str]) -> tuple[int, Report | None]:
    """Execute a command line; returns (exit code, report).

    Each handler builds its report's rows and notes; ``_judge`` then moves
    every failed row into violations and notes the skipped rows.  Exit codes:
    0 success; 1 exactly when violations is non-empty (an oracle mismatch, a
    bound violation, or a ``verify lemma`` trial where the min-sum inequality
    fails); 2 usage error (bad flags, a malformed graph spec or graph file, a
    reversed sweep range or a cycles range below 3, a --p that is not prime,
    a negative --max-oracle, an unwritable --csv path, a factor graph over
    the formula route's vertex cap); 3 internal fault (any
    other exception, reported on stderr as ``error: internal ...`` and its
    traceback).  The report is None when no
    handler ran to the end.
    """
    try:
        args = _parser().parse_args(list(argv))
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
        report = _VERBS[args.verb][0](args)
    except (GraphParseError, OverCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except Exception as exc:
        import traceback

        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3, None
    code = _judge(report)
    _emit(report, args)
    if args.csv:
        try:
            _write_csv(args.csv, report.results)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write {args.csv}: {reason}", file=sys.stderr)
            return 2, report
    return code, report


def main() -> None:
    sys.exit(run(sys.argv[1:])[0])
