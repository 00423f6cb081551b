"""Independent checks of the CLI's outputs, in plain-integer GF(2) code.

Nothing here imports lightsout.  Graphs come from the benchmark's own edge
lists (the generated ``file:`` graphs) or from the ``path:k``/``cycle:k``
specs, rows of a GF(2) matrix are Python ints (bit j = column j), and rank
is computed by XOR-basis insertion keyed on the highest set bit, a different
elimination order from the program's left-to-right pivot scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Graph given as (vertex count, edge list).
EdgeGraph = tuple[int, list[tuple[int, int]]]


def spec_graph(spec: str, files: dict[str, EdgeGraph]) -> EdgeGraph | None:
    """Rebuild a graph the checker can know without the program: None if unknown."""
    if spec in files:
        return files[spec]
    kind, _, arg = spec.partition(":")
    if not arg.isdigit():
        return None
    n = int(arg)
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    return None


def adjacency_bits(graph: EdgeGraph, closed: bool) -> list[int]:
    """Switching matrix rows: neighbours, plus the vertex itself when closed."""
    n, edges = graph
    rows = [(1 << i) if closed else 0 for i in range(n)]
    for u, v in edges:
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return rows


def product_operator(a: list[int], b: list[int]) -> list[int]:
    """Rows of X -> AX + XB over GF(2), X m x n stacked by columns (index j*m + i).

    B is symmetric, so (XB)_ij sums X_il over the neighbours l of j.
    """
    m, n = len(a), len(b)
    rows = []
    for j in range(n):
        for i in range(m):
            bits = a[i] << (j * m)
            for l in range(n):
                if b[j] >> l & 1:
                    bits ^= 1 << (l * m + i)
            rows.append(bits)
    return rows


def rank_and_consistency(rows: list[int], rhs: list[int]) -> tuple[int, bool]:
    """Rank of the rows, and whether rows . x = rhs has a solution."""
    basis: dict[int, int] = {}
    consistent = True
    for row, b in zip(rows, rhs):
        v = (row << 1) | b
        while v > 1:
            top = v.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = v
                break
            v ^= pivot
        else:
            if v == 1:
                consistent = False
    return len(basis), consistent


def _factor_bits(row: dict, files) -> tuple[list[int], list[int]] | None:
    g, h = spec_graph(row["g"], files), spec_graph(row["h"], files)
    if g is None or h is None:
        return None
    return adjacency_bits(g, row["mode"] == "closed"), adjacency_bits(h, False)


def check_comparison_row(row: dict, files: dict[str, EdgeGraph]) -> str | None:
    """A nullity/sweep/verify row: flags ok, and the nullity recomputed when the graphs are known."""
    if row.get("oracle_match") != "ok" or row.get("bound_holds") != "ok":
        return f"oracle_match={row.get('oracle_match')} bound_holds={row.get('bound_holds')}"
    factors = _factor_bits(row, files)
    if factors is None or row.get("p", 2) != 2:
        return None
    op = product_operator(*factors)
    nullity = len(op) - rank_and_consistency(op, [0] * len(op))[0]
    if row["nullity_oracle"] != nullity or row["nullity_formula"] != nullity:
        return f"nullity {row['nullity_formula']}/{row['nullity_oracle']}, expected {nullity}"
    return None


def check_solve_row(row: dict, files: dict[str, EdgeGraph]) -> str | None:
    """A product ``solve`` row: press matrix by substitution, exponent and solvability by rank."""
    factors = _factor_bits(row, files)
    if factors is None:
        return f"unknown graphs {row['g']} / {row['h']}"
    a, b = factors
    m, n = len(a), len(b)
    op = product_operator(a, b)
    rank, consistent = rank_and_consistency(op, [1] * len(op))
    if row["solvable"] == "no":
        return None if not consistent else "reported unsolvable, but AX + XB = J has a solution"
    if not consistent:
        return "reported solvable, but AX + XB = J has no solution"
    presses = row["presses"].split("/")
    if len(presses) != m or any(len(r) != n or set(r) - {"0", "1"} for r in presses):
        return f"malformed press matrix for {m}x{n}"
    x = [int(r[::-1], 2) for r in presses]  # bit l of x[i] is X[i, l]
    ones = (1 << n) - 1
    for i in range(m):
        acc = 0
        for k in range(m):
            if a[i] >> k & 1:
                acc ^= x[k]
        for l in range(n):
            if x[i] >> l & 1:
                acc ^= b[l]
        if acc != ones:
            return f"row {i} of AX + XB is not all ones"
    if row["solution_exponent"] != len(op) - rank:
        return f"solution_exponent {row['solution_exponent']}, expected {len(op) - rank}"
    return None


@dataclass
class Tally:
    """Attempted and failed rows (or whole invocations), with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(failures[: max(0, 5 - len(self.reasons))])


def label(argv: list[str]) -> str:
    """A command line with generated file paths cut to their names."""
    return " ".join(arg.rsplit("/", 1)[-1] for arg in argv)


def check_invocation(argv: list[str], code: int, report, files) -> list[str]:
    """Failure reasons for one CLI invocation, one per failed row (empty when correct)."""
    where = label(argv)
    if code != 0 or report is None:
        return [f"{where}: exit {code}"] * max(1, len(report.results) if report else 1)
    if not report.results:
        return [f"{where}: no rows"]
    check = check_solve_row if argv[0] == "solve" else check_comparison_row
    failures = []
    for row in report.results:
        reason = check(row, files)
        if reason:
            failures.append(f"{where}: {label([row['g'], row['h']])}: {reason}")
    if report.violations and not failures:
        failures = [f"{where}: violation {v}" for v in report.violations]
    return failures
