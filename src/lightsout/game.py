"""Graphs and the Lights Out! game on them.

Pressing the button at a vertex toggles the lights on its neighbors (open
switching) or on its closed neighborhood (closed switching, matrix A + I).
Solvability and press sets reduce to linear systems over GF(2); counting is
reported as exponents (r, nu), i.e. 2^r solvable configurations and 2^nu
press sets per solvable configuration.

Cartesian products index vertex (i, j) as j*m + i (i in G with m vertices,
j in H), the same column-stacking order gfmat uses for vec, so the
product's switching matrix literally equals the Sylvester operator of the
factor matrices over GF(2).
"""

from __future__ import annotations

import random
import re
from itertools import combinations, product
from typing import Callable, Iterable, NamedTuple, Sequence

from lightsout import gfmat
from lightsout.gfmat import PrimeFieldMatrix
from lightsout.gfpoly import Frozen


MODES = ("open", "closed")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


class GraphParseError(ValueError):
    """Malformed graph file or family spec; message carries line/column."""


class Graph(Frozen):
    """Simple undirected graph; edges are (u, v) tuples with u < v, 0-based.

    Compared and hashed by its fields: a factor summary's memo key.
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: frozenset[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        for e in edges:
            u, v = e
            if not (0 <= u < v < vertex_count):
                raise ValueError(f"edge {e} out of range for n={vertex_count}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    # direct field reads, not Frozen's generic ones: the factor memo hashes a graph per product row
    def __eq__(self, other) -> bool:
        if type(other) is not Graph:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        normalized = frozenset(
            (u, v) if u < v else (v, u) for u, v in edges
        )
        return cls(n, normalized)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphParseError("path:n needs n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphParseError("cycle:n needs n >= 3")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    """Star on n vertices total: center 0 plus n-1 leaves."""
    if n < 1:
        raise GraphParseError("star:n needs n >= 1")
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphParseError("complete:n needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product graph; vertex (i, j) lives at index j*m + i."""
    m = g.vertex_count
    n = h.vertex_count
    edges = []
    for j in range(n):
        off = j * m
        for u, v in g.edges:
            edges.append((off + u, off + v))
    for i in range(m):
        for u, v in h.edges:
            edges.append((u * m + i, v * m + i))
    return Graph.from_edges(m * n, edges)


def random_graph(n: int, rng: random.Random) -> Graph:
    """Erdos-Renyi graph with edge probability 1/2."""
    edges = [e for e in combinations(range(n), 2) if rng.getrandbits(1)]
    return Graph.from_edges(n, edges)


_GRID_RE = re.compile(r"^(\d+)x(\d+)$")


def _parse_family(spec: str) -> tuple[int | None, Callable[[], Graph]]:
    """A family spec's vertex count and a builder of its graph; the count is
    None for file:PATH, whose count comes with its edges.  Raises
    GraphParseError for a malformed spec."""
    kind, _, arg = spec.strip().partition(":")
    kind = kind.strip().lower()
    if kind == "petersen":
        if arg:
            raise GraphParseError("petersen takes no argument")
        return 10, petersen_graph
    if kind == "file":
        if not arg:
            raise GraphParseError("file:PATH needs a path")
        return None, lambda: read_graph_file(arg)
    if kind == "grid":
        m = _GRID_RE.match(arg.strip())
        if not m:
            raise GraphParseError(f"malformed grid spec {spec!r} (want grid:MxN)")
        rows, cols = map(int, m.groups())
        if min(rows, cols) < 1:
            raise GraphParseError("grid:MxN needs M, N >= 1")
        return rows * cols, lambda: cartesian_product(path_graph(rows), path_graph(cols))
    builders = {
        "path": path_graph,
        "cycle": cycle_graph,
        "star": star_graph,
        "complete": complete_graph,
    }
    if kind not in builders:
        raise GraphParseError(f"unknown graph family {spec!r}")
    if not arg.strip().isdigit():
        raise GraphParseError(f"malformed graph spec {spec!r} (want {kind}:n)")
    n = int(arg)
    return n, lambda: builders[kind](n)


def family_order(spec: str) -> int | None:
    """The vertex count of ``build_family(spec)``, read off the spec with no
    graph built; None for file:PATH."""
    return _parse_family(spec)[0]


def build_family(spec: str) -> Graph:
    """Build a graph from a family spec.

    Accepted: path:n, cycle:n, star:n, complete:n, grid:MxN, petersen,
    file:PATH.  star:n is the n-vertex star (center plus n-1 leaves);
    grid:MxN is the product of the M- and N-vertex paths.  ``family_order``
    reads the vertex count with the same parse, before any graph is built.
    """
    return _parse_family(spec)[1]()


def parse_graph_text(text: str, source: str = "<string>") -> Graph:
    """Parse the graph file format.

    Line 1 is the vertex count n; each later non-empty line is an edge
    ``u v`` with 0 <= u < v < n.  ``#`` starts a comment.  Duplicate or loop
    edges are a parse error; errors carry source, line and column.
    """
    n: int | None = None
    edges: set[tuple[int, int]] = set()

    def err(msg: str, index: int | None = None):
        # The current line's token columns, found only when there is an error.
        col = 1 if index is None else [m.start() + 1 for m in re.finditer(r"\S+", raw)][index]
        return GraphParseError(f"{source}:{lineno}:{col}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1 or not tokens[0].isdigit():
                raise err(f"expected vertex count, got {line!r}", 0)
            n = int(tokens[0])
            continue
        if len(tokens) != 2:
            raise err(f"expected edge 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise err(f"edge endpoints must be integers, got {line!r}") from None
        if u == v:
            raise err(f"loop edge {u} {v} is not allowed", 1)
        if not 0 <= u < v:
            raise err(f"edge endpoints must satisfy u < v, got {u} {v}", 0)
        if v >= n:
            raise err(f"endpoint {v} out of range for n={n}", 1)
        if (u, v) in edges:
            raise err(f"duplicate edge {u} {v}", 0)
        edges.add((u, v))
    if n is None:
        raise GraphParseError(f"{source}:1:1: empty graph file")
    return Graph(n, frozenset(edges))


def read_graph_file(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read graph file {path!r}: {exc}") from None
    return parse_graph_text(text, source=path)


def _switching_bits(g: Graph, mode: str) -> list[int]:
    """The switching matrix's rows as ints: bit j of row i is entry (i, j)."""
    check_mode(mode)
    n = g.vertex_count
    rows = [1 << i for i in range(n)] if mode == "closed" else [0] * n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def switching_matrix(g: Graph, mode: str = "open", p: int = 2) -> PrimeFieldMatrix:
    """Adjacency matrix (open) or adjacency plus identity (closed) over GF(p), from bit rows."""
    return PrimeFieldMatrix.from_bits(_switching_bits(g, mode), g.vertex_count, p)


class LightsInstance(Frozen):
    """A graph, a switching mode, and an initial on/off configuration."""

    __slots__ = ("graph", "mode", "config")

    def __init__(self, graph: Graph, mode: str, config: tuple[int, ...]):
        check_mode(mode)
        if len(config) != graph.vertex_count:
            raise ValueError(
                f"configuration length {len(config)} != {graph.vertex_count}"
            )
        if any(b not in (0, 1) for b in config):
            raise ValueError("configuration entries must be 0 or 1")
        self._fill(graph, mode, config)


class PressSolution(NamedTuple):
    """One press set plus a kernel basis describing all of them.

    The full solution set is the coset {presses + span(kernel)}; there are
    exactly 2**len(kernel) press sets.
    """

    presses: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]

    @property
    def count_exponent(self) -> int:
        return len(self.kernel)

    def all_solutions(self):
        """Yield every press vector in the coset (2**nu of them)."""
        n = len(self.presses)
        for picks in product((0, 1), repeat=len(self.kernel)):
            v = list(self.presses)
            for take, kvec in zip(picks, self.kernel):
                if take:
                    v = [(a + b) % 2 for a, b in zip(v, kvec)]
            yield tuple(v)


def solve_presses(inst: LightsInstance) -> PressSolution | None:
    """A press set turning the lights off, with the kernel basis; None if unsolvable.

    Both come from one elimination of [M | config]: its null vector at the
    last column is (presses, 1) when one exists, and the others are
    (kernel vector, 0).  The library's kernel API; the CLI's ``solve``,
    which reads no kernel basis, is tested against it.
    """
    n = inst.graph.vertex_count
    rows = _switching_bits(inst.graph, inst.mode)
    aug = PrimeFieldMatrix.from_bits([r | c << n for r, c in zip(rows, inst.config)], n + 1, 2)
    *kernel, last = gfmat.kernel_basis(aug)  # n + 1 columns, n rows: never empty
    if not last[n]:
        return None
    return PressSolution(presses=last[:n], kernel=tuple(v[:n] for v in kernel))


def count_exponents(g: Graph, mode: str = "open") -> tuple[int, int]:
    """(r, nu): 2^r solvable configurations, 2^nu press sets for each."""
    profile = gfmat.rank_nullity(switching_matrix(g, mode))
    return profile.rank, profile.nullity


def sylvester_solve(
    A: PrimeFieldMatrix, B: PrimeFieldMatrix, C: PrimeFieldMatrix
) -> PrimeFieldMatrix | None:
    """Solve AX - XB = C by vectorizing against the product operator.

    Returns one solution X (m x n) or None when the configuration is not
    reachable.  Entry (i, j) of X sits at index j*m + i of vec(X).
    """
    if not A.is_square or not B.is_square:
        raise ValueError("Sylvester solve requires square A and B")
    if A.p != B.p or A.p != C.p:
        raise ValueError("field mismatch between A, B, C")
    m, n = A.rows, B.rows
    if C.rows != m or C.cols != n:
        raise ValueError(
            f"dimension mismatch: C is {C.rows}x{C.cols}, expected {m}x{n}"
        )
    vec = [C[i, j] for j in range(n) for i in range(m)]
    x = gfmat.solve(gfmat.sylvester_operator(A, B), vec)
    if x is None:
        return None
    # the shape is explicit: with no rows the list alone would lose the n columns
    entries = [[x[j * m + i] for j in range(n)] for i in range(m)]
    return PrimeFieldMatrix._of_rows(entries, n, A.p)
