"""The benchmark's workloads: CLI command lines, built from the workload seed.

Each workload is a list of ``lightsout`` argument vectors that one pass runs
in order, plus the graphs the benchmark generated for them (keyed by their
``file:`` spec) so the checker can recompute answers from its own edge lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

from perfbench.check import EdgeGraph

#: Vertices per generated graph in product-large: operators are 48*48 = 2304.
LARGE_VERTICES = 48


@dataclass
class Inputs:
    """One pass's command lines and the generated graphs they name."""

    commands: list[list[str]]
    files: dict[str, EdgeGraph] = field(default_factory=dict)


def _verify_random(seed: int, workdir: Path) -> Inputs:
    return Inputs(
        [
            ["verify", "conjecture-open", "--seed", str(seed)],
            ["verify", "conjecture-closed", "--seed", str(seed)],
        ]
    )


def _sweep_families(seed: int, workdir: Path) -> Inputs:
    return Inputs([["sweep", "paths:2-16"], ["sweep", "cycles:3-14", "--mode", "closed"]])


def _erdos_renyi(n: int, rng: random.Random) -> EdgeGraph:
    return n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]


def _write_graph(path: Path, graph: EdgeGraph) -> str:
    n, edges = graph
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    return f"file:{path}"


def _product_large(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    files: dict[str, EdgeGraph] = {}
    specs = []
    for k in range(6):
        graph = _erdos_renyi(LARGE_VERTICES, rng)
        spec = _write_graph(workdir / f"er{k}.txt", graph)
        files[spec] = graph
        specs.append(spec)
    cap = ["--max-oracle", str(LARGE_VERTICES * LARGE_VERTICES)]
    return Inputs(
        [
            ["solve", "--g", specs[0], "--h", specs[1], *cap],
            ["solve", "--g", specs[2], "--h", specs[3], "--mode", "closed", *cap],
            ["nullity", "--g", specs[4], "--h", specs[5], *cap],
        ],
        files,
    )


#: Workload name -> builder (seed, directory for generated files) -> Inputs.
#: Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, Path], Inputs]] = {
    "verify-random": _verify_random,
    "sweep-families": _sweep_families,
    "product-large": _product_large,
}
