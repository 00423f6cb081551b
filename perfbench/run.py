#!/usr/bin/env python3
"""Run one benchmark workload against the lightsout CLI and print its metrics.

From the root of a checkout, with no install (the package is imported from
``src/``):

    python3 perfbench/run.py --workload verify-random --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

The load is a closed loop with one client: each CLI invocation, made in
process through ``lightsout.cli.run`` with stdout captured, starts when the
previous one returns.  A pass is one run of the workload's command list.
Passes repeat for ``--seconds``.  After the last one, perfbench/check.py
checks the first pass's outputs, and any later output that differs from them.

The end-to-end times are corrected to a fixed machine speed, read by
perfbench/reference.py: during every timed pass from a timer signal, and for
set-up from a bare interpreter started before and after every sample.  The
measured seconds are printed and recorded too.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (samples, provenance, spans of
the last traced pass) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.check import Tally, check_invocation, label  # noqa: E402
from perfbench.reference import Gauge, start_speed  # noqa: E402
from perfbench.tracer import Tracer, per_root  # noqa: E402
from perfbench.workloads import WORKLOADS, Inputs  # noqa: E402

#: Fresh interpreters timed per run for setup_s (after one that fills the bytecode cache).
SETUP_SAMPLES = 15
SETUP_CODE = "import lightsout.cli as cli; cli.build_parser()"
DENSE_SIZES = (512, 1024, 2048)
DENSE_REPEATS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- measuring ----------------------------------------------------------------


def setup_seconds() -> tuple[list[float], list[float]]:
    """Fresh interpreters that import lightsout.cli and build its parser.

    Returns their measured wall times, and the same at the reference speed,
    read just before and just after each.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    measured, fixed = [], []
    before = start_speed()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        measured.append(time.perf_counter() - start)
        after = start_speed()
        fixed.append(measured[-1] * (before + after) / 2)
        before = after
    return measured, fixed


def _invoke(cli, argv: list[str]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(argv)
    except Exception:  # an internal fault is a failed invocation, not a dead benchmark
        traceback.print_exc()
        return -1, None


def run_pass(commands: list[list[str]]) -> tuple[float, list]:
    """One pass: its seconds, and (exit code, report) for each invocation."""
    from lightsout import cli

    start = time.perf_counter()
    outputs = [_invoke(cli, argv) for argv in commands]
    return time.perf_counter() - start, outputs


def gauged_pass(commands: list[list[str]]) -> tuple[float, float, list]:
    """One pass with the machine's speed read during it.

    Returns the pass's measured seconds (the readings' own time taken out),
    its seconds at the reference speed, and (exit code, report) for each
    invocation.
    """
    from lightsout import cli

    with Gauge() as gauge:
        outputs = [_invoke(cli, argv) for argv in commands]
    return gauge.seconds, gauge.seconds * gauge.speed, outputs


def _rows(report) -> int:
    return len(report.results) if report and report.results else 1


class Checked:
    """Outputs of every pass, checked after the timed passes.

    The first pass's outputs are checked in full; a later output is checked
    again only where it differs from the first, and only those are kept.
    """

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.reference: list | None = None
        self.passes = 0
        self.differing: list[tuple[int, tuple]] = []

    def record(self, outputs: list) -> None:
        self.passes += 1
        if self.reference is None:
            self.reference = outputs
            return
        self.differing += [
            (i, out) for i, (out, ref) in enumerate(zip(outputs, self.reference)) if out != ref
        ]

    @property
    def rows_per_pass(self) -> int:
        return sum(len(report.results) if report else 0 for _, report in self.reference)

    def tally(self) -> Tally:
        tally = Tally()
        files = self.inputs.files
        for i, (argv, (code, report)) in enumerate(zip(self.inputs.commands, self.reference)):
            others = [out for j, out in self.differing if j == i]
            failures = check_invocation(argv, code, report, files)
            for _ in range(self.passes - len(others)):
                tally.add(_rows(report), failures)
            for out in others:
                tally.add(_rows(out[1]), check_invocation(argv, *out, files))
        return tally


def dense_kernel_seconds(seed: int) -> dict[str, float]:
    """Median seconds of echelon_bits on dense random n x n matrices, per backend."""
    from lightsout._gf2kernel import available_backends

    rng = random.Random(seed)
    out = {}
    for n in DENSE_SIZES:
        rows = [rng.getrandbits(n) for _ in range(n)]
        for backend, echelon in available_backends().items():
            times = []
            for _ in range(DENSE_REPEATS):
                start = time.perf_counter()
                echelon(rows, n, True)
                times.append(time.perf_counter() - start)
            out[f"gf2kernel.dense_{n}.{backend}_s"] = statistics.median(times)
    return out


def measure_end_to_end(inputs: Inputs, checked: Checked, seconds: float):
    """End-to-end metrics and their samples (seconds per pass, per set-up).

    Times are at the reference speed; the ``*_measured`` samples are as measured.
    """
    setup_measured, setup = setup_seconds()
    walls_measured, walls = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        measured, wall, outputs = gauged_pass(inputs.commands)
        walls_measured.append(measured)
        walls.append(wall)
        checked.record(outputs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "rows_per_s": checked.rows_per_pass / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    samples = {
        "wall_s": walls,
        "wall_s_measured": walls_measured,
        "setup_s": setup,
        "setup_s_measured": setup_measured,
        "speed": [fixed / measured for fixed, measured in zip(walls, walls_measured)],
    }
    return metrics, samples


def measure_layers(inputs: Inputs, checked: Checked, seconds: float, seed: int):
    """Per-layer metrics, raw pass samples, and the last traced pass's tracer."""
    plain, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, outputs = run_pass(inputs.commands)
        plain.append(wall)
        checked.record(outputs)
        tracer = Tracer()
        with tracer:
            wall, outputs = run_pass(inputs.commands)
        traced.append(wall)
        checked.record(outputs)
        summaries.append(tracer.summary())
    names = {name for s in summaries for name in s}
    metrics = {name: statistics.median(s.get(name, 0) for s in summaries) for name in names}
    metrics.update(dense_kernel_seconds(seed))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced}, tracer


# -- provenance and output ----------------------------------------------------


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import lightsout

    src_lines = sum(
        1
        for path in sorted((SRC / "lightsout").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "backend": lightsout.BACKEND,
        "version": lightsout.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


def print_summary(args, checked: Checked, tally: Tally, metrics: dict, units: dict, record: dict):
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(checked.inputs.commands)} invocations and {checked.rows_per_pass} rows per pass")
    for name, values in record["samples"].items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"  {name}: {len(values)} samples, quartiles "
              f"{q[0]:.4f} / {statistics.median(values):.4f} / {q[2]:.4f}")
    traced_pass = statistics.median(record["samples"].get("traced_wall_s", [0]))
    for name, unit in units.items():
        line = f"  {name:<40} {metrics.get(name, 0):>14.6g} {unit}"
        if traced_pass and name.endswith(".self_s"):
            line += f"  ({metrics.get(name, 0) / traced_pass:.1%} of a traced pass)"
        print(line)
    print(f"  {'failed_frac':<40} {tally.failed / tally.attempted:>14.6g} frac "
          f"({tally.failed} of {tally.attempted} rows)")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    for item in record.get("invocations", []):
        total = sum(item["self_s"].values())
        top = sorted(item["self_s"].items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{name} {s / total:.0%}" for name, s in top)
        print(f"  lightsout {label(item['argv'])}: {total:.3f} s traced; {shares}")
    print("provenance " + json.dumps(record["provenance"]))


def run_workload(args) -> int:
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        inputs = WORKLOADS[args.workload](args.seed, Path(workdir))
        checked = Checked(inputs)
        record: dict = {"workload": args.workload, "provenance": provenance(args.seed)}
        if args.trace:
            metrics, samples, tracer = measure_layers(inputs, checked, args.seconds, args.seed)
            record["invocations"] = [
                {"argv": argv, "self_s": layers}
                for argv, layers in zip(inputs.commands, per_root(tracer.spans))
            ]
            record["spans"] = tracer.spans
        else:
            metrics, samples = measure_end_to_end(inputs, checked, args.seconds)
        tally = checked.tally()
    record.update(metrics=metrics, samples=samples, attempted=tally.attempted, failed=tally.failed)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record), encoding="utf-8")

    # Backends BENCHMARK.json does not declare yet are shown, not reported.
    extra = {k: "s" for k in metrics if k.startswith("gf2kernel.dense_") and k not in units}
    print_summary(args, checked, tally, metrics, {**units, **extra}, record)
    print(f"record written to {out_path.relative_to(ROOT)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        combined["metrics"][f"{name}.failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "frac"
        }
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(load_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lightsout" / "__init__.py").is_file():
        print(f"error: no lightsout package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lightsout

    if Path(lightsout.__file__).resolve().parent != SRC / "lightsout":
        print(f"error: imported lightsout from {lightsout.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
