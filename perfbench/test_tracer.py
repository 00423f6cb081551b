"""Tests for the benchmark's tracer and its independent output checks.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import types

import pytest

from lightsout import cli
from perfbench.check import check_comparison_row, check_solve_row
from perfbench.tracer import COUNTERS, LAYERS, Tracer, per_root, self_times


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _bindings() -> dict:
    """(owner, attribute) -> current object, for every binding the tracer wraps."""
    out = {}
    for module, attr, *_ in LAYERS:
        owner = importlib.import_module(module)
        out[(owner, attr)] = getattr(owner, attr)
    for module, cls, attr, _ in COUNTERS:
        owner = getattr(importlib.import_module(module), cls)
        out[(owner, attr)] = getattr(owner, attr)
    return out


def test_restore_puts_back_every_original_object():
    before = _bindings()
    with Tracer() as tracer:
        during = _bindings()
        code, _ = _run(["nullity", "--g", "petersen", "--h", "path:4"])
    assert code == 0
    assert all(during[k] is not v for k, v in before.items())
    assert all(getattr(owner, attr) is before[(owner, attr)] for owner, attr in before)
    assert tracer.counts["gfpoly.Poly.constructed"] > 0


def test_restore_runs_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_self_times_of_a_cli_run_are_nonnegative_and_sum_to_the_root():
    with Tracer() as tracer:
        _run(["nullity", "--g", "petersen", "--h", "path:4"])
    spans = tracer.spans
    roots = [s for s in spans if s[3] < 0]
    assert [r[0] for r in roots] == ["cli.run"]
    own = self_times(spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == roots[0][2] - roots[0][1]
    layers = per_root(spans)[0]
    assert sum(layers.values()) == pytest.approx((roots[0][2] - roots[0][1]) / 1e9)
    assert layers["snf.smith_normal_form"] > 0


def test_nested_spans_record_parents_and_self_time():
    ns = types.SimpleNamespace()

    def leaf():
        return 1

    def inner():
        return ns.leaf() + ns.leaf()

    def outer():
        return ns.inner() + ns.leaf()

    ns.leaf, ns.inner, ns.outer = leaf, inner, outer
    tracer = Tracer()
    for name in ("leaf", "inner", "outer"):
        tracer.wrap(ns, name, name)
    try:
        assert ns.outer() == 3
    finally:
        tracer.restore()
    assert ns.outer is outer and ns.inner is inner and ns.leaf is leaf
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "leaf", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1, 0]
    own = self_times(tracer.spans)
    assert min(own) >= 0
    assert sum(own) == tracer.spans[0][2] - tracer.spans[0][1]
    assert tracer.summary()["leaf.calls"] == 3


def test_sylvester_operator_repeat_share_is_one_half_on_one_product_solve():
    with Tracer() as tracer:
        code, report = _run(["solve", "--g", "path:3", "--h", "path:5", "--mode", "closed"])
    assert code == 0 and report.results[0]["solvable"] == "yes"
    summary = tracer.summary()
    assert summary["gfmat.sylvester_operator.calls"] == 2
    assert summary["gfmat.sylvester_operator.repeat_share"] == 0.5


def test_checker_accepts_the_program_answer_and_rejects_tampered_ones():
    _, report = _run(["solve", "--g", "path:3", "--h", "path:5", "--mode", "closed"])
    row = report.results[0]
    assert check_solve_row(row, {}) is None
    first = "1" if row["presses"][0] == "0" else "0"
    assert check_solve_row({**row, "presses": first + row["presses"][1:]}, {})
    assert check_solve_row({**row, "solution_exponent": row["solution_exponent"] + 1}, {})
    assert check_solve_row({**row, "solvable": "no"}, {})


def test_checker_recomputes_sweep_nullities():
    _, report = _run(["sweep", "paths:2-5"])
    assert all(check_comparison_row(row, {}) is None for row in report.results)
    row = report.results[-1]
    wrong = row["nullity_oracle"] + 1
    assert check_comparison_row({**row, "nullity_oracle": wrong, "nullity_formula": wrong}, {})
    assert check_comparison_row({**row, "oracle_match": "skipped"}, {})
