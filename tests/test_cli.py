"""CLI contract: exit codes, report schema, CSV/JSON agreement, reproducibility."""

import csv
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from helpers import product_solve_two_eliminations

import lightsout
from lightsout import _gf2kernel, cli, formulas, game, gfmat, gfpoly, snf
from lightsout.gfpoly import Poly


SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report_schema.json").read_text(encoding="utf-8")
)


def run_json(argv, capsys):
    code, report = cli.run([*argv, "--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    return code, report, payload


#: Each verb's required arguments, and README's Flags table: flag -> (a value,
#: the verbs that read it).  --json and --csv are read by every verb.
VERB_REQUIRED = {
    "charpoly": ["--g", "path:3"],
    "snf": ["--g", "path:3"],
    "nullity": ["--g", "path:3", "--h", "path:2"],
    "bound": ["--g", "path:3", "--h", "path:2"],
    "solve": ["--g", "path:3"],
    "counts": ["--g", "path:3"],
    "sweep": ["paths:2-3"],
    "verify": ["lemma"],
}
FLAG_READERS = {
    "--g": ("path:4", {"charpoly", "snf", "nullity", "bound", "solve", "counts"}),
    "--h": ("path:5", {"nullity", "bound", "solve"}),
    "--mode": ("closed", set(VERB_REQUIRED) - {"verify"}),
    "--p": ("3", {"charpoly", "snf", "nullity", "bound", "sweep"}),
    "--seed": ("2", {"sweep", "verify"}),
    "--max-oracle": ("9", {"charpoly", "nullity", "bound", "solve", "sweep", "verify"}),
}


def _verb_flag_cells():
    """(verb, flag, value, whether the verb reads the flag) for every verb and flag."""
    for verb in VERB_REQUIRED:
        for flag, (value, readers) in FLAG_READERS.items():
            yield verb, flag, value, verb in readers


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _ = cli.run(["counts", "--g", "path:3"])
        capsys.readouterr()
        assert code == 0

    def test_unknown_verb_is_usage_error(self, capsys):
        code, report = cli.run(["frobnicate"])
        capsys.readouterr()
        assert (code, report) == (2, None)

    def test_bad_graph_spec_is_usage_error(self, capsys):
        code, _ = cli.run(["counts", "--g", "dodecahedron"])
        err = capsys.readouterr().err
        assert code == 2
        assert "dodecahedron" in err

    def test_bad_prime_is_usage_error(self, capsys):
        code, _ = cli.run(["snf", "--g", "path:2", "--p", "4"])
        capsys.readouterr()
        assert code == 2

    def test_graph_file_errors_carry_position(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("3\n0 0\n")
        code, _ = cli.run(["counts", "--g", f"file:{path}"])
        err = capsys.readouterr().err
        assert code == 2
        assert ":2:" in err

    def test_missing_required_flag(self, capsys):
        code, _ = cli.run(["nullity", "--g", "petersen"])
        capsys.readouterr()
        assert code == 2

    def test_no_parse_carries_over_to_the_next_run(self, capsys):
        # run parses with one parser for the whole process
        code, _, closed = run_json(["sweep", "paths:2-3", "--mode", "closed", "--max-oracle", "1"], capsys)
        assert code == 0 and {row["oracle_match"] for row in closed["results"]} == {"skipped"}
        code, _, payload = run_json(["sweep", "paths:2-3"], capsys)
        assert code == 0
        assert {row["mode"] for row in payload["results"]} == {"open"}
        assert {row["oracle_match"] for row in payload["results"]} == {"ok"}
        assert cli.run(["nullity", "--g", "petersen"]) == (2, None)
        assert cli.run(["counts", "--g", "path:3"])[0] == 0
        capsys.readouterr()

    @pytest.mark.parametrize("spec", ["grid:0x5", "grid:5x0"])
    def test_zero_sized_grid_is_usage_error(self, spec, capsys):
        code, _ = cli.run(["counts", "--g", spec])
        assert code == 2
        assert capsys.readouterr().err == "error: grid:MxN needs M, N >= 1\n"

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["counts", "--g", "path:0"], 2, "", "error: path:n needs n >= 1\n"),
            (["snf", "--g", "star:0"], 2, "", "error: star:n needs n >= 1\n"),
            (["snf", "--g", "complete:0"], 2, "", "error: complete:n needs n >= 1\n"),
            (["sweep", "stars:4-4"], 0, "(no results)\n", ""),
        ],
    )
    def test_empty_graphs_and_sweeps(self, argv, code, out, err, capsys):
        assert cli.run(argv)[0] == code
        assert capsys.readouterr() == (out, err)

    def test_negative_max_oracle_is_usage_error(self, capsys):
        argv = ["nullity", "--g", "path:3", "--h", "path:3", "--max-oracle"]
        assert cli.run(argv + ["-5"]) == (2, None)
        assert "--max-oracle: expected an integer >= 0, got '-5'" in capsys.readouterr().err
        assert cli.run(argv + ["abc"]) == (2, None)
        assert "--max-oracle: expected an integer >= 0, got 'abc'" in capsys.readouterr().err
        code, report = cli.run(argv + ["0"])
        capsys.readouterr()
        assert code == 0
        assert report.results[0]["nullity_oracle"] == "skipped"

    @pytest.mark.parametrize(
        "argv, size, default",
        [
            (["nullity", "--g", "grid:8x8", "--h", "grid:8x8", "--p", "3"], 4096, "skipped"),
            (["nullity", "--g", "grid:4x8", "--h", "grid:4x8", "--p", "5"], 1024, 7),
            (["sweep", "paths:32-33", "--p", "3"], 1089, "skipped"),
            (["nullity", "--g", "grid:8x8", "--h", "grid:8x8"], 4096, 7),
        ],
    )
    def test_default_elimination_cap_is_lower_at_odd_p(
        self, argv, size, default, capsys, monkeypatch
    ):
        # odd-p elimination takes about 3 s at 1024 rows and over 150 s at 4096;
        # an explicit --max-oracle is honored as given
        calls = []
        monkeypatch.setattr(formulas, "oracle_nullity", lambda A, B, **k: calls.append(k) or 7)
        _, report = cli.run(argv)
        assert report.results[-1]["operator_size"] == size
        assert report.results[-1]["nullity_oracle"] == default
        calls.clear()
        _, report = cli.run([*argv, "--max-oracle", "4096"])
        capsys.readouterr()
        assert report.results[-1]["nullity_oracle"] == 7
        assert calls[-1] == {"max_dim": 4096}

    def test_charpoly_oracle_cap_does_not_depend_on_p(self, capsys, monkeypatch):
        # the Berkowitz oracle's cost does not depend on p: 64 vertices (n * n = 4096) run
        calls = []
        monkeypatch.setattr(snf, "charpoly_oracle", lambda A, p: calls.append(p) or Poly((1,), p))
        cli.run(["charpoly", "--g", "grid:8x8", "--p", "3"])
        _, skipped = cli.run(["charpoly", "--g", "grid:5x13", "--p", "3"])
        capsys.readouterr()
        assert calls == [3]
        assert skipped.results[0]["charpoly_oracle"] == "skipped"

    def test_unwritable_csv_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "t.csv"
        code, _ = cli.run(["snf", "--g", "path:3", "--csv", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_formula_oracle_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(formulas, "oracle_nullity", lambda *a, **k: 999)
        code, report = cli.run(["nullity", "--g", "path:2", "--h", "path:2"])
        capsys.readouterr()
        assert code == 1
        assert report.violations

    def test_flag_the_verb_does_not_read_is_usage_error(self, capsys):
        for verb, flag, value, reads in _verb_flag_cells():
            if not reads:
                argv = [verb, *VERB_REQUIRED[verb], flag, value]
                assert cli.run(argv) == (2, None), argv
        assert "unrecognized arguments: --p 3" in capsys.readouterr().err

    def test_flag_the_verb_reads_is_parsed(self):
        # parse only: nothing runs, and no CSV is written
        for verb, flag, value, reads in _verb_flag_cells():
            if reads:
                argv = [verb, *VERB_REQUIRED[verb], flag, value, "--json", "--csv", "rows.csv"]
                args = cli.build_parser().parse_args(argv)
                assert str(getattr(args, flag[2:].replace("-", "_"))) == value, argv
                assert (args.verb, args.json, args.csv) == (verb, True, "rows.csv")

    def test_internal_fault_exits_three(self, capsys, monkeypatch):
        def broken(A):
            raise ValueError("simulated fault")

        monkeypatch.setattr(snf, "invariant_factors", broken)
        code, report = cli.run(["nullity", "--g", "path:2", "--h", "path:2"])
        assert (code, report) == (3, None)
        assert "error: internal ValueError: simulated fault" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, message",
        [
            ("paths:9-3", "reversed paths range '9-3'"),
            ("paths:3", "malformed paths range '3'"),
            ("random:x", "malformed random count 'x'"),
        ],
        ids=["reversed", "missing-dash", "random-count"],
    )
    def test_reversed_sweep_range_is_usage_error(self, target, message, capsys):
        assert cli.run(["sweep", target]) == (2, None)
        assert message in capsys.readouterr().err

    def test_non_utf8_graph_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe3\x00\n\x00")
        assert cli.run(["nullity", "--g", f"file:{path}", "--h", "path:2"]) == (2, None)
        assert "cannot read graph file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, n, cap",
        [
            (["nullity", "--g", "grid:65x65", "--h", "path:2", "--max-oracle", "0"], 4225, 4096),
            (["bound", "--g", "path:2", "--h", "grid:65x65"], 4225, 4096),
            (["snf", "--g", "grid:150x150"], 22500, 4096),
            (["charpoly", "--g", "grid:65x65"], 4225, 4096),
            (["snf", "--g", "grid:33x32", "--p", "3"], 1056, 1024),
            (["nullity", "--g", "path:2", "--h", "grid:33x32", "--p", "5"], 1056, 1024),
        ],
    )
    def test_factor_over_the_formula_cap_is_refused_at_once(
        self, argv, n, cap, capsys, monkeypatch
    ):
        sizes = []
        krylov = snf.krylov_relations
        monkeypatch.setattr(snf, "krylov_relations", lambda A: sizes.append(A.rows) or krylov(A))
        start = time.perf_counter()
        assert cli.run(argv) == (2, None)
        assert time.perf_counter() - start < 1
        assert max(sizes, default=0) <= cap
        out, err = capsys.readouterr()
        assert out == ""
        p = argv[argv.index("--p") + 1] if "--p" in argv else "2"
        assert err == (
            f"error: factor graph has {n} vertices, over the formula cap of {cap} at p = {p}\n"
        )

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["snf", "--g", "path:5000"], 5000),
            (["charpoly", "--g", "complete:5000"], 5000),
            (["nullity", "--g", "grid:65x65", "--h", "path:2", "--max-oracle", "0"], 4225),
            (["sweep", "paths:4094-4200"], 4097),
        ],
    )
    def test_over_cap_family_spec_builds_no_graph(self, argv, n, capsys, monkeypatch):
        # the size is read off the spec: a sweep names its members up to the
        # first one over the cap and builds none of them
        def refuse(*_):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(game.Graph, "from_edges", refuse)
        assert cli.run(argv) == (2, None)
        assert capsys.readouterr().err == (
            f"error: factor graph has {n} vertices, over the formula cap of 4096 at p = 2\n"
        )

    def test_over_cap_file_spec_is_refused_once_read(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("4097\n0 1\n", encoding="utf-8")
        assert cli.run(["snf", "--g", f"file:{path}"]) == (2, None)
        assert capsys.readouterr().err == (
            "error: factor graph has 4097 vertices, over the formula cap of 4096 at p = 2\n"
        )

    def test_formula_cap_admits_a_factor_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "FORMULA_VERTEX_CAP", 9)
        monkeypatch.setattr(cli, "FORMULA_VERTEX_CAP_ODD_P", 8)
        assert cli.run(["nullity", "--g", "path:9", "--h", "path:2"])[0] == 0
        assert cli.run(["nullity", "--g", "petersen", "--h", "path:2"]) == (2, None)
        assert cli.run(["snf", "--g", "path:8", "--p", "3"])[0] == 0
        assert cli.run(["snf", "--g", "path:9", "--p", "3"]) == (2, None)
        capsys.readouterr()

    @pytest.mark.parametrize("p, cap", [("2", "FORMULA_VERTEX_CAP"), ("3", "FORMULA_VERTEX_CAP_ODD_P")])
    def test_over_cap_family_sweep_is_refused_before_the_first_row(
        self, p, cap, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, cap, 9)
        calls = []
        monkeypatch.setattr(snf, "invariant_factors", calls.append)
        assert cli.run(["sweep", "paths:7-12", "--p", p]) == (2, None)
        assert calls == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: factor graph has 10 vertices, over the formula cap of 9 at p = {p}\n"

    def test_cycles_range_below_three_is_usage_error(self, capsys):
        assert cli.run(["sweep", "cycles:1-2"]) == (2, None)
        assert "cycle:n needs n >= 3" in capsys.readouterr().err
        assert cli.run(["sweep", "cycles:2-5"]) == (2, None)
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        code, _ = cli.run(["--help"])
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("verb", VERB_REQUIRED)
    def test_verb_help_exits_zero(self, verb, capsys):
        assert cli.run([verb, "--help"]) == (0, None)
        assert capsys.readouterr().out.startswith(f"usage: lightsout {verb} [-h]")


def _off_by_one_where(original, wrong):
    """oracle_nullity that adds 1 whenever wrong(A, B) holds."""
    return lambda A, B, **kw: original(A, B, **kw) + bool(wrong(A, B))


def _first_press_flipped(solve_sylvester):
    """gfmat.solve_sylvester whose solution has its first entry flipped."""

    def tampered(A, B, b):
        x, nullity, certificate = solve_sylvester(A, B, b)
        return (1 - x[0], *x[1:]), nullity, certificate

    return tampered


#: verb -> (argv, module, name to patch, patch from the original, rows the patch fails)
VERDICT_CASES = {
    "solve": (
        ["solve", "--g", "path:3", "--h", "path:5", "--mode", "closed"],
        gfmat,
        "solve_sylvester",
        _first_press_flipped,
        lambda row: True,
    ),
    "charpoly": (
        ["charpoly", "--g", "petersen"],
        snf,
        "charpoly_oracle",
        lambda f: lambda M, p: Poly((1,), p),
        lambda row: True,
    ),
    "nullity": (
        ["nullity", "--g", "path:3", "--h", "cycle:4"],
        formulas,
        "oracle_nullity",
        lambda f: _off_by_one_where(f, lambda A, B: True),
        lambda row: True,
    ),
    "bound": (
        ["bound", "--g", "petersen", "--h", "path:4"],
        formulas,
        "gcd_lower_bound",
        lambda f: lambda *args: 999,
        lambda row: True,
    ),
    "sweep": (
        ["sweep", "paths:2-4"],
        formulas,
        "oracle_nullity",
        lambda f: _off_by_one_where(f, lambda A, B: A.rows == 3),
        lambda row: row["g"] == "path:3",
    ),
    "verify-conjecture": (
        ["verify", "conjecture-closed", "--seed", "4"],
        formulas,
        "oracle_nullity",
        lambda f: _off_by_one_where(f, lambda A, B: B.rows == 3),
        lambda row: row["h"].endswith("(n=3)"),
    ),
    "verify-example2": (
        ["verify", "example2"],
        formulas,
        "oracle_nullity",
        lambda f: _off_by_one_where(f, lambda A, B: B.rows == 2),
        lambda row: row["m"] == 2,
    ),
}


class TestVerdicts:
    """One rule on every comparison verb: the failed rows are the violations, and exit 1."""

    @pytest.mark.parametrize("verb", VERDICT_CASES)
    def test_failed_rows_are_exactly_the_violations(self, verb, capsys, monkeypatch):
        argv, module, name, patch, fails = VERDICT_CASES[verb]
        monkeypatch.setattr(cli, "RANDOM_PAIR_COUNT", 30)
        code, report = cli.run(argv)
        assert (code, report.violations) == (0, [])
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
        code, report = cli.run(argv)
        capsys.readouterr()
        failing = [row for row in report.results if fails(row)]
        assert code == 1
        assert failing and report.violations == failing
        for row in report.results:
            verdicts = (row.get("oracle_match"), row.get("bound_holds"))
            assert ("mismatch" in verdicts or "violated" in verdicts) == (row in failing)

    def test_lemma_failed_trials_are_the_violations(self, capsys, monkeypatch):
        assert cli.run(["verify", "lemma"])[1].violations == []
        original = formulas.partition_min_sum
        monkeypatch.setattr(formulas, "partition_min_sum", lambda pi, tau: original(pi, tau) - 1)
        code, report = cli.run(["verify", "lemma"])
        capsys.readouterr()
        assert code == 1
        assert len(report.violations) == report.results[0]["inequality_violations"] > 0
        assert all(v["min_sum"] < v["floor"] for v in report.violations)

    def test_lemma_claims_the_inequality_held_only_when_it_did(self, capsys, monkeypatch):
        original = formulas.partition_min_sum
        monkeypatch.setattr(formulas, "partition_min_sum", lambda pi, tau: original(pi, tau) - 1)
        _, report = cli.run(["verify", "lemma"])
        capsys.readouterr()
        assert report.results[0]["equality_condition_mismatches"] > 0
        assert any("does not characterize equality" in note for note in report.notes)
        assert not any("held everywhere" in note for note in report.notes)

    def test_over_cap_rows_are_noted_after_the_handler_notes(self, capsys, monkeypatch):
        _, report = cli.run(["nullity", "--g", "path:3", "--h", "path:3", "--max-oracle", "0"])
        assert report.notes == ["1 rows exceeded the oracle cap and were skipped"]
        monkeypatch.setattr(cli, "RANDOM_PAIR_COUNT", 30)
        _, report = cli.run(["verify", "conjecture-open", "--max-oracle", "0"])
        capsys.readouterr()
        assert report.notes == [
            "bound held on 30/30 pairs in open mode",
            "30 rows exceeded the oracle cap and were skipped",
        ]

    def test_example2_with_no_row_checked_tallies_no_reading(self, capsys):
        code, _, payload = run_json(["verify", "example2", "--max-oracle", "0"], capsys)
        assert code == 0
        assert all(row["oracle_match"] == "skipped" for row in payload["results"])
        assert payload["notes"] == ["36 rows exceeded the oracle cap and were skipped"]


class TestCommands:
    def test_nullity_petersen_pair(self, capsys):
        code, _, payload = run_json(
            ["nullity", "--g", "petersen", "--h", "petersen", "--mode", "open"], capsys
        )
        assert code == 0
        row = payload["results"][0]
        assert row["nullity_formula"] == 42
        assert row["nullity_oracle"] == 42
        assert row["oracle_match"] == "ok"
        assert payload["violations"] == []

    def test_snf_star5_rendering(self, capsys):
        code, _, payload = run_json(["snf", "--g", "star:5", "--p", "2"], capsys)
        assert code == 0
        assert payload["results"][0]["invariant_factors"] == "1, 1, x, x, x^3"

    def test_counts_grid_closed(self, capsys):
        code, _, payload = run_json(
            ["counts", "--g", "grid:5x5", "--mode", "closed"], capsys
        )
        assert code == 0
        row = payload["results"][0]
        assert (row["r"], row["nu"]) == (23, 2)

    @pytest.mark.parametrize("n, nu", [(4, 4), (5, 2), (17, 2), (64, 28)])
    def test_counts_grid_closed_equals_the_path_pair_formula(self, n, nu, capsys):
        _, _, counts = run_json(["counts", "--g", f"grid:{n}x{n}", "--mode", "closed"], capsys)
        _, _, pair = run_json(
            ["nullity", "--g", f"path:{n}", "--h", f"path:{n}", "--mode", "closed",
             "--max-oracle", "0"],
            capsys,
        )
        assert counts["results"][0]["nu"] == pair["results"][0]["nullity_formula"] == nu

    def test_charpoly_routes_agree(self, capsys):
        code, _, payload = run_json(["charpoly", "--g", "petersen"], capsys)
        assert code == 0
        row = payload["results"][0]
        assert row["charpoly_snf"] == row["charpoly_oracle"]
        assert row["oracle_match"] == "ok"

    def test_charpoly_oracle_over_cap_is_skipped_uncalled(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(snf, "charpoly_oracle", lambda *args: calls.append(args))
        code, _, payload = run_json(["charpoly", "--g", "path:65"], capsys)
        assert code == 0
        row = payload["results"][0]
        assert row["charpoly_oracle"] == row["oracle_match"] == "skipped"
        assert row["charpoly_snf"] != "skipped"
        assert payload["notes"] == ["1 rows exceeded the oracle cap and were skipped"]
        assert calls == []

    def test_charpoly_oracle_cap_counts_n_squared(self, capsys):
        for spec, verdict in (("path:3", "ok"), ("path:4", "skipped")):
            code, _, payload = run_json(["charpoly", "--g", spec, "--max-oracle", "10"], capsys)
            assert code == 0
            assert payload["results"][0]["oracle_match"] == verdict

    def test_bound_reports_charpolys(self, capsys):
        code, _, payload = run_json(
            ["bound", "--g", "path:2", "--h", "path:2"], capsys
        )
        assert code == 0
        row = payload["results"][0]
        assert row["charpoly_g"] == "x^2 + 1"
        assert row["lower_bound"] == 2
        assert row["bound_holds"] == "ok"

    @pytest.mark.parametrize("p", [2, 3])
    def test_bound_closed_reports_open_charpolys(self, p, capsys):
        code, _, payload = run_json(
            ["bound", "--g", "cycle:6", "--h", "path:4", "--mode", "closed", "--p", str(p)],
            capsys,
        )
        assert code == 0
        row = payload["results"][0]
        for column, spec in (("charpoly_g", "cycle:6"), ("charpoly_h", "path:4")):
            A = game.switching_matrix(game.build_family(spec), "open", p)
            assert row[column] == str(snf.charpoly_oracle(A, p))

    def test_zero_vertex_graph(self, tmp_path, capsys):
        spec = f"file:{tmp_path / 'empty.txt'}"
        (tmp_path / "empty.txt").write_text("0\n")
        code, _, payload = run_json(["charpoly", "--g", spec], capsys)
        assert code == 0
        row = payload["results"][0]
        assert row["charpoly_snf"] == row["charpoly_oracle"] == "1"
        for verb in ("nullity", "bound"):
            code, _, payload = run_json([verb, "--g", spec, "--h", "path:3"], capsys)
            assert code == 0
            row = payload["results"][0]
            assert (row["nullity_formula"], row["nullity_oracle"]) == (0, 0)
        assert row["charpoly_g"] == "1"

    def test_solve_single_graph(self, capsys):
        code, _, payload = run_json(
            ["solve", "--g", "grid:5x5", "--mode", "closed"], capsys
        )
        assert code == 0
        row = payload["results"][0]
        assert row["solvable"] == "yes"
        assert len(row["presses"]) == 25
        assert row["solution_exponent"] == 2

    def test_solve_product_game(self, capsys):
        code, _, payload = run_json(
            ["solve", "--g", "path:2", "--h", "path:2"], capsys
        )
        assert code == 0
        row = payload["results"][0]
        assert row["solvable"] == "yes"
        assert row["solution_exponent"] == 2

    def test_solve_unsolvable(self, capsys):
        # single vertex, open mode: pressing does nothing, light stays on
        code, _, payload = run_json(["solve", "--g", "path:1"], capsys)
        assert code == 0
        assert payload["results"][0]["solvable"] == "no"

    def test_solve_product_with_a_zero_vertex_factor(self, tmp_path, capsys):
        spec = f"file:{tmp_path / 'empty.txt'}"
        (tmp_path / "empty.txt").write_text("0\n")
        for g, h, presses in ((spec, "path:3", ""), ("path:3", spec, "//")):
            code, _, payload = run_json(["solve", "--g", g, "--h", h], capsys)
            assert code == 0
            row = payload["results"][0]
            assert (row["solvable"], row["presses"], row["solution_exponent"]) == (
                "yes",
                presses,
                0,
            )

    def test_solve_product_over_cap_is_skipped_unbuilt(self, capsys, monkeypatch):
        def unbuildable(A, B):
            raise AssertionError("operator built over the cap")

        monkeypatch.setattr(gfmat, "sylvester_operator", unbuildable)
        code, _, payload = run_json(
            ["solve", "--g", "path:3", "--h", "path:3", "--max-oracle", "4"], capsys
        )
        assert code == 0
        row = payload["results"][0]
        assert row["solvable"] == row["presses"] == row["solution_exponent"] == "skipped"

    def test_solve_product_over_cap_builds_only_file_graphs(self, tmp_path, capsys, monkeypatch):
        # a family's order is read off its spec: path:10000000000 is never built
        built, build = [], game.build_family

        def file_graphs_only(spec):
            built.append(spec)
            assert spec.startswith("file:"), f"{spec} built over the cap"
            return build(spec)

        monkeypatch.setattr(game, "build_family", file_graphs_only)
        monkeypatch.setattr(game, "switching_matrix", None)
        spec = _write_graph(tmp_path / "g.txt", game.path_graph(3))
        for g in ("path:2", spec):
            argv = ["solve", "--g", g, "--h", "path:10000000000", "--max-oracle", "4"]
            code, report = cli.run(argv)
            assert code == 0 and report.results[0]["oracle_match"] == "skipped"
            assert report.results[0]["n"] == 10_000_000_000
        capsys.readouterr()
        assert built == [spec]

    def test_solve_product_over_cap_is_noted(self, capsys):
        code, _, payload = run_json(
            ["solve", "--g", "path:3", "--h", "path:3", "--max-oracle", "4"], capsys
        )
        assert code == 0
        assert payload["notes"] == ["1 rows exceeded the oracle cap and were skipped"]

    def test_nullity_gf3(self, capsys):
        code, _, payload = run_json(
            ["nullity", "--g", "cycle:3", "--h", "cycle:3", "--p", "3"], capsys
        )
        assert code == 0
        assert payload["results"][0]["oracle_match"] == "ok"

    def test_oracle_cap_skips(self, capsys):
        code, _, payload = run_json(
            ["nullity", "--g", "petersen", "--h", "petersen", "--max-oracle", "50"],
            capsys,
        )
        assert code == 0
        row = payload["results"][0]
        assert row["nullity_oracle"] == "skipped"
        assert row["oracle_match"] == "skipped"
        assert row["nullity_formula"] == 42


def _write_graph(path: Path, g: game.Graph) -> str:
    path.write_text(f"{g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    return f"file:{path}"


class TestSingleSolve:
    """solve --g: one elimination of [M | ones], against the library's kernel API."""

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_rows_equal_the_solve_presses_rows(self, mode, tmp_path, capsys):
        rng = random.Random(2707)
        specs = [f"grid:{m}x{n}" for m in range(1, 13) for n in range(1, 13)]
        specs += [f"path:{n}" for n in range(1, 13)] + [f"cycle:{n}" for n in range(3, 13)]
        specs += [f"star:{n}" for n in range(1, 13)] + ["petersen"]
        specs.append(_write_graph(tmp_path / "empty.txt", game.Graph(0, frozenset())))
        for k in range(100):
            g = game.random_graph(rng.randint(1, 12), rng)
            specs.append(_write_graph(tmp_path / f"g{k}.txt", g))
        for spec in specs:
            g = game.build_family(spec)
            sol = game.solve_presses(game.LightsInstance(g, mode, (1,) * g.vertex_count))
            want = ("no", "-", "-")
            if sol:
                want = ("yes", "".join(map(str, sol.presses)), sol.count_exponent)
            code, report = cli.run(["solve", "--g", spec, "--mode", mode])
            row = report.results[0]
            assert code == 0
            assert (row["solvable"], row["presses"], row["solution_exponent"]) == want, spec
        capsys.readouterr()

    def test_one_forward_elimination_and_no_kernel_basis(self, capsys, monkeypatch):
        calls = []
        echelon_bits, kernel_basis = _gf2kernel.echelon_bits, gfmat.kernel_basis

        def counted_echelon(rows, ncols, reduced=True):
            calls.append(("echelon_bits", reduced))
            return echelon_bits(rows, ncols, reduced)

        def counted_kernel(M):
            calls.append(("kernel_basis",))
            return kernel_basis(M)

        monkeypatch.setattr(_gf2kernel, "echelon_bits", counted_echelon)
        monkeypatch.setattr(gfmat, "kernel_basis", counted_kernel)
        code, report = cli.run(["solve", "--g", "grid:8x8", "--mode", "closed"])
        capsys.readouterr()
        assert code == 0 and report.results[0]["solvable"] == "yes"
        assert calls == [("echelon_bits", False)]


class TestProductSolve:
    """solve --g --h: a Krylov chase along one factor, checked on a build of L."""

    @staticmethod
    def presses_solve(row, L) -> bool:
        """Whether the row's presses, row i of X to index j*m + i, turn L's lights off."""
        rows = row["presses"].split("/")
        x = [int(rows[i][j]) for j in range(row["n"]) for i in range(row["m"])]
        return L.mul_vec(x) == (1,) * L.rows

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_path_products_solve_the_grid_game(self, mode, capsys):
        for m in range(1, 7):
            for n in range(1, 7):
                _, product = cli.run(["solve", "--g", f"path:{m}", "--h", f"path:{n}", "--mode", mode])
                _, grid = cli.run(["solve", "--g", f"grid:{m}x{n}", "--mode", mode])
                got, want = product.results[0], grid.results[0]
                assert got["oracle_match"] == "ok"
                assert (got["solvable"], got["solution_exponent"]) == (
                    want["solvable"],
                    want["solution_exponent"],
                ), (m, n)
                if got["solvable"] == "yes":
                    L = game.switching_matrix(game.build_family(f"grid:{m}x{n}"), mode)
                    assert self.presses_solve(got, L), (m, n)
        capsys.readouterr()

    @pytest.mark.parametrize("g, h", [("petersen", "cycle:7"), ("path:3", "path:3")])
    def test_one_elimination_and_two_operator_builds(self, g, h, capsys, monkeypatch):
        # the one elimination is the chase's k*m rows, fewer than L's m*n
        calls, echelon_rows = Counter(), []
        for module, name in (
            (_gf2kernel, "echelon_bits"),
            (gfmat, "sylvester_operator"),
            (formulas, "oracle_nullity"),
        ):

            def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                if _name == "echelon_bits":
                    echelon_rows.append(len(args[0]))
                return _f(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        code, report = cli.run(["solve", "--g", g, "--h", h])
        capsys.readouterr()
        row = report.results[0]
        assert code == 0 and row["oracle_match"] == "ok"
        assert calls == {"echelon_bits": 1, "sylvester_operator": 2}
        assert echelon_rows[0] < row["m"] * row["n"]

    def test_unsolvable_product_reads_no_with_its_certificate_checked(self, capsys):
        code, _, payload = run_json(["solve", "--g", "path:1", "--h", "path:1"], capsys)
        assert code == 0 and payload["violations"] == []
        row = payload["results"][0]
        assert (row["solvable"], row["presses"], row["solution_exponent"]) == ("no", "-", "-")
        assert row["oracle_match"] == "ok"

    @pytest.mark.parametrize(
        "side, tamper",
        [
            (1, lambda y: (0,)),  # a null vector of L, but y . vec(C) = 0
            (3, lambda y: (1 - y[0], 1 - y[1], *y[2:])),  # y . vec(C) = 1, but L y != 0
            (3, lambda y: None),
        ],
    )
    def test_a_tampered_certificate_reads_mismatch(self, side, tamper, capsys, monkeypatch):
        original = gfmat.solve_sylvester

        def tampered(A, B, b):
            x, nullity, certificate = original(A, B, b)
            return x, nullity, tamper(certificate)

        monkeypatch.setattr(gfmat, "solve_sylvester", tampered)
        code, report = cli.run(["solve", "--g", f"path:{side}", "--h", f"path:{side}"])
        capsys.readouterr()
        row = report.results[0]
        assert (row["solvable"], row["oracle_match"]) == ("no", "mismatch")
        assert code == 1 and report.violations == [row]

    def test_rows_equal_the_two_elimination_route(self, tmp_path, capsys):
        rng = random.Random(2104)
        empty = _write_graph(tmp_path / "empty.txt", game.Graph(0, frozenset()))
        cases = [(empty, "path:3"), ("path:3", empty), (empty, empty)]
        for k in range(200):
            g, h = (game.random_graph(rng.randint(1, 7), rng) for _ in range(2))
            cases.append(
                (_write_graph(tmp_path / f"g{k}.txt", g), _write_graph(tmp_path / f"h{k}.txt", h))
            )
        for g, h in cases:
            B = game.switching_matrix(game.build_family(h), "open")
            for mode in ("open", "closed"):
                code, report = cli.run(["solve", "--g", g, "--h", h, "--mode", mode])
                row = report.results[0]
                A = game.switching_matrix(game.build_family(g), mode)
                assert code == 0 and row["oracle_match"] == "ok"
                got = (row["solvable"], row["solution_exponent"])
                assert got == product_solve_two_eliminations(A, B), (g, h, mode)
                if row["solvable"] == "yes":
                    assert self.presses_solve(row, gfmat.sylvester_operator(A, B)), (g, h, mode)
        capsys.readouterr()


class TestSweep:
    def test_stars_match_closed_form(self, capsys):
        code, _, payload = run_json(["sweep", "stars"], capsys)
        assert code == 0
        rows = payload["results"]
        assert len(rows) == 16
        for row in rows:
            n = int(row["g"].split(":")[1])
            m = int(row["h"].split(":")[1])
            assert row["nullity_formula"] == (m - 2) * (n - 2) + 2
            assert row["oracle_match"] == "ok"

    def test_random_rows_carry_seed(self, capsys):
        code, _, payload = run_json(["sweep", "random:10", "--seed", "7"], capsys)
        assert code == 0
        assert payload["seed"] == 7
        assert len(payload["results"]) == 10
        assert all(row["seed"] == 7 for row in payload["results"])
        assert all(row["oracle_match"] == "ok" for row in payload["results"])

    def test_empty_range_is_success(self, capsys):
        code, _, payload = run_json(["sweep", "stars:4-4"], capsys)
        assert code == 0
        assert payload["results"] == []

    def test_unknown_target_is_usage_error(self, capsys):
        code, _ = cli.run(["sweep", "moons"])
        capsys.readouterr()
        assert code == 2

    def test_reproducible_for_seed(self, capsys):
        _, _, first = run_json(["sweep", "random:12", "--seed", "3"], capsys)
        _, _, second = run_json(["sweep", "random:12", "--seed", "3"], capsys)
        assert first == second

    @pytest.mark.parametrize(
        "argv, distinct",
        [(["sweep", "paths:2-6"], 5), (["sweep", "cycles:3-6", "--mode", "closed"], 8)],
        ids=["paths-open", "cycles-closed"],
    )
    def test_each_factor_summarized_once_per_invocation(
        self, argv, distinct, capsys, monkeypatch
    ):
        calls = []
        original = snf.invariant_factors

        def counted(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(snf, "invariant_factors", counted)
        for _ in range(2):  # a second invocation reuses nothing of the first
            calls.clear()
            assert cli.run(argv)[0] == 0
            assert len(calls) == distinct
        capsys.readouterr()

    def test_gf2_rows_pack_no_invariant_factor(self, capsys, monkeypatch):
        # The Smith form hands each summary its factors in GF(2)'s working form,
        # and the summary hands its working-form characteristic polynomial to
        # the gcd bound: packing both polynomials on every row took 1000 calls
        # here, and packing both summaries' factors on every row 1471 more.
        # Every pack of a Poly goes through gfpoly's one _pack_bits binding.
        packs = []
        pack_bits = gfpoly._pack_bits
        monkeypatch.setattr(gfpoly, "_pack_bits", lambda v: packs.append(v) or pack_bits(v))
        code, report = cli.run(["verify", "conjecture-open", "--seed", "1"])
        capsys.readouterr()
        assert code == 0 and len(report.results) == cli.RANDOM_PAIR_COUNT
        assert packs == []

    def test_gf2_verify_pass_builds_no_poly(self, capsys, monkeypatch):
        # counted on Poly.__init__, as the benchmark tracer counts; a pass built
        # 3099 before factors and characteristic polynomials stayed packed
        built = []
        init = Poly.__init__
        monkeypatch.setattr(Poly, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        for mode in ("open", "closed"):
            code, report = cli.run(["verify", f"conjecture-{mode}", "--seed", "1"])
            assert code == 0 and len(report.results) == cli.RANDOM_PAIR_COUNT
        capsys.readouterr()
        assert built == []

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_rows_equal_single_nullity_runs(self, mode, capsys):
        _, _, payload = run_json(["sweep", "paths:2-6", "--mode", mode], capsys)
        assert len(payload["results"]) == 25
        for row in payload["results"]:
            argv = ["nullity", "--g", row["g"], "--h", row["h"], "--mode", mode]
            assert run_json(argv, capsys)[2]["results"] == [row]


class TestVerify:
    def test_lemma_inequality_never_fails(self, capsys):
        code, _, payload = run_json(["verify", "lemma"], capsys)
        assert code == 0
        row = payload["results"][0]
        assert row["trials"] == 10000
        assert row["inequality_violations"] == 0
        # the stated equality condition is not an iff; that is reported, not fatal
        assert row["equality_condition_mismatches"] > 0
        assert any("counterexample" in note for note in payload["notes"])

    def test_conjecture_open_small_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "RANDOM_PAIR_COUNT", 40)
        code, _, payload = run_json(["verify", "conjecture-open", "--seed", "2"], capsys)
        assert code == 0
        assert payload["violations"] == []
        assert all(r["bound_holds"] == "ok" for r in payload["results"])

    def test_conjecture_closed_small_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "RANDOM_PAIR_COUNT", 40)
        code, _, payload = run_json(["verify", "conjecture-closed", "--seed", "2"], capsys)
        assert code == 0
        assert payload["violations"] == []

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_conjecture_rows_are_the_random_sweep(self, mode, capsys, monkeypatch):
        monkeypatch.setattr(cli, "RANDOM_PAIR_COUNT", 15)
        _, _, verify = run_json(["verify", f"conjecture-{mode}", "--seed", "5"], capsys)
        _, _, sweep = run_json(["sweep", "random", "--mode", mode, "--seed", "5"], capsys)
        assert verify["seed"] == sweep["seed"] == 5
        assert verify["results"] == sweep["results"]
        assert len(verify["results"]) == 15

    def test_example2_over_cap_rows_are_skipped(self, capsys):
        code, _, payload = run_json(["verify", "example2", "--max-oracle", "10"], capsys)
        assert code == 0
        rows = payload["results"]
        checked = [row for row in rows if row["oracle"] != "skipped"]
        assert all(row["n"] * row["m"] <= 10 for row in checked)
        assert len(checked) == 7
        assert all(row["oracle"] == row["formula"] for row in checked)
        assert any("agrees with reading(s)" in note for note in payload["notes"])
        assert "29 rows exceeded the oracle cap and were skipped" in payload["notes"]

    def test_example2_table(self, capsys):
        code, _, payload = run_json(["verify", "example2"], capsys)
        assert code == 0
        rows = payload["results"]
        assert len(rows) == 36  # n in {3,5,7,9} x m in 1..9
        for row in rows:
            assert row["oracle"] == row["formula"]
            assert row["oracle_match"] == "ok"
        assert any("agrees with" in note for note in payload["notes"])

    def test_example2_never_calls_the_charpoly_oracle(self, capsys, monkeypatch):
        calls = []
        for module in (snf, formulas):
            original = module.charpoly_oracle
            monkeypatch.setattr(
                module,
                "charpoly_oracle",
                lambda *args, f=original: calls.append(args) or f(*args),
            )
        code, _, payload = run_json(["verify", "example2"], capsys)
        assert code == 0
        assert calls == []
        assert len(payload["results"]) == 36
        assert all(row["oracle_match"] == "ok" for row in payload["results"])

    def test_invalid_target_rejected(self, capsys):
        code, _ = cli.run(["verify", "example99"])
        capsys.readouterr()
        assert code == 2


class TestOutputs:
    def test_json_round_trips(self, capsys):
        _, report, payload = run_json(["counts", "--g", "petersen"], capsys)
        assert json.loads(json.dumps(payload)) == payload
        assert payload == report.to_dict()

    def test_csv_and_json_encode_identical_tables(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        _, _, payload = run_json(
            ["sweep", "stars:3-5", "--csv", str(out)], capsys
        )
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(payload["results"])
        for got, want in zip(rows, payload["results"]):
            assert set(got) == set(want)
            for key, value in want.items():
                assert got[key] == str(value)

    def test_human_table_renders(self, capsys):
        code, _ = cli.run(["snf", "--g", "star:5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariant_factors" in out
        assert "1, 1, x, x, x^3" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("verify conjecture-open", "4c0d66527077a35904fa3a122ed3cc1c39ebb98b6c1d53f77c0754a54becef62"),
            ("verify conjecture-closed", "cf3568a264886b711ffe6965f3f441e286bf5d4c9866a0fbb5eb6d5309035cce"),
            ("sweep paths:2-16", "82e438a25642ec0709cd2efc0bb5db39d1ac638de39457986788c3692ae3519f"),
            ("sweep cycles:3-14 --mode closed", "c3605b6c218534b82b087564fbb687a94319a1ccb437a32edca8ac926e60ada2"),
            ("counts --g grid:100x100 --mode closed", "a5e7e729ac940a473d54cacca5bec438f94da650b3a9d7581c9944e0f3e06b04"),
            ("solve --g grid:64x64 --mode closed", "1f0abcb53c2eceb1795b88449c60ecbbaba1cdba3165bf8ef620a2278232c029"),
            ("solve --g grid:31x31", "1ef97bef484aaa4c4319d02fb05c26356c4e7f465d786a22f1c189425268367a"),
            ("solve --g grid:64x64", "ad12274b659e0a9a9c2045360e68adc78e50885f6e57bdedbdb738acfcf33ec7"),
            ("nullity --g grid:8x8 --h grid:8x8", "f0b8e9dffd6b94673caa33a7b5909558a5a2d48043b7f4b80259c7d6451523a3"),
            ("snf --g grid:24x24", "6622388757599b10163b50cfecb667399fc848f12116d83a5b62e68c3c4b8d9b"),
            ("charpoly --g path:65", "aba080896e3c3be7fbd97063840c539f34507c46f3adc4d115abe699229935ff"),
            ("bound --g petersen --h path:4 --mode closed", "7248d4cc7cde95085d515bd544a3025f1024759649b7084d01244708a7e8b90d"),
            ("verify example2", "240a018ae930f09080cebd6ff4c6d7d3c4aac34f5691c7dbebe9eebaa38afc69"),
            ("sweep random:200 --p 3 --mode closed", "9581cc6991fdfaafaa30e097a081130f4b121011b305cf237b3f8df8a92246bf"),
            ("nullity --g petersen --h path:4 --p 3", "faae900a14d31087681bf86733f3ea6ad263b37909ed0c5d17d45e285d5b8fe3"),
            ("charpoly --g grid:6x6 --p 5", "1af46e962bf8ed30ff32a6556e5dd46611b3ea9ced6c17971d5ecf2142200f86"),
            ("bound --g petersen --h cycle:5 --p 5 --mode closed", "01acf7de87aaf4b6c86062deb07a68db09a87dbc11cfbc39d4b602baa39709a2"),
            ("snf --g grid:6x6 --p 3", "c266ba6e442b5f0bf979708ebb9eddbfe33612878d71b81c2edf18f568234116"),
            ("charpoly --g path:64", "696f5a81d98e698cdb942428e0a7f8cdcd746f25a3f83d83dd007a5a28db95a0"),
            ("charpoly --g grid:5x13 --p 3", "f6c31cf8e2af91378cc91baca22a950d9009fd6bfb294a37d22cc1f22d4f352d"),
            # the chase's presses (nu = 64), not the elimination's; they solve L by substitution
            ("solve --g path:64 --h path:64", "a287af34ee8a04149fdea93b88603cf0ef484fc77f86fa6752b5dcce6d316311"),
            ("solve --g path:65 --h path:64", "ea6cc50a3dbcba95dade325bc3772d645d57a7dccd35c91129ccca0359bd3020"),
            ("verify example2 --max-oracle 10", "086a7d8d8f2400c660da3f00a64d7c914d1d05cda00c85f987f5fd60ddf0c2e3"),
            ("sweep random:50 --seed 7", "7a831d426f658b7a24626de803fcd8d611ebf4b18331d416850ec3694b50d4d0"),
            ("bound --g petersen --h path:4", "c1c241677386d60526244a266c0a90678d94eb2d8847540945d5039e3a14c42e"),
        ],
    )
    def test_json_report_bytes_are_pinned(self, argv, digest, capsys):
        # sha256 of each --json report as column-at-a-time elimination and
        # Poly factor summaries gave it: speedups must not move a byte.
        assert cli.run([*argv.split(), "--json"])[0] == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(lightsout.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "lightsout", "counts", "--g", "path:3"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert "2^2 solvable configurations" in done.stdout

    def test_command_echo_reproduces(self, capsys):
        _, report, payload = run_json(["counts", "--g", "path:4"], capsys)
        echoed = payload["command"].split()[1:]
        code2, report2 = cli.run(echoed)
        capsys.readouterr()
        assert report2.results == report.results


class TestReport:
    def test_reports_compare_field_by_field(self, capsys):
        # The benchmark keeps every later pass's output that compares != to
        # the first pass's, so equal runs must give equal reports.
        argv = ["sweep", "stars:3-5"]
        first, second = cli.run(argv)[1], cli.run(argv)[1]
        capsys.readouterr()
        assert first is not second and first == second
        report = cli.Report("lightsout x", 3, [{"a": 1}], [], ["n"])
        assert report == cli.Report(
            command="lightsout x", seed=3, results=[{"a": 1}], violations=[], notes=["n"]
        )
        for changed in (
            cli.Report("lightsout y", 3, [{"a": 1}], [], ["n"]),
            cli.Report("lightsout x", None, [{"a": 1}], [], ["n"]),
            cli.Report("lightsout x", 3, [{"a": 2}], [], ["n"]),
            cli.Report("lightsout x", 3, [{"a": 1}], [{"a": 1}], ["n"]),
            cli.Report("lightsout x", 3, [{"a": 1}], [], []),
        ):
            assert report != changed

    def test_reports_are_mutable_with_fresh_lists(self):
        a, b = cli.Report("lightsout a"), cli.Report("lightsout b")
        assert (a.seed, a.results, a.violations, a.notes) == (None, [], [], [])
        a.results.append({"x": 1})
        a.notes.append("note")
        a.seed = 7
        assert (b.results, b.notes, a.seed) == ([], [], 7)

    def test_to_dict_keeps_key_order_and_copies_deeply(self, capsys):
        _, report = cli.run(["sweep", "stars:3-5"])
        capsys.readouterr()
        report.violations.append({"v": 1})
        d = report.to_dict()
        assert list(d) == ["schema", "command", "seed", "results", "violations", "notes"]
        assert d["schema"] == cli.SCHEMA_VERSION
        assert d["results"] == report.results and d["results"] is not report.results
        assert list(d["results"][0]) == list(report.results[0])
        before = [dict(row) for row in report.results]
        d["results"][0]["g"] = "changed"
        d["violations"][0]["v"] = 2
        d["notes"].append("added")
        assert report.results == before
        assert report.violations == [{"v": 1}] and "added" not in report.notes


#: Standard-library modules a text-output run never uses; ``cli`` imports
#: json, csv and traceback only on the paths that need them.
DEFERRED_MODULES = {"dataclasses", "inspect", "json", "csv", "traceback"}


def _fresh_interpreter(code):
    """Run code in a new interpreter; its exit status, stdout, stderr and
    the modules loaded at its end (the stdout line after ``modules:``)."""
    src = str(Path(lightsout.__file__).resolve().parent.parent)
    script = code + "\nimport sys\nprint('modules:', *sorted(sys.modules))\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    out, _, modules = done.stdout.rpartition("modules:")
    return done.returncode, out, done.stderr, set(modules.split())


class TestImportFootprint:
    def test_text_run_loads_no_deferred_module(self):
        *_, bare = _fresh_interpreter("")
        code, out, err, loaded = _fresh_interpreter(
            "import lightsout.cli as cli\n"
            "cli.build_parser()\n"
            "print('exit', cli.run(['nullity', '--g', 'petersen', '--h', 'path:3'])[0])"
        )
        assert code == 0, err
        assert "nullity_formula" in out and "exit 0" in out
        assert {"lightsout.formulas", "lightsout.game", "lightsout.gfmat", "lightsout.snf"} <= loaded
        assert (loaded - bare) & DEFERRED_MODULES == set()

    def test_json_report_in_a_fresh_interpreter(self):
        code, out, err, _ = _fresh_interpreter(
            "import lightsout.cli as cli\n"
            "code = cli.run(['nullity', '--g', 'petersen', '--h', 'path:3', '--json'])[0]\n"
            "assert code == 0, code"
        )
        assert code == 0, err
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["results"][0]["nullity_formula"] == 4

    def test_csv_in_a_fresh_interpreter(self, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, err, _ = _fresh_interpreter(
            "import lightsout.cli as cli\n"
            f"code = cli.run(['nullity', '--g', 'petersen', '--h', 'path:3', '--csv', {str(path)!r}])[0]\n"
            "assert code == 0, code"
        )
        assert code == 0, err
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["g"], r["h"], r["nullity_formula"]) for r in rows] == [("petersen", "path:3", "4")]

    def test_internal_fault_in_a_fresh_interpreter(self):
        code, _, err, _ = _fresh_interpreter(
            "import lightsout.cli as cli\n"
            "def broken(A):\n"
            "    raise ValueError('simulated fault')\n"
            "cli.snf.invariant_factors = broken\n"
            "code = cli.run(['nullity', '--g', 'path:2', '--h', 'path:2'])[0]\n"
            "assert code == 3, code"
        )
        assert code == 0, err
        assert "error: internal ValueError: simulated fault" in err
        assert "Traceback (most recent call last)" in err
