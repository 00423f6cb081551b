"""CLI contract: exit codes, report schema, CSV/JSON agreement, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import lightsout
from lightsout import cli, formulas, game, gfmat, snf


SCHEMA = json.load(open("docs/report_schema.json", encoding="utf-8"))


def run_json(argv, capsys):
    code, report = cli.run([*argv, "--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    return code, report, payload


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

    def test_negative_max_oracle_is_usage_error(self, capsys):
        argv = ["nullity", "--g", "path:3", "--h", "path:3", "--max-oracle"]
        assert cli.run(argv + ["-5"]) == (2, None)
        assert "--max-oracle" in capsys.readouterr().err
        code, report = cli.run(argv + ["0"])
        capsys.readouterr()
        assert code == 0
        assert report.results[0]["nullity_oracle"] == "skipped"

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
        for argv in (
            ["verify", "conjecture-open", "--p", "3"],
            ["verify", "conjecture-open", "--mode", "closed"],
            ["counts", "--g", "path:3", "--seed", "2"],
            ["snf", "--g", "path:3", "--max-oracle", "9"],
        ):
            code, report = cli.run(argv)
            assert (code, report) == (2, None), argv
        assert "--p" in capsys.readouterr().err

    def test_internal_fault_exits_three(self, capsys, monkeypatch):
        def broken(A):
            raise ValueError("simulated fault")

        monkeypatch.setattr(snf, "invariant_factors", broken)
        code, report = cli.run(["nullity", "--g", "path:2", "--h", "path:2"])
        assert (code, report) == (3, None)
        assert "error: internal ValueError: simulated fault" in capsys.readouterr().err

    def test_reversed_sweep_range_is_usage_error(self, capsys):
        assert cli.run(["sweep", "paths:9-3"]) == (2, None)
        assert "reversed paths range '9-3'" in capsys.readouterr().err

    def test_non_utf8_graph_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe3\x00\n\x00")
        assert cli.run(["nullity", "--g", f"file:{path}", "--h", "path:2"]) == (2, None)
        assert "cannot read graph file" in capsys.readouterr().err

    def test_cycles_range_below_three_is_usage_error(self, capsys):
        assert cli.run(["sweep", "cycles:1-2"]) == (2, None)
        assert "cycle:n needs n >= 3" in capsys.readouterr().err
        assert cli.run(["sweep", "cycles:2-5"]) == (2, None)
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        code, _ = cli.run(["--help"])
        capsys.readouterr()
        assert code == 0


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

    def test_charpoly_routes_agree(self, capsys):
        code, _, payload = run_json(["charpoly", "--g", "petersen"], capsys)
        assert code == 0
        row = payload["results"][0]
        assert row["charpoly_snf"] == row["charpoly_oracle"]
        assert row["match"] == "ok"

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
        assert any("agrees with" in note for note in payload["notes"])

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
