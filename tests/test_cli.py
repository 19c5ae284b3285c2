import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llull.projection
import llull.structure
import llull.zermelo
from llull import LlullMatrix, OptionSet
from llull.cli import _sigma_rho_reversed, main
from conftest import oracle_sigma_rho_reversed

BALLOTS = "options: a, b, c\n3: a > b > c\n2: b > c > a\n1: c = a\n"
CYCLE = LlullMatrix(
    OptionSet(("a", "b", "c")),
    [[0, 0.9, 0.1], [0.1, 0, 0.9], [0.9, 0.1, 0]],
)
SPLIT = LlullMatrix(
    OptionSet(("a", "b", "c", "d")),
    [[0, 0.5, 0, 0], [0.5, 0, 0, 0], [0, 0, 0, 0.5], [0, 0, 0.5, 0]],
)


@pytest.fixture
def ballot_file(tmp_path):
    path = tmp_path / "demo.ballots"
    path.write_text(BALLOTS, encoding="utf-8")
    return str(path)


@pytest.fixture
def json_file(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(CYCLE.to_json(), encoding="utf-8")
    return str(path)


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "cycle.csv"
    path.write_text(CYCLE.to_csv(), encoding="utf-8")
    return str(path)


class TestInputHandling:
    def test_sniffs_ballots(self, ballot_file, capsys):
        assert main(["tally", "--in", ballot_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["options"] == ["a", "b", "c"]
        assert sum(payload["fraction"]) == pytest.approx(1.0, abs=1e-12)

    def test_sniffs_matrix_json(self, json_file, capsys):
        assert main(["analyze", "--in", json_file]) == 0
        assert "irreducible: true" in capsys.readouterr().out

    def test_sniffs_matrix_csv(self, csv_file, capsys):
        assert main(["analyze", "--in", csv_file]) == 0
        assert "admissible order: none" in capsys.readouterr().out

    def test_in_kind_override_rejects_wrong_grammar(self, json_file, capsys):
        assert main(["tally", "--in", json_file, "--in-kind", "ballots"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["tally", "--in", str(tmp_path / "nope")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_comment_only_preamble_sniffs_on(self, tmp_path, capsys):
        path = tmp_path / "commented.ballots"
        path.write_text("# preamble\n" + BALLOTS, encoding="utf-8")
        assert main(["tally", "--in", str(path)]) == 0

    def test_line_separator_inside_a_comment_keeps_it_a_comment(self, tmp_path, capsys):
        path = tmp_path / "separator.ballots"
        path.write_text("# note\x1c{\n" + BALLOTS, encoding="utf-8")
        assert main(["tally", "--in", str(path)]) == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "body",
        [
            "9223372036854775808: a > b > c\n1: b > a\n",
            "2305843009213693952: a > b > c\n" * 4,
        ],
        ids=["single-weight-past-int64", "weight-sum-wraps-int64"],
    )
    def test_weights_past_int64_exit_two(self, tmp_path, capsys, body):
        path = tmp_path / "huge.ballots"
        path.write_text("options: a b c\n" + body, encoding="utf-8")
        assert main(["tally", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestSubcommands:
    def test_tally_text_and_csv(self, ballot_file, capsys):
        assert main(["tally", "--in", ballot_file]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].split() == ["option", "fraction", "rank_like"]
        assert "solver:" in text
        assert main(["tally", "--in", ballot_file, "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.splitlines()[0] == "option,fraction,rank_like"
        assert len(csv_out.strip().splitlines()) == 4

    def test_project_csv_round_trips(self, ballot_file, capsys):
        assert main(["project", "--in", ballot_file, "--format", "csv"]) == 0
        M = LlullMatrix.from_csv(capsys.readouterr().out)
        assert M.labels == ("a", "b", "c")

    def test_project_json_reports_fixed_point(self, json_file, capsys):
        assert main(["project", "--in", json_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fixed_point"] is False
        assert payload["order"] == ["a", "b", "c"]

    def test_strengths_on_reducible_matrix_fails(self, tmp_path, capsys):
        path = tmp_path / "split.json"
        path.write_text(SPLIT.to_json(), encoding="utf-8")
        assert main(["strengths", "--in", str(path)]) == 3
        assert "no component dominates" in capsys.readouterr().err

    def test_strengths_json(self, ballot_file, capsys):
        assert main(["strengths", "--in", ballot_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["support"] == ["a", "b", "c"]
        assert sum(payload["phi"]) == pytest.approx(1.0, abs=1e-12)

    def test_compare_handles_vanishing_eigen(self, tmp_path, capsys):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 0], [0, 0]])
        path = tmp_path / "zero.json"
        path.write_text(M.to_json(), encoding="utf-8")
        assert main(["compare", "--in", str(path)]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_compare_json_columns(self, ballot_file, capsys):
        assert main(["compare", "--in", ballot_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"options", "fraction", "mean_score", "mean_rank", "eigen"}

    def test_selfcheck_passes_on_ballots(self, ballot_file, capsys):
        assert main(["selfcheck", "--in", ballot_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_selfcheck_json_is_deterministic(self, ballot_file, capsys):
        assert main(["selfcheck", "--in", ballot_file, "--format", "json", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["selfcheck", "--in", ballot_file, "--format", "json", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["ok"] is True


def count_calls(monkeypatch, module, attr) -> list:
    """Count calls to module.attr through every llull module that binds it."""
    original = getattr(module, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    for name, loaded in list(sys.modules.items()):
        if name == "llull" or name.startswith("llull."):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, key, counted)
    return calls


class TestSelfcheckWork:
    def test_one_selfcheck_runs_the_pipeline_once(self, ballot_file, monkeypatch, capsys):
        closure = count_calls(monkeypatch, llull.structure, "indirect_scores")
        hessian = count_calls(monkeypatch, llull.zermelo, "tangent_hessian_max_eigenvalue")
        clc = count_calls(monkeypatch, llull.structure, "check_clc")
        projections = count_calls(monkeypatch, llull.projection, "clc_project")
        assert main(["selfcheck", "--in", ballot_file]) == 0
        # One tally, one reprojection, one verify_projection, three probe tallies.
        assert (len(closure), len(hessian), len(clc), len(projections)) == (11, 4, 6, 5)

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_sigma_rho_order_matches_the_pair_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        # Steps of half the 1e-9 threshold put differences on and around it.
        rho = 0.3 + rng.integers(0, 5, size=n) * 5e-10
        sigma = 0.6 + rng.integers(0, 5, size=n) * 5e-10
        assert _sigma_rho_reversed(rho, sigma) == oracle_sigma_rho_reversed(rho, sigma)


class TestOptionsAndEnvironment:
    def test_ties_policy_changes_the_tally(self, ballot_file, capsys):
        assert main(["tally", "--in", ballot_file, "--format", "json"]) == 0
        half = json.loads(capsys.readouterr().out)["fraction"]
        assert main(["tally", "--in", ballot_file, "--format", "json", "--ties", "abstain"]) == 0
        abstain = json.loads(capsys.readouterr().out)["fraction"]
        assert half != abstain

    def test_env_tolerance_applies(self, ballot_file, capsys, monkeypatch):
        monkeypatch.setenv("LLULL_TOL", "1e-6")
        assert main(["tally", "--in", ballot_file]) == 0

    def test_env_tolerance_rejected(self, ballot_file, capsys, monkeypatch):
        monkeypatch.setenv("LLULL_TOL", "bogus")
        assert main(["tally", "--in", ballot_file]) == 2
        assert "LLULL_TOL" in capsys.readouterr().err

    def test_flag_overrides_env(self, ballot_file, capsys, monkeypatch):
        monkeypatch.setenv("LLULL_TOL", "bogus")
        assert main(["tally", "--in", ballot_file, "--tol", "1e-10"]) == 0

    def test_bad_tolerance_value(self, ballot_file, capsys):
        assert main(["tally", "--in", ballot_file, "--tol", "-1"]) == 2

    def test_multiple_inputs_keep_order(self, ballot_file, json_file, capsys):
        code = main(["analyze", "--in", ballot_file, "--in", json_file])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index(f"== {ballot_file} ==") < out.index(f"== {json_file} ==")

    def test_exit_code_is_the_worst_one(self, ballot_file, tmp_path, capsys):
        bad = tmp_path / "bad.ballots"
        bad.write_text("options: a, b\n1: a > > b\n", encoding="utf-8")
        code = main(["tally", "--in", ballot_file, "--in", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert "option" in captured.out
        assert "error" in captured.err


class TestEntryPoint:
    def test_module_invocation(self, ballot_file):
        proc = subprocess.run(
            [sys.executable, "-m", "llull.cli", "tally", "--in", ballot_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fraction" in proc.stdout
