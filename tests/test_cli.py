import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzyirtree.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def ratings_csv(tmp_path, rng):
    y = rng.integers(1, 6, size=(40, 4))
    path = tmp_path / "ratings.csv"
    path.write_text("\n".join(",".join(map(str, row)) for row in y) + "\n")
    return path, y


class TestValidateTree:
    def test_preset_ok(self, capsys):
        assert run_cli("validate-tree", "--preset", "fig1-5cat") == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_duplicate_rows(self, tmp_path, capsys):
        doc = {"M": 3, "nodes": ["a", "b"], "map": [[1, 0], [1, 0], [0, None]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate-tree", "--tree", str(path)) == EXIT_DOMAIN
        assert "duplicate category path" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run_cli("validate-tree", "--tree", str(missing)) == EXIT_IO

    def test_no_tree_given(self, capsys):
        assert run_cli("validate-tree") == EXIT_DOMAIN


class TestEval:
    def test_linear_midpoint(self, capsys):
        code = run_cli("eval", "--c", "3", "--l", "2", "--r", "4",
                       "--omega", "1", "--y", "2.5")
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.5"

    def test_hand_value(self, capsys):
        code = run_cli("eval", "--c", "3", "--l", "2", "--r", "4",
                       "--omega", "0.5", "--y", "2.2")
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.333333"

    def test_grid(self, capsys):
        code = run_cli("eval", "--c", "3", "--l", "2", "--r", "4", "--grid")
        assert code == EXIT_OK
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 201
        table = {float(y): float(a) for y, a in rows}
        assert table[3.0] == 1.0
        assert table[2.0] == 0.0 and table[4.0] == 0.0
        assert table[1.0] == 0.0 and table[5.0] == 0.0

    def test_mode_with_empty_left_branch(self, capsys):
        # l = c < r: the mode is also the left endpoint and belongs to it
        code = run_cli("eval", "--c", "3", "--l", "3", "--r", "4", "--y", "3")
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_invalid_shape(self, capsys):
        assert run_cli("eval", "--c", "1", "--l", "2", "--r", "4",
                       "--y", "2.5") == EXIT_DOMAIN


class TestFit:
    def test_fit_writes_artifact(self, ratings_csv, tmp_path, capsys):
        path, _ = ratings_csv
        out = tmp_path / "fit.json"
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(out), "--no-se")
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "log-marginal-likelihood" in printed
        assert "converged: true" in printed
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert len(doc["alpha"]) == 4

    def test_rerun_is_byte_identical(self, ratings_csv, tmp_path):
        path, _ = ratings_csv
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                "--out", str(a), "--no-se")
        run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                "--out", str(b), "--no-se")
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_category(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,9\n")
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(tmp_path / "x.json"))
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_rating(self, cell, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2\n3,{cell}\n")
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(tmp_path / "x.json"))
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "rating must be an integer in 1..5 (row 2, column 2" in err

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cell=st.one_of(
        st.text(max_size=8),
        st.sampled_from(["", " ", "1.5", "0", "6", "-1", "1e3", "0x3", "3j", "\x00",
                         '"', '"3', "3,", "\u00a0", "\u0663", "NaN", "1_0"]),
    ))
    @example(cell="9" * 200_000)  # longer than the csv module's field limit
    def test_malformed_cell_is_a_domain_error(self, cell, tmp_path, capsys):
        # never a traceback: a bad cell is rejected with an error line, or it
        # reads as a valid rating and the fit runs
        path = tmp_path / "cells.csv"
        path.write_text(f"1,2\n3,{cell}\n4,5\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(tmp_path / "x.json"), "--no-se")
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_IO)
        if code != EXIT_OK:
            assert err.startswith("error: ")

    def test_header_autodetect(self, tmp_path):
        path = tmp_path / "headed.csv"
        path.write_text("item1,item2\n1,2\n3,4\n5,1\n2,3\n4,5\n3,3\n2,2\n")
        out = tmp_path / "fit.json"
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(out), "--no-se")
        assert code == EXIT_OK
        assert json.loads(out.read_text())["eta"] is not None

    def test_single_rater_separation_warning(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("3,3,3\n")
        out = tmp_path / "fit.json"
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(out), "--no-se")
        assert code == EXIT_OK
        assert "separation" in capsys.readouterr().err
        assert out.exists()


class TestConvert:
    def test_chain_from_fit(self, ratings_csv, tmp_path, capsys):
        path, y = ratings_csv
        fit_path = tmp_path / "fit.json"
        run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                "--out", str(fit_path), "--no-se")
        out = tmp_path / "fuzzy.csv"
        code = run_cli("convert", "--preset", "fig1-5cat", "--fit", str(fit_path),
                       "--data", str(path), "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "rater,item,y,c,l,r,omega,clamped"
        assert len(lines) == 1 + 40 * 4
        first = lines[1].split(",")
        assert (int(first[0]), int(first[1])) == (1, 1)
        assert int(first[2]) == y[0, 0]
        omega = np.array([float(line.split(",")[6]) for line in lines[1:]])
        assert ((omega > 0) & (omega <= 1)).all()

    def test_zero_parameter_fit_rows(self, tmp_path):
        from fuzzyirtree.tree import preset_tree

        tree = preset_tree("fig1-5cat")
        artifact = {
            "alpha": [0.0], "alpha_shape": [1, 1], "sigma_cholesky": [1.0],
            "eta": [[0.0, 0.0, 0.0, 0.0]], "loglik": 0.0, "converged": True,
            "iterations": 0, "se": None,
            "model": {"trait_design": "common", "item_design": "common",
                      "covariance": "scalar", "M": 5, "N": 4},
            "tree_digest": tree.digest(),
            "warnings": [],
        }
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(artifact))
        out = tmp_path / "fuzzy.csv"
        code = run_cli("convert", "--preset", "fig1-5cat", "--fit", str(fit_path),
                       "--out", str(out))
        assert code == EXIT_OK
        row = out.read_text().splitlines()[1]
        assert row == "1,1,,3,1.95417,4.04583,0.3125,0"

    def test_digest_mismatch(self, ratings_csv, tmp_path, capsys):
        path, _ = ratings_csv
        fit_path = tmp_path / "fit.json"
        run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                "--out", str(fit_path), "--no-se")
        code = run_cli("convert", "--preset", "fig2-6cat", "--fit", str(fit_path),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "digest" in capsys.readouterr().err


    def test_missing_model_field(self, ratings_csv, tmp_path, capsys):
        path, _ = ratings_csv
        fit_path = tmp_path / "fit.json"
        run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                "--out", str(fit_path), "--no-se")
        doc = json.loads(fit_path.read_text())
        del doc["model"]["covariance"]
        fit_path.write_text(json.dumps(doc))
        code = run_cli("convert", "--preset", "fig1-5cat", "--fit", str(fit_path),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "model is missing field 'covariance'" in capsys.readouterr().err


    @pytest.mark.parametrize("change", [
        {"model": 5}, {"eta": [0.0, 1.0]}, {"eta": [[0.0, 0.0, 0.0]]},
        {"alpha_shape": [4]}, {"alpha": "x"}, {"sigma_cholesky": [-1.0]},
        {"sigma_cholesky": [1.0, 0.0, 1.0]},
    ], ids=lambda change: "-".join(change))
    def test_malformed_artifact(self, change, ratings_csv, tmp_path, capsys):
        path, _ = ratings_csv
        fit_path = tmp_path / "fit.json"
        run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                "--out", str(fit_path), "--no-se")
        fit_path.write_text(json.dumps({**json.loads(fit_path.read_text()), **change}))
        capsys.readouterr()
        code = run_cli("convert", "--preset", "fig1-5cat", "--fit", str(fit_path),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error: ")


class TestSimulate:
    def _design(self, tmp_path, B=2, seed=5):
        doc = {"I": [20], "J": [4], "pi": [0.0, 0.5], "B": B,
               "tree": "fig1-5cat", "seed": seed}
        path = tmp_path / "design.json"
        path.write_text(json.dumps(doc))
        return path

    def test_rows_and_reproducibility(self, tmp_path, capsys):
        design = self._design(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--design", str(design), "--out", str(a)) == EXIT_OK
        assert run_cli("simulate", "--design", str(design), "--out", str(b),
                       "--threads", "3") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert len(lines) == 3  # header + 2 cells
        assert "recovery" in capsys.readouterr().out

    def test_invalid_b(self, tmp_path, capsys):
        design = self._design(tmp_path, B=0)
        code = run_cli("simulate", "--design", str(design),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "B must be >= 1" in capsys.readouterr().err

    def test_optional_fields_default_in_sim_design(self, tmp_path):
        from fuzzyirtree.cli import _design_from_json
        from fuzzyirtree.simulation import SimDesign

        doc = json.loads(self._design(tmp_path).read_text())
        design = _design_from_json(doc)
        defaults = SimDesign((1,), (1,), (0.0,), 1, design.tree)
        for key in ("alpha0", "sigma_alpha", "gamma", "delta", "direction"):
            assert getattr(design, key) == getattr(defaults, key)
        doc.update(alpha0=-1, gamma="2.5", direction="faking-bad")
        design = _design_from_json(doc)
        assert (design.alpha0, design.gamma, design.direction) == (-1.0, 2.5, "faking-bad")

    def test_bad_optional_value(self, tmp_path, capsys):
        path = self._design(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "delta": "wide"}))
        code = run_cli("simulate", "--design", str(path), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "wide" in capsys.readouterr().err

    def test_missing_design_field(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"I": [10], "J": [4], "pi": [0.0], "B": 1,
                                    "tree": "fig1-5cat"}))
        code = run_cli("simulate", "--design", str(path),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "seed" in capsys.readouterr().err


def test_installed_entry_point(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzyirtree.cli", "eval", "--c", "3", "--l", "2",
         "--r", "4", "--omega", "1", "--y", "2.5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"
