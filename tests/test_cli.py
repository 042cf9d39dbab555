import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzyirtree import cli, estimation, generate_true_data, preset_tree, simulation
from fuzzyirtree.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, _fuzzy_csv, _read_ratings, main
from fuzzyirtree.fuzzy import FuzzyRatingMatrix


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def ratings_csv(tmp_path, rng):
    y = rng.integers(1, 6, size=(40, 4))
    path = tmp_path / "ratings.csv"
    path.write_text("\n".join(",".join(map(str, row)) for row in y) + "\n")
    return path, y


@pytest.fixture
def seed_2024_csv(tmp_path):
    """50 x 10 fig1-5cat ratings from the generating model, seed 2024."""
    tree = preset_tree("fig1-5cat")
    y = generate_true_data(50, 10, tree, -1.75, 0.25, np.random.default_rng(2024)).ratings
    path = tmp_path / "seed2024.csv"
    path.write_text("\n".join(",".join(map(str, row)) for row in y.values) + "\n")
    return path


@pytest.fixture
def zero_parameter_fit(tmp_path):
    """A one-rater, one-item fig1-5cat fit artifact with every parameter 0."""
    artifact = {
        "alpha": [0.0], "alpha_shape": [1, 1], "sigma_cholesky": [1.0],
        "eta": [[0.0, 0.0, 0.0, 0.0]], "loglik": 0.0, "converged": True,
        "iterations": 0, "se": None,
        "model": {"trait_design": "common", "item_design": "common",
                  "covariance": "scalar", "M": 5, "N": 4},
        "tree_digest": preset_tree("fig1-5cat").digest(),
        "warnings": [],
    }
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(artifact))
    return path


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

    def test_needs_a_point_or_the_grid(self, capsys):
        assert run_cli("eval", "--c", "3", "--l", "2", "--r", "4") == EXIT_DOMAIN
        assert "pass --y VALUE or --grid" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_grid_needs_a_point(self, points, capsys):
        code = run_cli("eval", "--c", "3", "--l", "2", "--r", "4", "--grid",
                       "--points", points)
        assert code == EXIT_DOMAIN
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --points must be >= 1, got {points}\n"

    @pytest.mark.parametrize("m", ["1", "0"])
    def test_grid_needs_two_categories(self, m, capsys):
        code = run_cli("eval", "--c", "3", "--l", "2", "--r", "4", "--grid", "--m", m)
        assert code == EXIT_DOMAIN
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --m must be >= 2, got {m}\n"

    def test_grid_of_one_point(self, capsys):
        code = run_cli("eval", "--c", "3", "--l", "2", "--r", "4", "--grid", "--points", "1")
        assert code == EXIT_OK
        assert capsys.readouterr().out == "1 0\n"


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

    @pytest.mark.parametrize("text,message", [
        ("", "empty ratings file"), ("item1,item2\n", "no data rows"),
        ("1,2\n3\n", "rows have unequal lengths"),
        ("\n\n", "empty ratings file"),
        ("item1,item2\n1,2\n3,4,5\n", "row 3 has width 3, row 2 has width 2"),
        ("1,2\n\n3,4\n", "row 2 has width 0, row 1 has width 2"),
        # a first row with a number in it is data, not a header
        ("1,,3\n1,2,3\n", "missing value at row 1, column 2"),
        ("1,x,3\n1,2,3\n", "non-numeric value 'x' at row 1, column 2"),
    ], ids=["empty", "header-only", "ragged", "blank-only", "ragged-after-header",
            "blank-middle", "first-row-missing", "first-row-non-numeric"])
    def test_unusable_ratings_file(self, text, message, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text(text)
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(tmp_path / "x.json"))
        assert code == EXIT_DOMAIN
        assert message in capsys.readouterr().err

    def test_inner_newton_failure_exits_1(self, seed_2024_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimation, "INNER_MAX_ITER", 0)
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(seed_2024_csv),
                       "--out", str(tmp_path / "x.json"))
        assert code == EXIT_DOMAIN
        assert "error: inner Newton failed to converge for rater" in capsys.readouterr().err

    def test_iteration_limit_is_reported(self, seed_2024_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(seed_2024_csv),
                       "--out", str(out), "--max-iter", "1")
        assert code == EXIT_OK
        printed = capsys.readouterr()
        assert "warning: did not converge after 1 iterations" in printed.err
        assert "converged: false" in printed.out
        assert json.loads(out.read_text())["se"] is None

    @pytest.mark.parametrize("flag,value,message", [
        ("--tol", "-1", "tol must be finite and positive"),
        ("--tol", "nan", "tol must be finite and positive"),
        ("--tol", "0", "tol must be finite and positive"),
        ("--max-iter", "0", "max_iter must be >= 1"),
        ("--max-iter", "-1", "max_iter must be >= 1"),
    ])
    def test_option_that_cannot_be_met(self, flag, value, message, seed_2024_csv, tmp_path,
                                       capsys):
        out = tmp_path / "fit.json"
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(seed_2024_csv),
                       "--out", str(out), flag, value)
        assert code == EXIT_DOMAIN
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_header_autodetect(self, tmp_path):
        path = tmp_path / "headed.csv"
        path.write_text("item1,item2\n1,2\n3,4\n5,1\n2,3\n4,5\n3,3\n2,2\n")
        out = tmp_path / "fit.json"
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(out), "--no-se")
        assert code == EXIT_OK
        assert json.loads(out.read_text())["eta"] is not None

    @pytest.mark.parametrize("text", [
        "1,2\n3,4\n", "1,2\n3,4\n\n", "1,2\n3,4\n\n\n", "1,2\n3,4",
        "item1,item2\n1,2\n3,4\n\n", "a,\n1,2\n3,4\n",
    ], ids=["plain", "blank-end", "blanks-end", "no-newline", "header-blank-end",
            "header-empty-cell"])
    def test_ratings_reader_skips_header_and_blank_end(self, text, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(text)
        assert _read_ratings(str(path), 5).values.tolist() == [[1, 2], [3, 4]]

    def test_single_rater_separation_warning(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("3,3,3\n")
        out = tmp_path / "fit.json"
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(out), "--no-se")
        assert code == EXIT_OK
        assert "separation" in capsys.readouterr().err
        assert out.exists()


def oracle_read_ratings(path, M):
    """The ratings reader parsing one cell at a time, in file order."""
    def float_or_none(text):
        try:
            return float(text)
        except ValueError:
            return None

    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as e:
            raise ValueError(f"{path}: {e}") from None
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise ValueError(f"{path}: empty ratings file")
    start = 0 if any(float_or_none(v) is not None for v in rows[0]) else 1
    if start >= len(rows):
        raise ValueError(f"{path}: no data rows")
    width = len(rows[start])
    data = []
    for rix, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ValueError(f"{path}: rows have unequal lengths: row {rix} has width "
                             f"{len(row)}, row {start + 1} has width {width}")
        vals = []
        for cix, cell in enumerate(row, start=1):
            text = cell.strip()
            if not text:
                raise ValueError(f"{path}: missing value at row {rix}, column {cix}")
            v = float_or_none(text)
            if v is None:
                raise ValueError(f"{path}: non-numeric value {text!r} at row {rix}, column {cix}")
            if not (1 <= v <= M and v == int(v)):
                raise ValueError(
                    f"{path}: rating must be an integer in 1..{M} "
                    f"(row {rix}, column {cix}, got {text})"
                )
            vals.append(int(v))
        data.append(vals)
    return np.array(data, dtype=int)


# cells the reader must judge like the per-cell reader: padded, float-style,
# signed, quoted, a non-ASCII digit, non-finite, out of range, empty, and texts
# that are format templates
ORACLE_CELLS = [" 3 ", "3.0", "+3", "3e0", '"3"', "٣", "nan", "inf", "0", "6", "",
                "{0}", "%s"]


def oracle_corpus():
    for a in ORACLE_CELLS:
        yield f"1,2,3\n4,{a},5\n1,1,1\n"
        yield f"item1,item2\n{a},2\n\n\n"  # a header row and blank lines at the end
        yield f"1,2\n3\n{a},4\n"  # a ragged row before the cell
        yield f"{a},2\n3,4\n5\n"  # and after it
        for b in ORACLE_CELLS:
            yield f"1,{a},{b},2\n"  # two cells of one row
            yield f"{b},1\n2,{a}\r\n"  # and of two rows


class TestReadRatings:
    def test_matches_the_per_cell_reader(self, tmp_path):
        path = str(tmp_path / "ratings.csv")
        checked = errors = 0
        for text in oracle_corpus():
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                want = oracle_read_ratings(path, 5).tolist()
            except ValueError as e:
                want = str(e)
                errors += 1
            try:
                got = _read_ratings(path, 5).values.tolist()
            except ValueError as e:
                got = str(e)
            assert got == want, text
            checked += 1
        assert checked == 4 * 13 + 2 * 13 * 13 and 0 < errors < checked

    @pytest.mark.parametrize("text,values", [
        ("1,2,3\n4,5,1", [[1, 2, 3], [4, 5, 1]]),
        ("item1,item2\n1,2\n3,4\n", [[1, 2], [3, 4]]),
    ], ids=["bom", "bom-header"])
    def test_utf8_byte_order_mark(self, text, values, tmp_path, capsys):
        # a CSV saved as Excel's "CSV UTF-8" starts with the byte-order mark
        path = tmp_path / "ratings.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert _read_ratings(str(path), 5).values.tolist() == values
        code = run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                       "--out", str(tmp_path / "fit.json"), "--no-se")
        assert code == EXIT_OK, capsys.readouterr().err


# (id, artifact change) pairs of a field whose length does not fit the
# model: the 4 items of the fit below, or d(d + 1)/2 = 1 Cholesky entries
WRONG_LENGTHS = [
    ("sigma_cholesky-empty", {"sigma_cholesky": []}),
    ("alpha-short", {"alpha": [0.1, 0.2, 0.3]}),
    ("se-short", {"se": [0.1, 0.2]}),
    ("alpha_shape-negative", {"alpha_shape": [-1, 1]}),
]

# (id, artifact change) pairs that give a field the wrong JSON type: each is
# exit 1 with a message, not a traceback, "false" is not read as true and
# true is not the integer 1
WRONG_TYPES = [
    ("alpha_shape-string", {"alpha_shape": "x"}),
    ("alpha_shape-float", {"alpha_shape": [4.0, 1]}),
    ("iterations-null", {"iterations": None}),
    ("loglik-null", {"loglik": None}),
    ("warnings-number", {"warnings": 5}),
    ("converged-string", {"converged": "false"}),
    ("iterations-true", {"iterations": True}),
    ("alpha_shape-true", {"alpha_shape": [True, 1]}),
    ("loglik-true", {"loglik": True}),
    ("loglik-string", {"loglik": "1.5"}),
    *((f"{key}-object", {key: {"0": 1.0}}) for key in ("alpha", "eta", "sigma_cholesky", "se")),
]


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

    def test_zero_parameter_fit_rows(self, zero_parameter_fit, tmp_path):
        out = tmp_path / "fuzzy.csv"
        code = run_cli("convert", "--preset", "fig1-5cat", "--fit", str(zero_parameter_fit),
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


    def test_unknown_covariance_is_a_domain_error(self, zero_parameter_fit, tmp_path, capsys):
        doc = json.loads(zero_parameter_fit.read_text())
        doc["model"]["covariance"] = "bogus"
        zero_parameter_fit.write_text(json.dumps(doc))
        code = run_cli("convert", "--preset", "fig1-5cat", "--fit", str(zero_parameter_fit),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "covariance must be one of ('scalar', 'diagonal', 'unstructured')" in err

    def test_artifact_not_an_object(self, tmp_path, capsys):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text("[1, 2]")
        code = run_cli("convert", "--preset", "fig1-5cat", "--fit", str(fit_path),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "fit artifact must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "eta", "tree_digest", "converged"])
    def test_missing_top_level_field(self, key, ratings_csv, tmp_path, capsys):
        path, _ = ratings_csv
        fit_path = tmp_path / "fit.json"
        run_cli("fit", "--preset", "fig1-5cat", "--data", str(path),
                "--out", str(fit_path), "--no-se")
        doc = json.loads(fit_path.read_text())
        del doc[key]
        fit_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli("convert", "--preset", "fig1-5cat", "--fit", str(fit_path),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert f"fit artifact is missing field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"model": 5}, {"eta": [0.0, 1.0]}, {"eta": [[0.0, 0.0, 0.0]]},
        {"alpha_shape": [4]}, {"alpha": "x"}, {"sigma_cholesky": [-1.0]},
        {"sigma_cholesky": [1.0, 0.0, 1.0]},
        *(pytest.param(change, id=id_) for id_, change in WRONG_TYPES + WRONG_LENGTHS),
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
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert next(iter(change)) in err  # the message names the field


def oracle_fuzzy_csv(fz):
    """The convert CSV written one cell at a time, field by field."""
    def g6(x):
        return f"{x:.6g}"

    lines = ["rater,item,y,c,l,r,omega,clamped\n"]
    n_raters, n_items = fz.shape
    for i in range(n_raters):
        for j in range(n_items):
            y = "" if fz.y is None else str(int(fz.y[i, j]))
            lines.append(
                f"{i + 1},{j + 1},{y},{g6(fz.c[i, j])},{g6(fz.l[i, j])},"
                f"{g6(fz.r[i, j])},{g6(fz.omega[i, j])},{int(fz.clamped[i, j])}\n"
            )
    return "".join(lines)


class TestFuzzyCsv:
    # 3 raters x 5 items, so that swapped rater and item columns differ; the
    # reals sit at the edges of 6-digit rendering (1e-05, rounding up to the
    # next digit or power of ten, a tie, exact integers)
    EDGES = [1e-05, 0.99999995, 4.9999996, 123456.5, 3.0, 1.0, 2.5, 0.2, 4.0000004]

    def matrix(self, with_y):
        shape = (3, 5)
        base = np.resize(np.array(self.EDGES), 15).reshape(shape)
        return FuzzyRatingMatrix(
            c=base, l=base[::-1] - 1.0, r=np.roll(base, 4) + 2.0,
            omega=np.resize(np.array([1.0, 0.99999995, 1e-05, 0.2]), 15).reshape(shape),
            clamped=np.arange(15).reshape(shape) % 4 == 1,
            y=(np.arange(15).reshape(shape) % 5 + 1) if with_y else None,
        )

    @pytest.mark.parametrize("with_y", [True, False], ids=["y", "no-y"])
    def test_matches_the_per_cell_writer(self, with_y):
        fz = self.matrix(with_y)
        text = _fuzzy_csv(fz)
        assert text == oracle_fuzzy_csv(fz)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows[:6]] == [
            ("1", "1"), ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"), ("2", "1")]
        assert rows[0][2:4] == (["1", "1e-05"] if with_y else ["", "1e-05"])
        assert [r[3] for r in rows[1:5]] == ["1", "5", "123456", "3"]
        assert {r[7] for r in rows} == {"0", "1"}

    @settings(max_examples=50, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), with_y=st.booleans(),
           data=st.data())
    def test_matches_the_per_cell_writer_on_any_reals(self, shape, with_y, data):
        n = shape[0] * shape[1]
        reals = [np.array(data.draw(st.lists(st.floats(width=64), min_size=n, max_size=n)))
                 .reshape(shape) for _ in range(4)]
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)))
        fz = FuzzyRatingMatrix(*reals, clamped=flags.reshape(shape),
                               y=y.reshape(shape) if with_y else None)
        assert _fuzzy_csv(fz) == oracle_fuzzy_csv(fz)

    @staticmethod
    def hard_reals(rng, n):
        """n reals that stress 6-digit rendering, in random order."""
        decades = 10.0 ** rng.uniform(-5, 7, n // 4)  # every decade from 1e-5 to 1e7
        # nearest doubles to 6-digit rounding ties and a few ulps either side
        ties = ((rng.integers(100_000, 1_000_000, n // 40) + 0.5)
                * 10.0 ** rng.integers(-10, 2, n // 40))
        steps = [ties]
        for direction in (0.0, np.inf):
            near = ties
            for _ in range(3):
                near = np.nextafter(near, direction)
                steps.append(near)
        # just below each power of ten: a few ulps, and 999999.5 at every scale
        powers = 10.0 ** np.arange(-6, 8)
        below = [powers * 0.9999995, powers * 0.99999949]
        near = powers
        for _ in range(3):
            near = np.nextafter(near, 0.0)
            below.append(near)
        special = [0.0, -0.0, 5e-324, 2.2e-308, 1e-310, np.nan, np.inf, -np.inf, 1e308]
        reals = np.concatenate([decades, *steps, *below, special])
        reals = np.concatenate([reals, -reals, rng.uniform(0.2, 6.0, n)])[:n]
        assert reals.size == n
        return rng.permutation(reals)

    def test_matches_the_per_cell_writer_at_scale(self):
        # 10,000 raters, so rater labels reach 5 digits; 100,000 cells
        rng = np.random.default_rng(20240614)
        shape = (10_000, 10)
        n = shape[0] * shape[1]
        reals = [self.hard_reals(rng, n).reshape(shape) for _ in range(4)]
        fz = FuzzyRatingMatrix(*reals, clamped=rng.random(shape) < 0.3,
                               y=rng.integers(1, 8, shape))
        text = _fuzzy_csv(fz)
        assert text == oracle_fuzzy_csv(fz)
        assert text.endswith("\n10000,10,%d,%s,%s,%s,%s,%d\n" % (
            fz.y[-1, -1], *("%.6g" % a[-1, -1] for a in reals), fz.clamped[-1, -1]))


class TestOutputFile:
    @pytest.mark.parametrize("command", ["fit", "convert", "simulate"])
    def test_render_error_keeps_the_previous_file(self, command, ratings_csv,
                                                  zero_parameter_fit, tmp_path, monkeypatch,
                                                  capsys):
        # fit_to_json's Cholesky factor raises LinAlgError, a ValueError, on a
        # Sigma that is not numerically positive definite; each command renders
        # its --out text before it opens the file
        def render_error(*args):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        design = tmp_path / "design.json"
        design.write_text(json.dumps({"I": [20], "J": [4], "pi": [0.0], "B": 1,
                                      "tree": "fig1-5cat", "seed": 5}))
        argv, renderer = {
            "fit": (["fit", "--preset", "fig1-5cat", "--data", str(ratings_csv[0]), "--no-se"],
                    (cli, "fit_to_json")),
            "convert": (["convert", "--preset", "fig1-5cat", "--fit", str(zero_parameter_fit)],
                        (cli, "_fuzzy_csv")),
            "simulate": (["simulate", "--design", str(design)], (simulation.SimResult, "to_csv")),
        }[command]
        monkeypatch.setattr(*renderer, render_error)
        out = tmp_path / "keep.out"
        out.write_bytes(b"previous output\n")
        assert run_cli(*argv, "--out", str(out)) == EXIT_DOMAIN
        assert "error: Matrix is not positive definite" in capsys.readouterr().err
        assert out.read_bytes() == b"previous output\n"


def test_a_key_error_is_a_bug_not_a_domain_error(monkeypatch):
    # every keyed read of an input document is checked first, so a KeyError
    # can only come from the program and must not print as a bad input
    def lookup_error(args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "cmd_validate_tree", lookup_error)
    with pytest.raises(KeyError, match="missing"):
        main(["validate-tree", "--preset", "fig1-5cat"])


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

    def test_beta_too_narrow_to_bin_is_a_domain_error(self, tmp_path, capsys):
        doc = {"I": [20], "J": [4], "pi": [0.5], "B": 1, "tree": "fig1-5cat", "seed": 5,
               "gamma": 4e10, "delta": 4e10}
        design = tmp_path / "design.json"
        design.write_text(json.dumps(doc))
        code = run_cli("simulate", "--design", str(design), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "cannot bin the faking model's Beta(4e+10, 4e+10)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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
        doc.update(alpha0=-1, gamma=2.5, direction="faking-bad")
        design = _design_from_json(doc)
        assert (design.alpha0, design.gamma, design.direction) == (-1.0, 2.5, "faking-bad")

    def test_bad_optional_value(self, tmp_path, capsys):
        path = self._design(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "delta": "wide"}))
        code = run_cli("simulate", "--design", str(path), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "wide" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_worker_count_must_be_positive(self, threads, tmp_path, capsys):
        code = run_cli("simulate", "--design", str(self._design(tmp_path)),
                       "--out", str(tmp_path / "x.csv"), "--threads", threads)
        assert code == EXIT_DOMAIN
        assert "threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("I", 20), ("J", "4"), ("I", [20.5]), ("pi", None), ("pi", [None]),
        ("B", None), ("seed", [1]), ("alpha0", None), ("sigma_alpha", [0.25]),
        # one integer rule: no float, no numeric string and no true or false
        ("B", 2.7), ("B", "2"), ("B", True), ("seed", True), ("seed", 1.0), ("I", [True]),
        ("J", [4, False]),
        # one number rule: an int or a float, no numeric string and no true or false
        ("pi", [True]), ("pi", [0.5, "0.25"]), ("alpha0", "1.5"), ("alpha0", False),
        ("sigma_alpha", True), ("gamma", True), ("gamma", "2.5"), ("delta", "1"),
        ("alpha0", 10**400),
    ], ids=lambda v: repr(v)[:20])
    def test_wrongly_typed_design_field(self, key, value, tmp_path, capsys):
        path = self._design(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        code = run_cli("simulate", "--design", str(path), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert f"design field '{key}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("pi", [0.0, float("nan")], "pi must lie in [0, 1]"),
        ("pi", [0.0, 1.5], "pi must lie in [0, 1]"),
        ("gamma", float("nan"), "gamma and delta must be positive and finite"),
        ("delta", float("inf"), "gamma and delta must be positive and finite"),
        ("alpha0", float("nan"), "alpha0 must be finite"),
        ("sigma_alpha", float("nan"), "sigma_alpha must be finite and >= 0"),
        ("I", [20, 0], "I and J levels must be >= 1"),
        ("J", [-4], "I and J levels must be >= 1"),
        ("seed", -1, "seed must lie in 0..2**64 - 1"),
        ("seed", 2**64, "seed must lie in 0..2**64 - 1"),
    ], ids=["nan", "1.5", "gamma-nan", "delta-inf", "alpha0-nan", "sigma_alpha-nan",
            "I-0-after-20", "J-negative", "seed-negative", "seed-2**64"])
    def test_bad_faking_level_runs_nothing(self, key, value, message, tmp_path, capsys,
                                           monkeypatch):
        # json writes NaN and Infinity as bare literals, which the design
        # reader accepts; a bad faking level, generating value, size level or
        # seed runs no replication, not even those of the cells before it
        def replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulation, "_run_replication", replication)
        path = self._design(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        out = tmp_path / "x.csv"
        code = run_cli("simulate", "--design", str(path), "--out", str(out))
        assert code == EXIT_DOMAIN
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_inline_tree_object(self, tmp_path):
        path = self._design(tmp_path, B=1)
        tree = json.loads(preset_tree("fig1-5cat").spec_text())
        path.write_text(json.dumps({**json.loads(path.read_text()), "tree": tree}))
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--design", str(path), "--out", str(out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_tree_of_the_wrong_type(self, tmp_path, capsys):
        path = self._design(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "tree": 5}))
        code = run_cli("simulate", "--design", str(path), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "design field 'tree' must be a preset name or an inline tree spec" in (
            capsys.readouterr().err)

    def test_design_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text("[1, 2]")
        code = run_cli("simulate", "--design", str(path), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "design must be a JSON object" in capsys.readouterr().err

    def test_missing_design_field(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"I": [10], "J": [4], "pi": [0.0], "B": 1,
                                    "tree": "fig1-5cat"}))
        code = run_cli("simulate", "--design", str(path),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN
        assert "seed" in capsys.readouterr().err


def _fresh_python(*argv):
    """Run `python argv...` in a fresh interpreter that imports the package from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_installed_entry_point(tmp_path):
    proc = _fresh_python("-m", "fuzzyirtree.cli", "eval", "--c", "3", "--l", "2",
                         "--r", "4", "--omega", "1", "--y", "2.5")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"


class TestOptimizerImport:
    """No command loads a scipy module, scipy.optimize included; each case is
    a fresh process."""

    SCRIPT = """
import json, sys
from fuzzyirtree import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

before = scipy_modules()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([before, codes, scipy_modules()]))
"""

    def _run(self, commands):
        proc = _fresh_python("-c", self.SCRIPT, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_commands_that_do_not_fit(self, zero_parameter_fit, tmp_path):
        commands = [
            ["convert", "--preset", "fig1-5cat", "--fit", str(zero_parameter_fit),
             "--out", str(tmp_path / "fuzzy.csv")],
            ["eval", "--c", "3", "--l", "2", "--r", "4", "--grid"],
            ["validate-tree", "--preset", "fig2-6cat"],
        ]
        assert self._run(commands) == [[], [EXIT_OK] * 3, []]

    def test_fit_does_not_load_it(self, ratings_csv, tmp_path):
        # with SEs, the default
        path, _ = ratings_csv
        fit = ["fit", "--preset", "fig1-5cat", "--data", str(path),
               "--out", str(tmp_path / "fit.json")]
        assert self._run([fit]) == [[], [EXIT_OK], []]

    def test_serial_and_pooled_studies_do_not_load_it(self, tmp_path):
        # the serial study bins the faking model's Beta (pi = 0.5) in this
        # process, then a --threads 2 study forks its workers from it
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"I": [20], "J": [4], "pi": [0.0, 0.5], "B": 2,
                                      "tree": "fig1-5cat", "seed": 5}))
        simulate = ["simulate", "--design", str(design), "--out", str(tmp_path / "s.csv")]
        assert self._run([simulate, simulate + ["--threads", "2"]]) == [[], [EXIT_OK] * 2, []]


class TestPoolImport:
    """Only a study that forks loads multiprocessing and concurrent.futures;
    each case is a fresh process."""

    SCRIPT = """
import json, sys
from fuzzyirtree import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
pool = sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))
print(json.dumps([codes, pool]))
"""

    def _run(self, commands):
        proc = _fresh_python("-c", self.SCRIPT, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.fixture
    def simulate(self, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"I": [20], "J": [4], "pi": [0.0, 0.5], "B": 2,
                                      "tree": "fig1-5cat", "seed": 5}))
        return ["simulate", "--design", str(design), "--out", str(tmp_path / "s.csv")]

    def test_commands_that_do_not_fork(self, ratings_csv, zero_parameter_fit, tmp_path,
                                       simulate):
        path, _ = ratings_csv
        commands = [
            ["fit", "--preset", "fig1-5cat", "--data", str(path),
             "--out", str(tmp_path / "fit.json")],
            ["convert", "--preset", "fig1-5cat", "--fit", str(zero_parameter_fit),
             "--out", str(tmp_path / "fuzzy.csv")],
            ["eval", "--c", "3", "--l", "2", "--r", "4", "--grid"],
            ["validate-tree", "--preset", "fig2-6cat"],
            simulate,
        ]
        assert self._run(commands) == [[EXIT_OK] * 5, []]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: the study runs serially")
    def test_a_pooled_study_loads_them(self, simulate):
        codes, pool = self._run([simulate + ["--threads", "2"]])
        assert codes == [EXIT_OK]
        assert {"multiprocessing", "concurrent.futures"} <= set(pool)
