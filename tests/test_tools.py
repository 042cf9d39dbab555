"""tools/compare_artifacts.py, run as a refactor runs it: a subprocess on
two directories of artifacts; and tools/canonical_artifacts.py, whose
outputs it compares."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMPARE = ROOT / "tools" / "compare_artifacts.py"
CANONICAL = ROOT / "tools" / "canonical_artifacts.py"

FIT = {"alpha": [-1.5, -2.0], "converged": True, "se": [0.125, 0.25], "warnings": []}
CSV = "rater,item,c\n1,1,2.5\n1,2,3.25\n"


def compare(dir_a, dir_b):
    return subprocess.run([sys.executable, str(COMPARE), str(dir_a), str(dir_b)],
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def dirs(tmp_path):
    """Two identical artifact directories: a fit JSON, a CSV and a stdout file."""
    a = tmp_path / "a"
    a.mkdir()
    (a / "fit.json").write_text(json.dumps(FIT, sort_keys=True))
    (a / "convert.csv").write_text(CSV)
    (a / "fit.stdout").write_text("")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    return a, b


def test_identical_directories_exit_0(dirs):
    done = compare(*dirs)
    assert done.returncode == 0
    assert done.stdout == "0 of 3 files differ\n"


def test_one_changed_se_value_is_counted(dirs):
    a, b = dirs
    (b / "fit.json").write_text(json.dumps({**FIT, "se": [0.125, 0.5]}, sort_keys=True))
    done = compare(a, b)
    assert done.returncode == 1
    assert "fit.json: differs\n  se: 1 changed, largest relative change 1\n" in done.stdout
    assert "alpha" not in done.stdout
    assert done.stdout.endswith("1 of 3 files differ\n")


def test_one_changed_csv_cell_is_counted(dirs):
    a, b = dirs
    (b / "convert.csv").write_text(CSV.replace("3.25", "3.5"))
    done = compare(a, b)
    assert done.returncode == 1
    assert "convert.csv: differs\n  cells: 1 changed" in done.stdout


def test_changed_csv_columns_are_named(dirs):
    a, b = dirs
    (b / "convert.csv").write_text(CSV.replace("1,2,3.25", "1,3,3.5"))
    done = compare(a, b)
    assert done.returncode == 1
    assert ("convert.csv: differs\n"
            "  cells: 2 changed, largest relative change 0.5\n"
            "    item: 1 changed, largest relative change 0.5\n"
            "    c: 1 changed, largest relative change 0.0769\n") in done.stdout
    assert "rater" not in done.stdout


def test_a_file_on_one_side_only_is_named(dirs):
    a, b = dirs
    (b / "extra.csv").write_text(CSV)
    (a / "fit.stdout").unlink()
    done = compare(a, b)
    assert done.returncode == 1
    assert f"extra.csv: only in {b}\n" in done.stdout
    assert f"fit.stdout: only in {b}\n" in done.stdout
    assert done.stdout.endswith("2 of 4 files differ\n")


def test_canonical_artifacts_are_byte_identical_from_run_to_run(tmp_path):
    """Two runs of every canonical CLI output give the same bytes, one under
    OPENBLAS_NUM_THREADS=1 and one under 2, and each `simulate` CSV is the
    same at 1 and 2 threads."""
    # the tool pins BLAS to one thread itself, so the shell's setting moves no bit
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [tmp_path / "a", tmp_path / "b"]
    procs = [subprocess.Popen([sys.executable, str(CANONICAL), str(out)],
                              env={**env, "OPENBLAS_NUM_THREADS": blas_threads},
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
             for blas_threads, out in zip(("1", "2"), runs)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    done = compare(*runs)
    assert done.returncode == 0, done.stdout
    assert done.stdout == "0 of 178 files differ\n"
    one_thread = sorted(runs[0].glob("simulate-*-threads1.csv"))
    assert one_thread
    for path in one_thread:
        twin = path.with_name(path.name.replace("threads1", "threads2"))
        assert path.read_bytes() == twin.read_bytes(), path.name
