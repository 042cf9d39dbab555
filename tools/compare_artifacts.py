"""Compare two directories of canonical artifacts and say what changed.

Usage:

    python3 tools/compare_artifacts.py DIR_A DIR_B

Lists every file that is in only one directory or whose bytes differ. For a
JSON file it gives each changed top-level field with its count of changed
values and their largest relative change |b - a| / |a|; for a CSV file,
its changed cells and their largest relative change, then the same for
each changed column, named by A's header row. A value that is not a
number on both sides (text, null, true) counts as changed with relative
change inf, as does a number that moves away from 0. Other files are only
named. Exits 0 when the two directories are byte-identical and 1 otherwise.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import sys


def _leaves(value):
    """The scalars of a JSON value in document order, dicts by sorted key."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in _leaves(value[key])]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _relative(a, b) -> float:
    x, y = _number(a), _number(b)
    if x is None or y is None or math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(y - x) / abs(x) if x else math.inf


def _summary(pairs) -> tuple[int, float] | None:
    """(changed count, largest relative change) of (a, b) pairs, None if equal."""
    changed = [_relative(a, b) for a, b in pairs if a != b or type(a) is not type(b)]
    return (len(changed), max(changed)) if changed else None


def _describe(count: int, largest: float) -> str:
    return f"{count} changed, largest relative change {largest:.3g}"


def compare_json(text_a: str, text_b: str) -> list[str]:
    a, b = json.loads(text_a), json.loads(text_b)
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return ["  top level is not an object on both sides"]
    out = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            out.append(f"  {key}: only in {'B' if key not in a else 'A'}")
            continue
        la, lb = _leaves(a[key]), _leaves(b[key])
        if len(la) != len(lb):
            out.append(f"  {key}: {len(la)} values in A, {len(lb)} in B")
        elif (s := _summary(zip(la, lb))) is not None:
            out.append(f"  {key}: {_describe(*s)}")
    return out


def compare_csv(text_a: str, text_b: str) -> list[str]:
    rows_a = list(csv.reader(io.StringIO(text_a)))
    rows_b = list(csv.reader(io.StringIO(text_b)))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return [f"  shape: {len(rows_a)} rows in A, {len(rows_b)} in B, or rows differ in length"]
    cells = [(col, x, y) for ra, rb in zip(rows_a, rows_b) for col, (x, y) in enumerate(zip(ra, rb))]
    s = _summary((x, y) for _, x, y in cells)
    if s is None:
        return []
    out = [f"  cells: {_describe(*s)}"]
    header = rows_a[0]
    for col in range(max(len(r) for r in rows_a)):
        if (s := _summary((x, y) for c, x, y in cells if c == col)) is not None:
            name = header[col] if col < len(header) else f"column {col + 1}"
            out.append(f"    {name}: {_describe(*s)}")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = args
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    differ = 0
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}: only in {dir_b if name not in names_a else dir_a}")
            differ += 1
            continue
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            raw_a, raw_b = fa.read(), fb.read()
        if raw_a == raw_b:
            continue
        differ += 1
        print(f"{name}: differs")
        text_a, text_b = raw_a.decode("utf-8"), raw_b.decode("utf-8")
        details = (compare_json(text_a, text_b) if name.endswith(".json")
                   else compare_csv(text_a, text_b) if name.endswith(".csv") else [])
        for line in details:
            print(line)
    print(f"{differ} of {len(names_a | names_b)} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
