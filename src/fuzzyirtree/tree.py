"""Binary response trees encoded as mapping matrices.

A tree with M response categories and N decision nodes is stored as an
M x N matrix whose entry for (category, node) is 1 if the category's path
takes the "yes" branch at that node, 0 for the "no" branch, and NA
(np.nan) if the node is not on the category's path.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ResponseTree:
    """Mapping-matrix representation of a binary decision tree.

    map entries live in {0.0, 1.0, nan}; nan marks "node not on path" and
    is never conflated with 0.
    """

    M: int
    N: int
    map: np.ndarray
    node_labels: tuple

    def __post_init__(self):
        m = np.array(self.map, dtype=float)
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if m.shape != (self.M, self.N):
            raise ValueError(f"map must be {self.M}x{self.N}, got {m.shape}")
        ok = np.isnan(m) | (m == 0.0) | (m == 1.0)
        if not ok.all():
            raise ValueError("map entries must be 0, 1, or NA")
        if len(self.node_labels) != self.N:
            raise ValueError("need one label per node")
        m.setflags(write=False)
        object.__setattr__(self, "map", m)
        object.__setattr__(self, "node_labels", tuple(self.node_labels))

    def spec_text(self) -> str:
        """Canonical JSON serialization (NA rendered as null)."""
        rows = [[None if np.isnan(x) else int(x) for x in row] for row in self.map]
        doc = {"M": self.M, "nodes": list(self.node_labels), "map": rows}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.spec_text().encode("utf-8")).hexdigest()


def expit(x) -> np.ndarray:
    """1/(1 + exp(-x)) elementwise in a new float array; 0, with no warning, past overflow."""
    e = np.negative(x, dtype=float, out=np.empty(np.shape(x)))
    e[e > 709.782712893384] = np.inf  # the log of the largest float: exp overflows past it
    return np.divide(1.0, np.add(np.exp(e, out=e), 1.0, out=e), out=e)


def category_probabilities(tree: ResponseTree, traits, easiness) -> np.ndarray:
    """Model-implied probability of each response category.

    Each category's probability is the product of its branch probabilities:
    p at nodes taken with 1, (1-p) at nodes taken with 0, skipping NA nodes.
    `traits` and `easiness` are finite length-N vectors.
    """
    eta = np.asarray(traits, dtype=float)
    alpha = np.asarray(easiness, dtype=float)
    for what, v in (("traits", eta), ("easiness", alpha)):
        if v.shape != (tree.N,):
            raise ValueError(f"{what} must have length {tree.N}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{what} must be finite")
    return category_probability_table(tree, eta, alpha)


def category_probability_table(tree: ResponseTree, eta, alpha) -> np.ndarray:
    """Vectorized category probabilities; eta/alpha broadcast to (..., N).

    Each category is the product of its row of one (..., M, N) branch table, taken
    from the (..., 3N) row (1 - p, p, 1): p at a 1 of the map, 1 - p at 0, 1 at NA.
    """
    p = expit(np.asarray(eta, float) + np.asarray(alpha, float))
    index = np.arange(tree.N) + tree.N * np.nan_to_num(tree.map, nan=2.0).astype(np.intp)
    return np.concatenate([1.0 - p, p, np.ones_like(p)], axis=-1).take(index, -1).prod(-1)


@dataclass
class ValidationReport:
    valid: bool
    errors: list = field(default_factory=list)
    max_sum_deviation: float = 0.0

    def __str__(self):
        if self.valid:
            return (
                "tree is valid "
                f"(max category-sum deviation {self.max_sum_deviation:.3g})"
            )
        return "tree is invalid:\n" + "\n".join(f"  - {e}" for e in self.errors)


def validate_tree(tree: ResponseTree) -> ValidationReport:
    """Structural checks plus a Monte-Carlo sum-to-one check.

    Runs 100 random parameter draws and records the largest deviation of the
    category-probability sum from 1.
    """
    errors = []
    on = ~np.isnan(tree.map)
    for m in range(tree.M):
        if not on[m].any():
            errors.append(f"category {m + 1}: all entries NA")
    for m1 in range(tree.M):
        for m2 in range(m1 + 1, tree.M):
            same = np.array_equal(tree.map[m1], tree.map[m2], equal_nan=True)
            if same:
                errors.append(
                    f"duplicate category path: categories {m1 + 1} and {m2 + 1}"
                )
    rng = np.random.default_rng(20240517)
    eta = rng.normal(0.0, 1.5, size=(100, tree.N))
    alpha = rng.normal(0.0, 1.5, size=(100, tree.N))
    sums = category_probability_table(tree, eta, alpha).sum(axis=-1)
    dev = float(np.max(np.abs(sums - 1.0)))
    if dev > 1e-9:
        errors.append(f"category probabilities do not sum to 1 (max deviation {dev:.3g})")
    return ValidationReport(valid=not errors, errors=errors, max_sum_deviation=dev)


NA = np.nan

_PRESETS = {
    # Five-category scale: root engagement node, then direction, then
    # strength on each side; the middle category stops at the root.
    "fig1-5cat": dict(
        M=5,
        nodes=("Z1", "Z2", "Z3", "Z4"),
        map=[
            [1, 0, 0, NA],
            [1, 0, 1, NA],
            [0, NA, NA, NA],
            [1, 1, NA, 0],
            [1, 1, NA, 1],
        ],
    ),
    # Six-category scale: strong/weak attitude split, weak side picks a
    # middle category, strong side picks direction then extremity. The two
    # extremity leaves share one parameter column.
    "fig2-6cat": dict(
        M=6,
        nodes=("M", "A_w", "A_s", "E"),
        map=[
            [1, NA, 0, 1],
            [1, NA, 0, 0],
            [0, 0, NA, NA],
            [0, 1, NA, NA],
            [1, NA, 1, 0],
            [1, NA, 1, 1],
        ],
    ),
}


def preset_tree(name: str) -> ResponseTree:
    """Return a built-in tree; known names: fig1-5cat, fig2-6cat."""
    if name not in _PRESETS:
        known = ", ".join(sorted(_PRESETS))
        raise ValueError(f"unknown preset {name!r}; known presets: {known}")
    p = _PRESETS[name]
    return ResponseTree(M=p["M"], N=len(p["nodes"]), map=p["map"], node_labels=p["nodes"])


def parse_tree_spec(text: str) -> ResponseTree:
    """Parse the JSON tree-spec document and validate the result."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed tree spec: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError("tree spec must be a JSON object")
    for key in ("M", "nodes", "map"):
        if key not in doc:
            raise ValueError(f"tree spec missing field '{key}'")
    m_count = doc["M"]
    if not isinstance(m_count, int) or m_count < 2:
        raise ValueError("'M' must be an integer >= 2")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(s, str) for s in nodes):
        raise ValueError("'nodes' must be a list of strings")
    rows = doc["map"]
    if not isinstance(rows, list) or len(rows) != m_count:
        raise ValueError(f"'map' must have {m_count} rows")
    n_count = len(nodes)
    mat = np.full((m_count, n_count), np.nan)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_count:
            raise ValueError(f"map row {i + 1} must have {n_count} entries")
        for j, v in enumerate(row):
            if v is None:
                continue
            if v not in (0, 1) or isinstance(v, bool):
                raise ValueError(
                    f"map entry must be 0, 1, or null (row {i + 1}, column {j + 1})"
                )
            mat[i, j] = v
    tree = ResponseTree(M=m_count, N=n_count, map=mat, node_labels=tuple(nodes))
    report = validate_tree(tree)
    if not report.valid:
        raise ValueError("invalid tree: " + "; ".join(report.errors))
    return tree
