"""CART decision trees (Gini impurity) and the Random Tree variant.

``DecisionTree`` considers all features at every split; ``RandomTree``
(the classifier used by the original WAP) samples a random feature subset
at each node, like a single tree of a random forest.

Trees grow on row bitsets, Python ints in which bit ``i`` stands for row
``i`` (a bootstrap duplicate is a row of its own).  A node's split search
walks each sampled column's distinct values present in the node, counting
with ``&`` and ``int.bit_count()``: its cost grows with those values, not
with its rows, and every caller trains on 0/1 symptom vectors.  The trees
are, node for node, the ones the scalar per-feature, per-threshold loop
grew, which ``tests/test_mining_classifiers.py`` keeps as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ClassifierError
from repro.mining.classifiers.base import Classifier


@dataclass
class _Node:
    """Internal tree node; a leaf when ``feature`` is None."""

    feature: int | None = None
    threshold: float = 0.5
    left: "_Node | None" = None
    right: "_Node | None" = None
    label: int = 0


def _columns(X: np.ndarray) -> list[list[tuple[float, int]]]:
    """Per column, its ascending distinct values, each with the bitset of
    the rows that hold it."""
    ordered = np.sort(X, axis=0)
    distinct = np.ones(X.shape, dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]
    cols, rows = np.nonzero(distinct.T)  # column by column, ascending
    values = ordered[rows, cols]
    packed = np.packbits(X.T[cols] == values[:, None], axis=1,
                         bitorder="little")
    columns: list[list[tuple[float, int]]] = [[] for _ in range(X.shape[1])]
    for col, value, bits in zip(cols.tolist(), values.tolist(), packed):
        columns[col].append((value, int.from_bytes(bits.tobytes(), "little")))
    return columns


class DecisionTree(Classifier):
    """Binary CART tree on (possibly continuous) features.

    Args:
        max_depth: depth cap; None means grow until pure.
        min_samples_split: do not split nodes smaller than this.
        max_features: features sampled per split (None = all).
        seed: RNG seed for feature sampling.
    """

    name = "Decision Tree"

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2,
                 max_features: int | None = None,
                 seed: int = 7) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._width = 0

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X, y = self._check_fit_inputs(X, y)
        self._width = X.shape[1]
        labels = int.from_bytes(np.packbits(y, bitorder="little").tobytes(),
                                "little")
        self._root = self._grow(_columns(X), labels, (1 << len(y)) - 1,
                                0, np.random.default_rng(self.seed))
        return self

    def _grow(self, columns: list[list[tuple[float, int]]], labels: int,
              rows: int, depth: int, rng: np.random.Generator) -> _Node:
        n = rows.bit_count()
        ones = (rows & labels).bit_count()
        majority = int(ones > n - ones)
        if (ones == 0 or ones == n
                or (self.max_depth is not None and depth >= self.max_depth)
                or n < self.min_samples_split):
            return _Node(label=majority)

        n_features = len(columns)
        if self.max_features is not None and \
                self.max_features < n_features:
            feats = rng.choice(n_features, size=self.max_features,
                               replace=False).tolist()
        else:
            feats = range(n_features)

        best = None  # (impurity, feature, threshold, left rows)
        for feature in feats:  # column order, then ascending threshold
            below, low = 0, 0.0  # the node's rows up to low, the last value
            for value, holders in columns[feature]:
                here = holders & rows
                if not here:
                    continue
                left, below = below, below | here
                lower, low = low, value
                threshold = (lower + value) / 2.0
                # a finite midpoint lies in [lower, value]; one that
                # overflowed puts every row, or none, on the left
                if not left or not lower <= threshold <= value:
                    continue
                if threshold == value:  # rounded onto value: take its rows
                    left = below
                n_left = left.bit_count()
                if n_left == n:
                    continue
                left1 = (left & labels).bit_count()
                n_right, right1 = n - n_left, ones - left1
                # the scalar loop's float expression; the first minimum wins
                p0, p1 = (n_left - left1) / n_left, left1 / n_left
                q0, q1 = (n_right - right1) / n_right, right1 / n_right
                impurity = (n_left * (1.0 - (p0 * p0 + p1 * p1))
                            + n_right * (1.0 - (q0 * q0 + q1 * q1)))
                if best is None or impurity < best[0]:
                    best = (impurity, feature, threshold, left)
        if best is None:
            return _Node(label=majority)
        _, feature, threshold, left = best
        # left first: both subtrees draw from rng
        return _Node(feature=feature, threshold=threshold,
                     left=self._grow(columns, labels, left, depth + 1, rng),
                     right=self._grow(columns, labels, rows ^ left,
                                      depth + 1, rng),
                     label=majority)

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise ClassifierError("predict before fit")
        X = self._check_predict_inputs(X, self._width)
        return np.array([self._walk(row) for row in X], dtype=np.int64)

    def _walk(self, row: np.ndarray) -> int:
        node = self._root
        assert node is not None
        while node.feature is not None:
            node = node.left if row[node.feature] <= node.threshold \
                else node.right
            assert node is not None
        return node.label

    def depth(self) -> int:
        """Actual depth of the grown tree (diagnostics)."""
        def d(node: _Node | None) -> int:
            if node is None or node.feature is None:
                return 0
            return 1 + max(d(node.left), d(node.right))
        return d(self._root)


class RandomTree(DecisionTree):
    """Single tree with random feature subsets at each split — the third
    classifier of the *original* WAP's top 3."""

    name = "Random Tree"

    def __init__(self, max_depth: int | None = None, seed: int = 7) -> None:
        super().__init__(max_depth=max_depth, min_samples_split=2,
                         max_features=None, seed=seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomTree":
        # WEKA's RandomTree default: int(log2(#features)) + 1
        n_features = np.asarray(X).shape[1]
        self.max_features = max(1, int(np.log2(max(n_features, 2))) + 1)
        super().fit(X, y)
        return self
