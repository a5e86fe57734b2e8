"""CART decision trees (Gini impurity) and the Random Tree variant.

``DecisionTree`` considers all features at every split; ``RandomTree``
(the classifier used by the original WAP) samples a random feature subset
at each node, like a single tree of a random forest.

Each node is split by one vectorized search over all its sampled
features (``_best_split``).  It grows the same trees, node for node, as
the scalar per-feature, per-threshold loop it replaced, which
``tests/test_mining_classifiers.py`` keeps as the oracle.
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


def _best_split(values: np.ndarray, y: np.ndarray
                ) -> tuple[int, float, np.ndarray] | None:
    """``(column, threshold, left mask)`` of a node's Gini-best split, or
    None when no candidate puts rows on both sides.  A function of its
    own, so that its arrays are freed before ``_grow`` recurses."""
    n = y.shape[0]
    # candidates: the midpoints between distinct consecutive values, in
    # column order, then ascending threshold
    ordered = np.sort(values, axis=0)
    cols, rows = np.nonzero((ordered[1:] != ordered[:-1]).T)
    thresholds = (ordered[rows, cols] + ordered[rows + 1, cols]) / 2.0
    # count by comparison, not by boundary index: a midpoint can round
    # onto the upper value or overflow to inf
    masks = values[:, cols] <= thresholds
    n_left = np.count_nonzero(masks, axis=0)
    keep = np.flatnonzero((n_left > 0) & (n_left < n))
    if keep.size == 0:
        return None
    cols, thresholds, masks = cols[keep], thresholds[keep], masks[:, keep]
    n_left, left1 = n_left[keep], np.count_nonzero(masks[y == 1], axis=0)
    n_right, right1 = n - n_left, np.count_nonzero(y) - left1
    # the scalar loop's float expression; argmin is its tie rule
    p0, p1 = (n_left - left1) / n_left, left1 / n_left
    q0, q1 = (n_right - right1) / n_right, right1 / n_right
    best = int(np.argmin(n_left * (1.0 - (p0 * p0 + p1 * p1))
                         + n_right * (1.0 - (q0 * q0 + q1 * q1))))
    return int(cols[best]), float(thresholds[best]), masks[:, best]


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
        rng = np.random.default_rng(self.seed)
        self._root = self._grow(X, y, depth=0, rng=rng)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int,
              rng: np.random.Generator) -> _Node:
        counts = np.bincount(y, minlength=2)
        majority = int(np.argmax(counts))
        if (counts.min() == 0
                or (self.max_depth is not None and depth >= self.max_depth)
                or y.shape[0] < self.min_samples_split):
            return _Node(label=majority)

        n_features = X.shape[1]
        if self.max_features is not None and \
                self.max_features < n_features:
            feats = rng.choice(n_features, size=self.max_features,
                               replace=False)
        else:
            feats = np.arange(n_features)

        split = _best_split(X[:, feats], y)
        if split is None:
            return _Node(label=majority)
        column, threshold, mask = split
        left = self._grow(X[mask], y[mask], depth + 1, rng)
        right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return _Node(feature=int(feats[column]), threshold=threshold,
                     left=left, right=right, label=majority)

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
