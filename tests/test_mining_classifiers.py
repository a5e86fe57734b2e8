"""Unit tests for the from-scratch classifiers."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.exceptions import ClassifierError
from repro.mining import build_dataset, build_original_dataset
from repro.mining.classifiers import (
    BernoulliNaiveBayes,
    DecisionTree,
    KNearestNeighbors,
    LinearSVM,
    LogisticRegression,
    RandomForest,
    RandomTree,
)
from repro.mining.classifiers.tree import _Node

ALL = [LogisticRegression, LinearSVM, DecisionTree, RandomTree,
       RandomForest, BernoulliNaiveBayes, KNearestNeighbors]


def _separable(n=60, d=8, seed=3):
    """Linearly separable binary data."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = (X @ w > 0).astype(np.int64)
    return X, y


def _binary_patterns(n=80, seed=5):
    """Binary feature data: class 1 iff the first 2 bits dominate."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 6)).astype(np.float64)
    y = ((X[:, 0] + X[:, 1]) >= 1).astype(np.int64)
    return X, y


@pytest.mark.parametrize("cls", ALL)
class TestCommonBehaviour:
    def test_fit_predict_training_accuracy(self, cls):
        X, y = _binary_patterns()
        clf = cls().fit(X, y)
        acc = (clf.predict(X) == y).mean()
        assert acc >= 0.9, f"{cls.__name__} training acc {acc}"

    def test_predict_before_fit_raises(self, cls):
        with pytest.raises(ClassifierError):
            cls().predict(np.zeros((1, 4)))

    def test_bad_label_raises(self, cls):
        X = np.zeros((4, 3))
        with pytest.raises(ClassifierError):
            cls().fit(X, np.array([0, 1, 2, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_raise(self, cls, bad):
        X, y = _binary_patterns()
        X[3, 1] = bad
        with pytest.raises(ClassifierError):
            cls().fit(X, y)

    def test_shape_mismatch_raises(self, cls):
        X, y = _binary_patterns()
        clf = cls().fit(X, y)
        with pytest.raises(ClassifierError):
            clf.predict(np.zeros((2, X.shape[1] + 1)))

    def test_predictions_are_binary(self, cls):
        X, y = _binary_patterns()
        pred = cls().fit(X, y).predict(X)
        assert set(np.unique(pred).tolist()) <= {0, 1}

    def test_deterministic(self, cls):
        X, y = _binary_patterns()
        p1 = cls().fit(X, y).predict(X)
        p2 = cls().fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_predict_one(self, cls):
        X, y = _binary_patterns()
        clf = cls().fit(X, y)
        assert clf.predict_one(X[0]) in (0, 1)

    def test_single_class_training(self, cls):
        X = np.ones((6, 3))
        y = np.ones(6, dtype=np.int64)
        clf = cls().fit(X, y)
        assert clf.predict(X).tolist() == [1] * 6


class TestLogisticRegression:
    def test_separable_high_accuracy(self):
        X, y = _separable()
        clf = LogisticRegression().fit(X, y)
        assert (clf.predict(X) == y).mean() >= 0.95

    def test_proba_in_unit_interval(self):
        X, y = _separable()
        p = LogisticRegression().fit(X, y).predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))

    def test_proba_monotone_with_labels(self):
        X, y = _separable()
        p = LogisticRegression().fit(X, y).predict_proba(X)
        assert p[y == 1].mean() > p[y == 0].mean()


class TestSVM:
    def test_separable_high_accuracy(self):
        X, y = _separable()
        clf = LinearSVM().fit(X, y)
        assert (clf.predict(X) == y).mean() >= 0.95

    def test_decision_sign_matches_predict(self):
        X, y = _separable()
        clf = LinearSVM().fit(X, y)
        scores = clf.decision_function(X)
        assert np.array_equal((scores >= 0).astype(int), clf.predict(X))


class TestTrees:
    def test_pure_leaf_fit(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        clf = DecisionTree().fit(X, y)
        assert clf.predict(X).tolist() == [0, 1]

    def test_max_depth_limits(self):
        X, y = _binary_patterns()
        shallow = DecisionTree(max_depth=1).fit(X, y)
        assert shallow.depth() <= 1

    def test_xor_needs_depth_two(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        clf = DecisionTree().fit(X, y)
        assert clf.predict(X).tolist() == [0, 1, 1, 0]

    def test_random_tree_uses_feature_subsets(self):
        X, y = _binary_patterns()
        clf = RandomTree().fit(X, y)
        assert clf.max_features is not None
        assert clf.max_features < X.shape[1]

    def test_forest_votes(self):
        X, y = _binary_patterns()
        clf = RandomForest(n_trees=9).fit(X, y)
        proba = clf.predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_forest_better_or_equal_single_tree_generalization(self):
        # forest should be at least decent on held-out data
        X, y = _binary_patterns(n=120)
        clf = RandomForest(n_trees=15, seed=1).fit(X[:80], y[:80])
        assert (clf.predict(X[80:]) == y[80:]).mean() >= 0.8


class TestKNN:
    def test_k1_memorizes(self):
        X, y = _binary_patterns()
        clf = KNearestNeighbors(k=1).fit(X, y)
        # with duplicate rows of conflicting labels this can differ;
        # use unique rows
        Xu, idx = np.unique(X, axis=0, return_index=True)
        assert (clf.predict(Xu) == y[idx]).mean() >= 0.9

    def test_invalid_k(self):
        with pytest.raises(ClassifierError):
            KNearestNeighbors(k=0)


class TestProperties:
    @given(st.integers(min_value=10, max_value=40),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_any_binary_data_fits(self, n, d, seed):
        """Every classifier handles arbitrary binary data without error."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        for cls in (LogisticRegression, LinearSVM, DecisionTree,
                    BernoulliNaiveBayes, KNearestNeighbors):
            pred = cls().fit(X, y).predict(X)
            assert pred.shape == (n,)


# ----------------------------------------------------------------------
# Oracle: the scalar split loop the trees were first grown with, on the
# node's rows of X and y.  The bitset grower must grow the same trees,
# node for node.

def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _fit(self, X, y):
    """Reference ``DecisionTree.fit``: grows from the arrays themselves."""
    X, y = self._check_fit_inputs(X, y)
    self._width = X.shape[1]
    self._root = self._grow(X, y, 0, np.random.default_rng(self.seed))
    return self


def _grow(self, X, y, depth, rng):
    """Reference ``DecisionTree._grow``: every feature, every threshold."""
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

    best = None  # (impurity, feature, threshold, mask)
    for f in feats:
        values = np.unique(X[:, f])
        if values.shape[0] < 2:
            continue
        thresholds = (values[:-1] + values[1:]) / 2.0
        for thr in thresholds:
            mask = X[:, f] <= thr
            n_left = int(mask.sum())
            if n_left == 0 or n_left == y.shape[0]:
                continue
            g = (n_left * _gini(np.bincount(y[mask], minlength=2))
                 + (y.shape[0] - n_left)
                 * _gini(np.bincount(y[~mask], minlength=2)))
            if best is None or g < best[0]:
                best = (g, int(f), float(thr), mask)
    if best is None:
        return _Node(label=majority)

    _, feature, threshold, mask = best
    left = self._grow(X[mask], y[mask], depth + 1, rng)
    right = self._grow(X[~mask], y[~mask], depth + 1, rng)
    return _Node(feature=feature, threshold=threshold,
                 left=left, right=right, label=majority)


def _preorder(node: _Node, out: list) -> list:
    """(feature, threshold bits, label) of every node in preorder; a
    leaf has feature None, so equal lists mean equal shapes too."""
    out.append((node.feature, node.threshold.hex(), node.label))
    if node.feature is not None:
        _preorder(node.left, out)
        _preorder(node.right, out)
    return out


def _trees(clf) -> list[list]:
    roots = [tree._root for tree in clf.trees] \
        if isinstance(clf, RandomForest) else [clf._root]
    return [_preorder(root, []) for root in roots]


def _assert_same_trees(make, X, y):
    reference_nodes = []

    def reference_grow(self, X, y, depth, rng):
        reference_nodes.append(depth)
        return _grow(self, X, y, depth, rng)

    with np.errstate(over="ignore"):  # huge edge values' midpoints
        grown = _trees(make().fit(X, y))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DecisionTree, "fit", _fit)
            patch.setattr(DecisionTree, "_grow", reference_grow)
            oracle = _trees(make().fit(X, y))
    # the reference loop grew every oracle node, so a seam that the
    # classifiers bypass cannot compare the grower with itself
    assert len(reference_nodes) == sum(map(len, oracle)) > 0
    assert grown == oracle


#: every tree classifier at its defaults and with depth and feature caps
#: (RandomTree always samples int(log2(d)) + 1 features per split)
ORACLE_CLASSIFIERS = {
    "decision-tree": DecisionTree,
    "decision-tree-capped": lambda: DecisionTree(max_depth=4,
                                                 max_features=3),
    "random-tree": RandomTree,
    "random-tree-capped": lambda: RandomTree(max_depth=4),
    "random-forest": RandomForest,
    "random-forest-capped": lambda: RandomForest(max_depth=4,
                                                 max_features=3),
}

#: generated cases grow ten-tree forests to stay fast; each tree still
#: has its own bootstrap sample and feature draws
SMALL_FOREST_CLASSIFIERS = dict(
    ORACLE_CLASSIFIERS,
    **{"random-forest": lambda: RandomForest(n_trees=10),
       "random-forest-capped": lambda: RandomForest(n_trees=10,
                                                    max_depth=4,
                                                    max_features=3)})

_ONE_UP = float(np.nextafter(1.0, 2.0))
#: signed zero, the smallest subnormals, neighbours of 1.0 whose midpoints
#: round onto the lower (1.0, 1.0+ulp) or the upper (1.0+ulp, 1.0+2ulp)
#: value, and huge values whose midpoint overflows to inf
EDGE_VALUES = (-0.0, 0.0, 1.0, _ONE_UP, float(np.nextafter(_ONE_UP, 2.0)),
               5e-324, 1e-323, 1e308, 1.7e308, -1e308, 2.0)


@st.composite
def _node_data(draw, kind: str, min_rows: int = 2, max_rows: int = 30):
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    d = draw(st.integers(min_value=1, max_value=5))
    if kind == "normal":
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        X = np.round(np.random.default_rng(seed).normal(size=(n, d)), 1)
    else:
        cell = {"binary": st.sampled_from((0.0, 1.0)),
                "grid": st.integers(min_value=0, max_value=3).map(float),
                "edge": st.sampled_from(EDGE_VALUES)}[kind]
        X = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                   min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(min_value=0, max_value=1),
                               min_size=n, max_size=n)))
    return X, y


class TestTreeOracle:
    @pytest.mark.parametrize("make", ORACLE_CLASSIFIERS.values(),
                             ids=ORACLE_CLASSIFIERS.keys())
    @pytest.mark.parametrize("version", ["new", "original"])
    def test_real_datasets(self, make, version):
        data = build_dataset("new") if version == "new" \
            else build_original_dataset()
        _assert_same_trees(make, data.X, data.y)

    @pytest.mark.parametrize("kind", ["binary", "grid", "normal", "edge"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_generated_data(self, kind, data):
        X, y = data.draw(_node_data(kind))
        for make in SMALL_FOREST_CLASSIFIERS.values():
            _assert_same_trees(make, X, y)

    @pytest.mark.parametrize("kind", ["binary", "grid", "normal"])
    @given(data=st.data())
    # no shrinking: each step would regrow every classifier, the scalar
    # oracle included, on up to 300 rows (minutes for a broken grower)
    @settings(max_examples=5, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    def test_generated_wide_data(self, kind, data):
        """65-300 rows: node bitsets that span several 64-bit words."""
        X, y = data.draw(_node_data(kind, min_rows=65, max_rows=300))
        for make in SMALL_FOREST_CLASSIFIERS.values():
            _assert_same_trees(make, X, y)

    def test_midpoint_rounding_and_overflow(self):
        """Midpoints that land on a value or overflow split by the real
        comparison: ``1.0+ulp``/``1.0+2ulp`` rounds up onto the upper
        value and ``1e308``/``1.7e308`` overflows to inf, so each puts
        every row on the left and is no split at all."""
        two_up = float(np.nextafter(_ONE_UP, 2.0))
        X = np.array([[_ONE_UP, 1e308], [two_up, 1.7e308],
                      [_ONE_UP, 1e308], [1.0, 1.7e308]])
        y = np.array([0, 1, 0, 1])
        _assert_same_trees(DecisionTree, X, y)
        with np.errstate(over="ignore"):
            root = DecisionTree().fit(X, y)._root
        assert (root.feature, root.threshold) == (0, 1.0)
        assert root.right.feature is None
        assert root.right.label == 0
