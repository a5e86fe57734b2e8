"""Tests for the evaluation helpers (classifier comparison, curves)."""

import pytest

from repro.mining import build_dataset
from repro.mining.evaluation import (
    CLASSIFIER_POOL,
    compare_classifiers,
    learning_curve,
    render_rows,
    select_top3,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("new")


@pytest.fixture(scope="module")
def rows(dataset):
    # the whole pool at Table II's 10 folds: these are the paper tables
    return compare_classifiers(dataset, CLASSIFIER_POOL, k=10)


def _row(rows, name):
    return next(r for r in rows if r.name == name)


class TestComparison:
    def test_one_row_per_classifier(self, rows):
        assert len(rows) == len(CLASSIFIER_POOL)
        assert len({r.name for r in rows}) == len(CLASSIFIER_POOL)

    def test_matrices_cover_dataset(self, rows, dataset):
        for row in rows:
            assert row.matrix.total == dataset.size

    @pytest.mark.parametrize("name, matrix", [
        ("SVM", (125, 4, 3, 124)),
        ("Logistic Regression", (117, 6, 11, 122)),
        ("Random Forest", (109, 0, 19, 128)),
    ])
    def test_table3_confusion_matrices(self, rows, name, matrix):
        """EXPERIMENTS.md Table III, measured column: (tp, fp, fn, tn)."""
        cm = _row(rows, name).matrix
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == matrix

    def test_select_top3(self, rows):
        top = select_top3(rows)
        assert len(top) == 3
        accs = [r.matrix.acc for r in rows]
        assert top[0].matrix.acc == max(accs)
        # the excluded classifiers are the least accurate
        excluded = {r.name for r in rows} - {r.name for r in top}
        assert max(_row(rows, name).matrix.acc for name in excluded) \
            < min(r.matrix.acc for r in top)

    def test_top3_is_the_papers_ensemble(self, rows):
        """§III-B1: SVM, LR and RF; Random Tree, Naive Bayes and k-NN
        score clearly worse (Table II)."""
        top = select_top3(rows)
        assert [r.name for r in top] == \
            ["SVM", "Logistic Regression", "Random Forest"]
        acc = {r.name: round(r.matrix.acc, 3) for r in rows}
        assert acc == {"SVM": 0.973, "Logistic Regression": 0.934,
                       "Random Forest": 0.926, "Random Tree": 0.730,
                       "Naive Bayes": 0.805, "K-NN": 0.602}

    def test_render_rows(self, rows):
        text = render_rows(rows)
        assert "classifier" in text
        for row in rows:
            assert row.name in text

    def test_pool_has_six_members(self):
        assert len(CLASSIFIER_POOL) == 6


class TestLearningCurve:
    def test_sizes_respected(self, dataset):
        curve = learning_curve(dataset, sizes=(40, 80), k=4)
        assert [size for size, _ in curve] == [40, 80]
        for size, cm in curve:
            assert cm.total == size

    def test_oversize_clamped(self, dataset):
        curve = learning_curve(dataset, sizes=(9_999,), k=4)
        assert curve[0][0] == dataset.size

    def test_subsets_stratified(self, dataset):
        curve = learning_curve(dataset, sizes=(64,), k=4)
        cm = curve[0][1]
        # balanced halves: 32 FP + 32 RV
        assert cm.tp + cm.fn == 32
        assert cm.fp + cm.tn == 32

    def test_full_size_beats_small(self, dataset):
        curve = dict(learning_curve(dataset, sizes=(48, 256), k=8))
        assert curve[256].acc > curve[48].acc
