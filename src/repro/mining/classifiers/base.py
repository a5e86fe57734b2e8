"""Classifier interface.

All classifiers are binary: label ``1`` means *false positive* (the "Yes"
class of Table III), label ``0`` means *real vulnerability*.  They are
implemented from scratch on numpy — the paper used WEKA, which is not
available offline (see DESIGN.md substitution #3).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClassifierError


class Classifier:
    """Base class for binary classifiers."""

    #: short name used in tables and reports.
    name: str = "classifier"

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on (n, d) features and (n,) 0/1 labels; returns self."""
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict 0/1 labels for (n, d) features."""
        raise NotImplementedError

    def predict_one(self, x: np.ndarray) -> int:
        """Predict the label of a single instance."""
        return int(self.predict(np.asarray(x, dtype=np.float64)
                                .reshape(1, -1))[0])

    # ------------------------------------------------------------------
    @staticmethod
    def _check_fit_inputs(X: np.ndarray, y: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ClassifierError(f"X must be 2-D, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ClassifierError("X must be finite")
        if y.shape != (X.shape[0],):
            raise ClassifierError(
                f"y shape {y.shape} does not match X rows {X.shape[0]}")
        labels = set(np.unique(y).tolist())
        if not labels <= {0, 1}:
            raise ClassifierError(f"labels must be 0/1, got {labels}")
        return X, y.astype(np.int64)

    def _check_predict_inputs(self, X: np.ndarray,
                              width: int) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != width:
            raise ClassifierError(
                f"expected (n, {width}) features, got {X.shape}")
        return X
