"""The execution-time predictor and its accuracy report.

Wraps the gradient-boosted regressor with the paper's two evaluation
lenses (Section 2.5): the regressor view (L1 error in ms) and the
classifier view (precision and recall of "is this query long?" at the
80 ms threshold).  An optional feature-noise knob degrades accuracy
toward a desired operating point — production features are noisier
than our synthetic index statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PredictorConfig
from ..errors import PredictionError
from .boosted import GradientBoostedRegressor

__all__ = ["ExecutionTimePredictor", "PredictorReport"]


@dataclass(frozen=True)
class PredictorReport:
    """Accuracy of a trained predictor on held-out queries."""

    l1_error_ms: float
    precision: float
    recall: float
    long_threshold_ms: float
    num_eval: int

    @classmethod
    def from_predictions(
        cls,
        predictions_ms: np.ndarray,
        demands_ms: np.ndarray,
        long_threshold_ms: float,
    ) -> "PredictorReport":
        """Score predictions against measured demands."""
        predictions = np.asarray(predictions_ms, dtype=np.float64)
        y = np.asarray(demands_ms, dtype=np.float64)
        if len(predictions) != len(y):
            raise PredictionError("predictions and demands must align")
        predicted_long = predictions > long_threshold_ms
        actual_long = y > long_threshold_ms
        true_positive = int((predicted_long & actual_long).sum())
        precision = (
            true_positive / predicted_long.sum() if predicted_long.any() else 1.0
        )
        recall = true_positive / actual_long.sum() if actual_long.any() else 1.0
        return cls(
            l1_error_ms=float(np.abs(predictions - y).mean()),
            precision=float(precision),
            recall=float(recall),
            long_threshold_ms=long_threshold_ms,
            num_eval=len(y),
        )

    def as_row(self) -> dict[str, float]:
        """Flat dict for tabular reports."""
        return {
            "l1_error_ms": self.l1_error_ms,
            "precision": self.precision,
            "recall": self.recall,
            "long_threshold_ms": self.long_threshold_ms,
            "num_eval": self.num_eval,
        }


class ExecutionTimePredictor:
    """Boosted-tree predictor of sequential query execution time."""

    def __init__(self, config: PredictorConfig | None = None) -> None:
        self.config = config if config is not None else PredictorConfig()
        self._model = GradientBoostedRegressor(
            num_trees=self.config.num_trees,
            learning_rate=self.config.learning_rate,
            max_depth=self.config.max_depth,
            min_samples_leaf=self.config.min_samples_leaf,
            subsample=self.config.subsample,
        )
        self._noise_rng: np.random.Generator | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._model.is_fitted

    def fit(
        self,
        features: np.ndarray,
        demands_ms: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> "ExecutionTimePredictor":
        """Train on query features and measured sequential demands.

        Targets are fit in log space (demands span two orders of
        magnitude; log targets keep short-query accuracy from being
        drowned out) and exponentiated at prediction time.
        """
        y = np.asarray(demands_ms, dtype=np.float64)
        if (y <= 0).any():
            raise PredictionError("demands must be positive")
        X = self._noisy(np.asarray(features, dtype=np.float64), rng)
        self._model.fit(X, np.log(y), rng=rng)
        self._noise_rng = rng
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted execution time (ms) for a feature matrix."""
        X = np.asarray(features, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        X = self._noisy(X, self._noise_rng)
        return np.exp(self._model.predict(X))

    def evaluate(
        self, features: np.ndarray, demands_ms: np.ndarray
    ) -> PredictorReport:
        """L1 error plus long-query precision/recall on held-out data."""
        return PredictorReport.from_predictions(
            self.predict(features), demands_ms, self.config.long_threshold_ms
        )

    def _noisy(
        self, X: np.ndarray, rng: np.random.Generator | None
    ) -> np.ndarray:
        sigma = self.config.feature_noise_sigma
        if sigma <= 0 or rng is None:
            return X
        return X * rng.lognormal(0.0, sigma, size=X.shape)
