"""Histogram-based CART regression tree (numpy only).

Features are pre-binned into at most 256 quantile bins; each split
search builds every feature's per-bin counts and sums with one
``np.bincount`` each over feature-offset codes and scans the
variance-gain of every bin boundary — the same strategy LightGBM-class
learners use, compact enough to implement and verify from scratch.
"""

from __future__ import annotations

import numpy as np

from ..errors import PredictionError

__all__ = ["FeatureBinner", "RegressionTree"]


class FeatureBinner:
    """Maps raw feature columns to small integer bins by quantile."""

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 256:
            raise PredictionError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        self._edges: list[np.ndarray] = []

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return bool(self._edges)

    def fit(self, features: np.ndarray) -> "FeatureBinner":
        """Learn per-feature quantile bin edges."""
        X = _as_matrix(features)
        self._edges = []
        quantiles = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        for j in range(X.shape[1]):
            edges = np.unique(np.quantile(X[:, j], quantiles))
            self._edges.append(edges)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Bin a feature matrix into uint8 codes."""
        if not self._edges:
            raise PredictionError("binner is not fitted")
        X = _as_matrix(features)
        if X.shape[1] != len(self._edges):
            raise PredictionError(
                f"expected {len(self._edges)} features, got {X.shape[1]}"
            )
        binned = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self._edges):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return binned

    def num_bins(self, feature: int) -> int:
        """Number of distinct bins of one feature."""
        return len(self._edges[feature]) + 1


class RegressionTree:
    """A depth-bounded least-squares regression tree on binned features.

    The fitted tree is stored as flat per-node arrays (split feature,
    threshold bin, left and right child, value); a leaf's children point
    back to itself, so prediction is ``max_depth`` vectorised routing
    steps with no per-node Python work.
    """

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 8) -> None:
        if max_depth < 1:
            raise PredictionError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise PredictionError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._value = np.empty(0, dtype=np.float64)

    @property
    def num_nodes(self) -> int:
        """Total node count after fitting."""
        return len(self._value)

    def fit(self, binned: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        """Fit to binned features (uint8) and continuous targets."""
        X = np.asarray(binned)
        y = np.asarray(targets, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise PredictionError("binned features and targets must align")
        if len(y) == 0:
            raise PredictionError("cannot fit a tree on zero samples")
        codes, width = _offset_codes(X)
        nodes: list[list] = []
        self._grow(codes, width, y, np.arange(len(y)), 0, nodes)
        splits = np.array([node[:4] for node in nodes], dtype=np.intp)
        self._feature, self._threshold, self._left, self._right = splits.T
        self._value = np.array([node[4] for node in nodes], dtype=np.float64)
        return self

    def _grow(
        self,
        codes: np.ndarray,
        width: int,
        y: np.ndarray,
        rows: np.ndarray,
        depth: int,
        nodes: list[list],
    ) -> int:
        node_id = len(nodes)
        nodes.append([0, 0, node_id, node_id, float(y[rows].mean())])
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return node_id
        split = self._best_split(codes, width, y, rows)
        if split is None:
            return node_id
        feature, threshold_bin = split
        go_left = codes[rows, feature] <= threshold_bin + feature * width
        left_id = self._grow(codes, width, y, rows[go_left], depth + 1, nodes)
        right_id = self._grow(codes, width, y, rows[~go_left], depth + 1, nodes)
        nodes[node_id][:4] = [feature, threshold_bin, left_id, right_id]
        return node_id

    def _best_split(
        self, codes: np.ndarray, width: int, y: np.ndarray, rows: np.ndarray
    ) -> tuple[int, int] | None:
        y_rows = y[rows]
        n = len(rows)
        num_features = codes.shape[1]
        total_sum = y_rows.sum()
        # Row-major ravel: every (feature, bin) sum accumulates in row
        # order, as a per-feature bincount would.
        flat = codes[rows].ravel()
        size = num_features * width
        counts = np.bincount(flat, minlength=size).reshape(num_features, width)
        sums = np.bincount(
            flat, weights=np.repeat(y_rows, num_features), minlength=size
        ).reshape(num_features, width)
        left_counts = np.cumsum(counts, axis=1)[:, :-1]
        left_sums = np.cumsum(sums, axis=1)[:, :-1]
        right_counts = n - left_counts
        right_sums = total_sum - left_sums
        valid = (left_counts >= self.min_samples_leaf) & (
            right_counts >= self.min_samples_leaf
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(
                valid,
                left_sums**2 / left_counts
                + right_sums**2 / right_counts
                - total_sum**2 / n,
                -np.inf,
            )
        # The first maximum in row-major order is the lowest feature
        # among tied gains, and its lowest bin.
        best = int(np.argmax(gain))
        if gain.flat[best] > 1e-12:
            return divmod(best, width - 1)
        return None

    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Predict for binned features."""
        if not len(self._value):
            raise PredictionError("tree is not fitted")
        X = np.asarray(binned)
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(self.max_depth):
            go_left = X[rows, self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        return self._value[node]


def _offset_codes(binned: np.ndarray) -> tuple[np.ndarray, int]:
    """Shift feature ``j``'s bin codes into ``[j * width, (j + 1) * width)``.

    One ``np.bincount`` over the shifted codes then histograms every
    feature at once; ``width`` is at least 2 so every feature has a bin
    boundary to scan.
    """
    X = np.asarray(binned)
    width = max(int(X.max()) + 1, 2)
    return X.astype(np.intp) + np.arange(X.shape[1]) * width, width


def _as_matrix(features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise PredictionError(f"features must be 2-D, got shape {X.shape}")
    return X
