"""Pre-execution query features.

Mirrors the feature families of the predictor in [21]: term features
(IDF / document-frequency statistics of each keyword) and query
features (keyword count, aggregate posting volume).  Everything here is
known *before* the query runs — posting-list lengths are index
metadata.  What is deliberately absent is the number of documents that
will actually match (the intersection size), which drives the scoring
phase's cost: that gap is the structural source of prediction error.
"""

from __future__ import annotations

import numpy as np

from ..search.index import InvertedIndex
from ..search.query import Query

__all__ = ["QUERY_FEATURE_NAMES", "query_features", "query_feature_matrix"]

#: Ordered names of the feature vector produced by :func:`query_features`.
QUERY_FEATURE_NAMES: tuple[str, ...] = (
    "num_keywords",
    "log_total_postings",
    "log_min_df",
    "log_max_df",
    "log_second_max_df",
    "mean_idf",
    "min_idf",
    "sum_idf",
)


def query_features(query: Query, index: InvertedIndex) -> np.ndarray:
    """Feature vector of one query (see :data:`QUERY_FEATURE_NAMES`)."""
    return query_feature_matrix([query], index)[0]


def query_feature_matrix(
    queries: list[Query], index: InvertedIndex
) -> np.ndarray:
    """Stacked feature matrix for a query list, one row per query.

    Queries are grouped by keyword count ``k``; each group's ``(n, k)``
    df and idf matrices are reduced along their rows.  A row sum of
    length ``k`` uses the pairwise summation of a 1-D sum of ``k``
    values, so every row equals the features of its query computed
    alone.  (Padding rows to a common width would regroup the sums.)
    """
    out = np.empty((len(queries), len(QUERY_FEATURE_NAMES)))
    lengths = np.fromiter((len(q.term_ids) for q in queries), np.int64, len(queries))
    for k in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == k)
        term_ids = np.array([queries[i].term_ids for i in rows], dtype=np.int64)
        idfs = index.idf_array(term_ids)
        dfs = index.document_frequencies[term_ids].astype(np.float64)
        ranked = np.sort(dfs, axis=1)
        out[rows] = np.column_stack(
            (
                np.full(len(rows), float(k)),
                np.log1p(dfs.sum(axis=1)),
                np.log1p(ranked[:, 0]),
                np.log1p(ranked[:, -1]),
                np.log1p(ranked[:, -2 if k > 1 else -1]),
                idfs.mean(axis=1),
                idfs.min(axis=1),
                idfs.sum(axis=1),
            )
        )
    return out
