"""Sequential query execution against the inverted index.

Execution mirrors an ISN's two phases (Section 2.1):

1. **Traversal/matching** — walk the posting list of every keyword and
   count, per document, how many keywords it contains.  Documents
   matching at least half the keywords survive (a simple stand-in for
   conjunctive processing with dynamic pruning).  Cost: 1 work unit per
   posting entry traversed.
2. **Scoring** — BM25-score every surviving (document, term) hit and
   keep the top-k.  Cost: ``score_cost_per_hit`` units per scored hit.

A query's *service demand* is the total work units performed; the
traversal part is computable from pre-execution features (posting
lengths), while the scoring part depends on how many documents actually
match — information unavailable before execution, which is what makes
execution-time prediction realistically imperfect (Section 2.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ..config import SearchWorkloadConfig
from .index import InvertedIndex
from .intersection import intersect_many
from .query import Query
from .scoring import bm25_scores, top_k_documents

__all__ = ["QueryExecution", "ConjunctiveExecution", "SearchEngine"]


@dataclass(frozen=True)
class QueryExecution:
    """Measured outcome of one sequential query execution."""

    qid: int
    num_keywords: int
    total_postings: int
    matched_documents: int
    scored_hits: int
    traversal_units: float
    scoring_units: float
    serial_units: float
    results: tuple[tuple[int, float], ...] | None

    @property
    def parallel_units(self) -> float:
        """Work units belonging to the parallelizable phase."""
        return self.traversal_units + self.scoring_units

    @property
    def total_units(self) -> float:
        """Total sequential work units (serial + parallelizable)."""
        return self.serial_units + self.parallel_units


@dataclass(frozen=True)
class ConjunctiveExecution:
    """Outcome of strict-AND query processing (all keywords required)."""

    qid: int
    num_keywords: int
    matched_documents: tuple[int, ...]
    comparisons: int

    @property
    def match_count(self) -> int:
        """Number of documents containing every keyword."""
        return len(self.matched_documents)


class SearchEngine:
    """Executes queries against one index fragment and meters the work."""

    def __init__(
        self, index: InvertedIndex, config: SearchWorkloadConfig
    ) -> None:
        self.index = index
        self.config = config

    def execute(self, query: Query, compute_results: bool = False) -> QueryExecution:
        """Run one query; optionally materialise the top-k results.

        ``compute_results=False`` still performs the matching for real
        (so costs are measured, not estimated) but skips building the
        ranked result list — useful when generating large traces.
        """
        term_ids = np.asarray(query.term_ids, dtype=np.int64)
        k = len(term_ids)
        postings = [self.index.postings(int(term)) for term in term_ids]
        all_docs, counts, survivors = _match(postings)
        total_postings = int(all_docs.size)
        matched = int(survivors.sum())
        scored_hits = int(counts[survivors].sum())
        results: tuple[tuple[int, float], ...] | None = None
        if compute_results:
            results = self._score_survivors(
                term_ids, postings, all_docs, survivors
            )

        traversal_units = float(total_postings)
        scoring_units = float(scored_hits) * self.config.score_cost_per_hit
        return QueryExecution(
            qid=query.qid,
            num_keywords=k,
            total_postings=total_postings,
            matched_documents=matched,
            scored_hits=scored_hits,
            traversal_units=traversal_units,
            scoring_units=scoring_units,
            serial_units=float(self.config.serial_work_units),
            results=results,
        )

    def work_units(self, queries: Sequence[Query]) -> np.ndarray:
        """``execute(q).total_units`` of every query, as one array.

        Builds no :class:`QueryExecution` objects.  A query of one or
        two keywords keeps every document its postings hold (its
        ``min_match`` is 1), so its scored hits equal its total
        postings, the sum of its terms' document frequencies, and no
        posting is read.  Longer queries count matches as
        :meth:`execute` does.  The counts are integers, so the units
        are the same floats :meth:`execute` computes.
        """
        lengths = np.fromiter(
            (len(q.term_ids) for q in queries), np.int64, len(queries)
        )
        terms = self.index.checked_term_ids(
            np.fromiter(
                chain.from_iterable(q.term_ids for q in queries),
                np.int64,
                int(lengths.sum()),
            )
        )
        starts = np.zeros(len(queries), dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        dfs = self.index.document_frequencies[terms]
        total_postings = np.add.reduceat(dfs, starts) if len(queries) else dfs
        scored_hits = total_postings.copy()
        for i in np.flatnonzero(lengths > 2):
            postings = [self.index.postings(t) for t in queries[i].term_ids]
            _, counts, survivors = _match(postings)
            scored_hits[i] = counts[survivors].sum()
        cfg = self.config
        return float(cfg.serial_work_units) + (
            total_postings.astype(np.float64)
            + scored_hits.astype(np.float64) * cfg.score_cost_per_hit
        )

    def execute_conjunctive(self, query: Query) -> ConjunctiveExecution:
        """Strict-AND processing via k-way galloping intersection.

        The paper's Section 2.3 singles out multi-keyword intersection
        as a long-query mechanism; this path exposes it directly (the
        default execution uses majority matching, a stand-in for
        disjunctive processing with dynamic pruning).  The returned
        ``comparisons`` count is the intersection work performed.
        """
        postings = [
            self.index.postings(int(term))[0] for term in query.term_ids
        ]
        matched, comparisons = intersect_many(postings)
        return ConjunctiveExecution(
            qid=query.qid,
            num_keywords=query.num_keywords,
            matched_documents=tuple(int(d) for d in matched),
            comparisons=comparisons,
        )

    def _score_survivors(
        self,
        term_ids: np.ndarray,
        postings: list[tuple[np.ndarray, np.ndarray]],
        all_docs: np.ndarray,
        survivors: np.ndarray,
    ) -> tuple[tuple[int, float], ...]:
        # Hits stay in posting (term) order, the order in which
        # top_k_documents sums each document's scores.
        hit_mask = survivors[all_docs]
        docs = all_docs[hit_mask]
        tfs = np.concatenate([tf for _, tf in postings])[hit_mask]
        terms = np.repeat(term_ids, [len(d) for d, _ in postings])[hit_mask]
        idfs = self.index.idf_array(terms)
        lengths = self.index.doc_lengths[docs].astype(np.float64)
        scores = bm25_scores(tfs, idfs, lengths, self.index.avg_doc_length)
        return tuple(top_k_documents(docs, scores, self.config.top_k))


def _match(
    postings: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(concatenated docs, per-document keyword counts, survivor mask).

    ``postings`` holds one posting list per keyword; a document
    survives when it matches at least half of them.
    """
    k = len(postings)
    min_match = 1 if k == 1 else (k + 1) // 2
    all_docs = (
        np.concatenate([docs for docs, _ in postings])
        if postings
        else np.empty(0, np.int32)
    )
    # A posting list holds a document at most once, so a document's
    # keyword count is its multiplicity across the postings.
    counts = np.bincount(all_docs)
    return all_docs, counts, counts >= min_match
