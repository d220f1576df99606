"""In-memory inverted index (document-sharded, like one ISN's fragment).

For every term the index stores the sorted document ids containing it
and the corresponding term frequencies.  Posting-list *lengths* (the
document frequencies) are the primary cost driver for query execution
and, because they are known before a query runs, the primary feature of
the execution-time predictor.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from .corpus import Corpus

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Term -> (doc ids, term frequencies) over one index fragment."""

    def __init__(self, corpus: Corpus) -> None:
        self._num_documents = corpus.num_documents
        self._vocabulary_size = corpus.vocabulary_size
        self._doc_lengths = np.diff(corpus.doc_offsets).astype(np.int32)

        # Expand (doc, term) pairs, deduplicate into term frequencies,
        # then group by term into CSR posting storage.  Tokens are in
        # document order, so a stable sort by term alone orders the
        # pairs by (term, doc); on the narrowest integer type that holds
        # every term id, numpy sorts ids of up to 16 bits by radix sort.
        # The sort keys and the token-to-document map are temporaries,
        # freed as soon as they are used.
        order = np.argsort(
            corpus.doc_term_ids.astype(np.min_scalar_type(self._vocabulary_size - 1)),
            kind="stable",
        )
        terms = corpus.doc_term_ids[order]
        docs = np.repeat(
            np.arange(self._num_documents, dtype=np.int32), self._doc_lengths
        )[order]
        # Collapse duplicate (term, doc) runs into tf counts.
        boundary = np.ones(len(terms), dtype=bool)
        boundary[1:] = (terms[1:] != terms[:-1]) | (docs[1:] != docs[:-1])
        starts = np.flatnonzero(boundary)
        run_lengths = np.diff(np.append(starts, len(terms)))
        self._posting_terms = terms[starts]
        self._posting_docs = docs[starts].astype(np.int32)
        self._posting_tfs = run_lengths.astype(np.int32)

        # CSR offsets per term id.
        counts = np.bincount(
            self._posting_terms, minlength=self._vocabulary_size
        )
        self._term_offsets = np.zeros(self._vocabulary_size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._term_offsets[1:])
        self._document_frequencies = counts.astype(np.int64)

        avg_len = self._doc_lengths.mean() if self._num_documents else 0.0
        self._avg_doc_length = float(avg_len)

    @property
    def num_documents(self) -> int:
        """Documents in this index fragment."""
        return self._num_documents

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct terms the index knows."""
        return self._vocabulary_size

    @property
    def doc_lengths(self) -> np.ndarray:
        """Token count per document (for BM25 normalisation)."""
        return self._doc_lengths

    @property
    def avg_doc_length(self) -> float:
        """Mean document length."""
        return self._avg_doc_length

    @property
    def document_frequencies(self) -> np.ndarray:
        """Document frequency of every term (posting-list lengths)."""
        return self._document_frequencies

    def document_frequency(self, term_id: int) -> int:
        """Posting-list length of one term."""
        self._check_term(term_id)
        return int(self._document_frequencies[term_id])

    def idf(self, term_id: int) -> float:
        """Robertson-Sparck-Jones IDF of one term."""
        df = self.document_frequency(term_id)
        return float(
            np.log1p((self._num_documents - df + 0.5) / (df + 0.5))
        )

    def idf_array(self, term_ids: np.ndarray | list[int]) -> np.ndarray:
        """Vectorised IDF for several terms."""
        ids = self.checked_term_ids(term_ids)
        df = self._document_frequencies[ids].astype(np.float64)
        return np.log1p((self._num_documents - df + 0.5) / (df + 0.5))

    def checked_term_ids(self, term_ids: np.ndarray | list[int]) -> np.ndarray:
        """``term_ids`` as int64, or :class:`WorkloadError` if any is unknown."""
        ids = np.asarray(term_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self._vocabulary_size):
            raise WorkloadError("term id out of range")
        return ids

    def postings(self, term_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(sorted doc ids, term frequencies) of one term."""
        self._check_term(term_id)
        lo = self._term_offsets[term_id]
        hi = self._term_offsets[term_id + 1]
        return self._posting_docs[lo:hi], self._posting_tfs[lo:hi]

    def total_postings(self, term_ids: np.ndarray | list[int]) -> int:
        """Sum of posting-list lengths (the traversal cost driver)."""
        ids = np.asarray(term_ids, dtype=np.int64)
        return int(self._document_frequencies[ids].sum())

    def _check_term(self, term_id: int) -> None:
        if not 0 <= term_id < self._vocabulary_size:
            raise WorkloadError(
                f"term id {term_id} outside [0, {self._vocabulary_size})"
            )

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(docs={self._num_documents}, "
            f"terms={self._vocabulary_size}, "
            f"postings={len(self._posting_docs)})"
        )
