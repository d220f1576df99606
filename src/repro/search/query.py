"""Query model and query-log generator.

Real query logs mix mostly-short queries (few keywords, arbitrary
popularity) with a minority of expensive ones (many keywords over
popular terms — the paper notes ten-keyword queries run roughly an
order of magnitude longer than two-keyword ones, Section 2.3).  The
generator reproduces that mixture with two components:

* **easy** queries: 1-4 keywords sampled from the full Zipf-ranked
  vocabulary by query popularity;
* **hard** queries: 4-10 keywords drawn from the most popular ranks,
  whose long posting lists make traversal expensive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SearchWorkloadConfig
from ..errors import WorkloadError
from .corpus import zipf_probabilities

__all__ = ["Query", "QueryGenerator"]


@dataclass(frozen=True)
class Query:
    """A keyword query against one index fragment."""

    qid: int
    term_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.term_ids:
            raise WorkloadError("query must contain at least one term")

    @property
    def num_keywords(self) -> int:
        """Keyword count (a strong latency predictor, Section 2.3)."""
        return len(self.term_ids)


class QueryGenerator:
    """Samples queries per the two-component mixture above.

    Each query's terms are drawn without replacement, bit for bit as
    ``rng.choice(n, size=k, replace=False, p=p)`` draws them, but
    without re-validating ``p`` and recomputing its CDF on every call:
    both mixtures are checked once here and their CDFs cached.
    """

    def __init__(
        self, config: SearchWorkloadConfig, rng: np.random.Generator
    ) -> None:
        self.config = config
        self._rng = rng
        # Query-side term popularity is flatter than corpus frequency
        # and skips the stopword head: users rarely search bare
        # stopwords, and mid-frequency terms dominate real query logs.
        skip = min(config.easy_skip_top, config.vocabulary_size - 1)
        easy_size = config.vocabulary_size - skip
        self._easy_offset = skip
        self._easy = _Mixture(
            zipf_probabilities(easy_size, config.query_zipf_exponent)
        )
        # Hard queries draw from the most popular ranks, whose long
        # posting lists make traversal expensive (corpus-Zipf weighted).
        pool = min(config.hard_term_pool, config.vocabulary_size)
        hard_weights = zipf_probabilities(config.vocabulary_size, config.zipf_exponent)[:pool]
        self._hard = _Mixture(hard_weights / hard_weights.sum())
        self._hard_pool = pool
        self._next_qid = 0

    def generate(self, n: int) -> list[Query]:
        """Generate ``n`` queries following the configured mixture."""
        if n < 1:
            raise WorkloadError(f"n must be >= 1, got {n}")
        queries = []
        hard_draws = self._rng.random(n) < self.config.hard_query_fraction
        for is_hard in hard_draws:
            queries.append(self._generate_one(bool(is_hard)))
        return queries

    def _generate_one(self, is_hard: bool) -> Query:
        cfg = self.config
        if is_hard:
            lo, hi = cfg.hard_keywords
            k = int(self._rng.integers(lo, hi + 1))
            k = min(k, self._hard_pool)
            terms = self._hard.sample(self._rng, k)
        else:
            lo, hi = cfg.easy_keywords
            k = int(self._rng.integers(lo, hi + 1))
            terms = self._easy_offset + self._easy.sample(self._rng, k)
        query = Query(self._next_qid, tuple(int(t) for t in sorted(terms)))
        self._next_qid += 1
        return query


class _Mixture:
    """One term distribution, validated once, with its CDF cached.

    :meth:`sample` replays numpy's ``Generator.choice`` without
    replacement: one ``rng.random(k)`` draw searched in the CDF, and,
    only when a term repeats, numpy's rounds that zero the found terms'
    probabilities, renormalise and draw the missing ones.
    """

    def __init__(self, p: np.ndarray) -> None:
        # The checks numpy makes on every choice() call.
        atol = np.sqrt(np.finfo(np.float64).eps)
        p = np.ascontiguousarray(p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        total = p.sum()
        if np.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > atol:
            raise ValueError("Probabilities do not sum to 1")
        self._p = p
        self._nonzero = int(np.count_nonzero(p > 0))
        self._cdf = np.cumsum(p)
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """``k`` distinct indices, exactly as ``rng.choice`` draws them."""
        if k > self._nonzero:
            raise ValueError("Fewer non-zero entries in p than size")
        found = self._cdf.searchsorted(rng.random(k), side="right")
        if len(set(found.tolist())) == k:
            return found
        found = _first_occurrences(found)
        p = self._p.copy()
        while len(found) < k:
            x = rng.random(k - len(found))
            p[found] = 0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            found = np.concatenate(
                (found, _first_occurrences(cdf.searchsorted(x, side="right")))
            )
        return found


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Distinct values in the order of their first occurrence."""
    _, first = np.unique(values, return_index=True)
    first.sort()
    return values.take(first)
