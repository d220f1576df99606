"""Differential tests: the vectorised workload-build kernels against
straightforward reference implementations.

The references are the earlier, slower formulations, kept here only as
oracles: a per-feature split scan and level-by-level tree routing for
:class:`~repro.prediction.tree.RegressionTree`, an argsort plus
run-length keyword count for :meth:`SearchEngine.execute`, per-query
``execute`` calls for :meth:`SearchEngine.work_units`, one
``rng.choice`` call per query for :class:`QueryGenerator`, a lexsort of
(term, doc) pairs for :class:`InvertedIndex`, and per-query features for
:func:`query_feature_matrix`.  Every comparison is exact, because the
workload build must stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SearchWorkloadConfig
from repro.errors import WorkloadError
from repro.prediction.features import query_feature_matrix, query_features
from repro.prediction.tree import RegressionTree, _offset_codes
from repro.search import query as query_module
from repro.search.corpus import build_corpus, zipf_probabilities
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import Query, QueryGenerator
from repro.search.scoring import bm25_scores, top_k_documents


# -- tree references ------------------------------------------------------


def reference_best_split(X, y, rows, min_samples_leaf):
    """One bincount per feature; strict ``>`` keeps the first feature."""
    y_rows = y[rows]
    n = len(rows)
    total_sum = y_rows.sum()
    best_gain = 1e-12
    best = None
    for feature in range(X.shape[1]):
        codes = X[rows, feature].astype(np.int64)
        counts = np.bincount(codes)
        if len(counts) < 2:
            continue
        sums = np.bincount(codes, weights=y_rows)
        left_counts = np.cumsum(counts)[:-1]
        left_sums = np.cumsum(sums)[:-1]
        right_counts = n - left_counts
        right_sums = total_sum - left_sums
        valid = (left_counts >= min_samples_leaf) & (
            right_counts >= min_samples_leaf
        )
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(
                valid,
                left_sums**2 / left_counts
                + right_sums**2 / right_counts
                - total_sum**2 / n,
                -np.inf,
            )
        idx = int(np.argmax(gain))
        if gain[idx] > best_gain:
            best_gain = float(gain[idx])
            best = (feature, idx)
    return best


def reference_fit(X, y, max_depth, min_samples_leaf):
    """Recursive growth on the reference split; nodes as tuples
    ``(feature, threshold_bin, left, right, value, is_leaf)``."""
    nodes = []

    def grow(rows, depth):
        node_id = len(nodes)
        value = float(y[rows].mean())
        nodes.append((-1, -1, -1, -1, value, True))
        if depth >= max_depth or len(rows) < 2 * min_samples_leaf:
            return node_id
        split = reference_best_split(X, y, rows, min_samples_leaf)
        if split is None:
            return node_id
        feature, threshold = split
        go_left = X[rows, feature] <= threshold
        left = grow(rows[go_left], depth + 1)
        right = grow(rows[~go_left], depth + 1)
        nodes[node_id] = (feature, threshold, left, right, value, False)
        return node_id

    grow(np.arange(len(y)), 0)
    return nodes


def reference_predict(nodes, X):
    """Level-by-level routing: group the active rows by node each round."""
    out = np.empty(len(X), dtype=np.float64)
    node_ids = np.zeros(len(X), dtype=np.int64)
    active = np.arange(len(X))
    while len(active):
        still_internal = []
        for nid in np.unique(node_ids[active]):
            feature, threshold, left, right, value, is_leaf = nodes[nid]
            members = active[node_ids[active] == nid]
            if is_leaf:
                out[members] = value
                continue
            go_left = X[members, feature] <= threshold
            node_ids[members[go_left]] = left
            node_ids[members[~go_left]] = right
            still_internal.append(members)
        active = (
            np.concatenate(still_internal) if still_internal else np.empty(0, int)
        )
    return out


def tree_nodes(tree):
    """The fitted flat arrays as reference-style node tuples."""
    return [
        (
            int(tree._feature[i]),
            int(tree._threshold[i]),
            int(tree._left[i]),
            int(tree._right[i]),
            float(tree._value[i]),
            bool(tree._left[i] == i),
        )
        for i in range(tree.num_nodes)
    ]


def random_binned(rng, n, bins=(2, 5, 17, 64)):
    """Columns with different bin counts, as a FeatureBinner emits."""
    X = np.column_stack([rng.integers(0, b, size=n) for b in bins])
    y = rng.standard_normal(n) * 3.0 + X[:, 1]
    return X.astype(np.uint8), y


def split_of(tree, X, y, rows):
    codes, width = _offset_codes(X)
    return tree._best_split(codes, width, y, rows)


class TestBestSplitMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("min_samples_leaf", [1, 4, 16])
    def test_random_binned_data(self, seed, min_samples_leaf):
        rng = np.random.default_rng(seed)
        X, y = random_binned(rng, 300)
        tree = RegressionTree(min_samples_leaf=min_samples_leaf)
        for size in (300, 120, 2 * min_samples_leaf + 1):
            rows = np.sort(rng.choice(300, size=size, replace=False))
            assert split_of(tree, X, y, rows) == reference_best_split(
                X, y, rows, min_samples_leaf
            )

    def test_constant_features_are_never_split(self):
        rng = np.random.default_rng(3)
        X, y = random_binned(rng, 200)
        X[:, 0] = 0
        X[:, 2] = 9  # constant but not zero: every boundary is one-sided
        rows = np.arange(200)
        for leaf in (1, 8):
            split = split_of(RegressionTree(min_samples_leaf=leaf), X, y, rows)
            assert split == reference_best_split(X, y, rows, leaf)
            assert split[0] not in (0, 2)

    def test_all_constant_gives_no_split(self):
        X = np.full((40, 3), 4, dtype=np.uint8)
        y = np.random.default_rng(0).standard_normal(40)
        rows = np.arange(40)
        assert split_of(RegressionTree(), X, y, rows) is None
        assert reference_best_split(X, y, rows, 8) is None

    def test_tied_gains_pick_the_first_feature(self):
        rng = np.random.default_rng(5)
        base = rng.integers(0, 12, size=150).astype(np.uint8)
        # Same partitions under different bin codes: exactly equal gains.
        X = np.column_stack([rng.integers(0, 3, size=150), base, base * 2, base])
        X = X.astype(np.uint8)
        y = base * 1.5 + rng.standard_normal(150) * 0.01
        rows = np.arange(150)
        split = split_of(RegressionTree(min_samples_leaf=4), X, y, rows)
        assert split == reference_best_split(X, y, rows, 4)
        assert split[0] == 1

    @pytest.mark.parametrize("min_samples_leaf", [1, 5, 20])
    def test_min_samples_leaf_at_the_limit(self, min_samples_leaf):
        # Exactly 2 * leaf rows with distinct codes: only the median
        # boundary leaves min_samples_leaf on each side.
        n = 2 * min_samples_leaf
        rng = np.random.default_rng(min_samples_leaf)
        X = np.column_stack([np.arange(n), rng.integers(0, 4, size=n)])
        X = X.astype(np.uint8)
        y = rng.standard_normal(n)
        rows = np.arange(n)
        split = split_of(RegressionTree(min_samples_leaf=min_samples_leaf), X, y, rows)
        assert split == reference_best_split(X, y, rows, min_samples_leaf)


class TestTreeMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("max_depth,min_samples_leaf", [(1, 1), (4, 8), (6, 3)])
    def test_fit_and_predict(self, seed, max_depth, min_samples_leaf):
        rng = np.random.default_rng(100 + seed)
        X, y = random_binned(rng, 400)
        tree = RegressionTree(max_depth, min_samples_leaf).fit(X, y)
        expected = reference_fit(X, y, max_depth, min_samples_leaf)
        fitted = tree_nodes(tree)
        assert len(fitted) == len(expected)
        for got, want in zip(fitted, expected):
            assert got[5] == want[5]
            assert got[4] == want[4]
            if not want[5]:
                assert got[:4] == want[:4]
        X_new, _ = random_binned(rng, 250)
        np.testing.assert_array_equal(
            tree.predict(X_new), reference_predict(expected, X_new)
        )
        np.testing.assert_array_equal(
            tree.predict(X_new), reference_predict(fitted, X_new)
        )

    def test_single_leaf_tree(self):
        X = np.zeros((30, 2), dtype=np.uint8)
        y = np.arange(30.0)
        tree = RegressionTree().fit(X, y)
        assert tree.num_nodes == 1
        np.testing.assert_array_equal(tree.predict(X), np.full(30, y.mean()))


# -- search-engine reference ----------------------------------------------


def reference_execute(index, query, min_match, top_k):
    """Stable argsort of the concatenated postings plus run lengths."""
    posting_docs, posting_tfs, posting_terms = [], [], []
    for term in query.term_ids:
        docs, tfs = index.postings(int(term))
        posting_docs.append(docs)
        posting_tfs.append(tfs)
        posting_terms.append(np.full(len(docs), term, dtype=np.int64))
    all_docs = np.concatenate(posting_docs)
    if all_docs.size == 0:
        return 0, 0, 0, ()
    order = np.argsort(all_docs, kind="stable")
    sorted_docs = all_docs[order]
    boundary = np.empty(len(sorted_docs), dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_docs[1:] != sorted_docs[:-1]
    starts = np.flatnonzero(boundary)
    run_lengths = np.diff(np.append(starts, len(sorted_docs)))
    survivors = run_lengths >= min_match
    hit_mask = np.repeat(survivors, run_lengths)
    docs = sorted_docs[hit_mask]
    tfs = np.concatenate(posting_tfs)[order][hit_mask]
    terms = np.concatenate(posting_terms)[order][hit_mask]
    scores = bm25_scores(
        tfs,
        index.idf_array(terms),
        index.doc_lengths[docs].astype(np.float64),
        index.avg_doc_length,
    )
    results = tuple(top_k_documents(docs, scores, top_k)) if len(docs) else ()
    return (
        int(all_docs.size),
        int(survivors.sum()),
        int(run_lengths[survivors].sum()),
        results,
    )


@pytest.fixture(scope="module")
def sparse_engine():
    """A vocabulary far larger than the corpus uses: many empty postings."""
    cfg = SearchWorkloadConfig(
        num_documents=400,
        vocabulary_size=4_000,
        mean_doc_length=40,
        hard_term_pool=50,
        easy_skip_top=10,
    )
    index = InvertedIndex(build_corpus(cfg, np.random.default_rng(21)))
    return cfg, index, SearchEngine(index, cfg)


class TestExecuteMatchesReference:
    def check(self, cfg, index, engine, query):
        k = query.num_keywords
        min_match = 1 if k == 1 else (k + 1) // 2
        postings, matched, scored, results = reference_execute(
            index, query, min_match, cfg.top_k
        )
        got = engine.execute(query, compute_results=True)
        assert got.total_postings == postings
        assert got.matched_documents == matched
        assert got.scored_hits == scored
        assert got.results == results
        counted = engine.execute(query)
        assert counted.results is None
        assert counted.total_units == got.total_units

    def test_random_queries(self, sparse_engine):
        cfg, index, engine = sparse_engine
        rng = np.random.default_rng(4)
        # Draw from the Zipf head so postings overlap and matches survive.
        for qid in range(200):
            k = int(rng.integers(1, 9))
            terms = rng.choice(300, size=k, replace=False)
            self.check(cfg, index, engine, Query(qid, tuple(int(t) for t in terms)))

    def test_single_keyword_queries(self, sparse_engine):
        cfg, index, engine = sparse_engine
        for qid, term in enumerate((0, 1, 7, 150, 299)):
            self.check(cfg, index, engine, Query(qid, (term,)))

    def test_empty_posting_queries(self, sparse_engine):
        cfg, index, engine = sparse_engine
        empty = np.flatnonzero(index.document_frequencies == 0)
        assert len(empty) >= 3
        only_empty = Query(0, tuple(int(t) for t in empty[:3]))
        self.check(cfg, index, engine, only_empty)
        assert engine.execute(only_empty).total_postings == 0
        self.check(cfg, index, engine, Query(1, (int(empty[0]),)))
        mixed = Query(2, (0, int(empty[0]), 5, int(empty[1])))
        self.check(cfg, index, engine, mixed)


# -- pool work units ------------------------------------------------------


def random_pool(rng, vocabulary, n, max_k=9):
    """Queries of 1..max_k distinct terms drawn from ``range(vocabulary)``."""
    return [
        Query(qid, tuple(int(t) for t in rng.choice(vocabulary, size=k, replace=False)))
        for qid, k in enumerate(rng.integers(1, max_k + 1, size=n))
    ]


class TestWorkUnitsMatchExecute:
    def check(self, engine, queries):
        expected = np.array(
            [engine.execute(q).total_units for q in queries], dtype=np.float64
        )
        got = engine.work_units(queries)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pools(self, sparse_engine, seed):
        _, index, engine = sparse_engine
        rng = np.random.default_rng(seed)
        # Head terms overlap (k >= 3 queries keep survivors); the whole
        # vocabulary adds empty postings.
        for vocabulary in (300, index.vocabulary_size):
            queries = random_pool(rng, vocabulary, 150)
            assert {1, 2} <= {q.num_keywords for q in queries}
            assert max(q.num_keywords for q in queries) >= 3
            self.check(engine, queries)

    def test_empty_postings(self, sparse_engine):
        _, index, engine = sparse_engine
        empty = [int(t) for t in np.flatnonzero(index.document_frequencies == 0)[:4]]
        self.check(
            engine,
            [
                Query(0, (empty[0],)),
                Query(1, (empty[0], empty[1])),
                Query(2, tuple(empty[:3])),
                Query(3, (0, empty[0], 5, empty[1])),
                Query(4, (0, empty[2])),
            ],
        )

    def test_empty_pool(self, sparse_engine):
        _, _, engine = sparse_engine
        assert engine.work_units([]).shape == (0,)

    @pytest.mark.parametrize("bad", [-1, 4_000])
    def test_out_of_range_terms_rejected(self, sparse_engine, bad):
        _, _, engine = sparse_engine
        for terms in ((bad,), (0, bad), (0, 1, bad)):
            with pytest.raises(WorkloadError):
                engine.work_units([Query(0, (3,)), Query(1, terms)])


# -- query generation -----------------------------------------------------


def reference_queries(cfg, rng, n):
    """One ``rng.choice(..., replace=False, p=...)`` call per query."""
    skip = min(cfg.easy_skip_top, cfg.vocabulary_size - 1)
    easy_p = zipf_probabilities(cfg.vocabulary_size - skip, cfg.query_zipf_exponent)
    pool = min(cfg.hard_term_pool, cfg.vocabulary_size)
    hard_w = zipf_probabilities(cfg.vocabulary_size, cfg.zipf_exponent)[:pool]
    hard_p = hard_w / hard_w.sum()
    queries = []
    for is_hard in rng.random(n) < cfg.hard_query_fraction:
        if is_hard:
            lo, hi = cfg.hard_keywords
            k = min(int(rng.integers(lo, hi + 1)), pool)
            terms = rng.choice(pool, size=k, replace=False, p=hard_p)
        else:
            lo, hi = cfg.easy_keywords
            k = int(rng.integers(lo, hi + 1))
            terms = skip + rng.choice(len(easy_p), size=k, replace=False, p=easy_p)
        queries.append(tuple(sorted(int(t) for t in terms)))
    return queries


def generated(cfg, rng, n):
    return [q.term_ids for q in QueryGenerator(cfg, rng).generate(n)]


class TestQueryGeneratorMatchesChoice:
    def check(self, cfg, seed, n):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert generated(cfg, ours, n) == reference_queries(cfg, theirs, n)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("seed", [2, 7, 11])
    def test_default_mixture(self, seed):
        self.check(SearchWorkloadConfig(), seed, 1_500)

    @pytest.mark.parametrize("seed", [3, 5])
    def test_small_hard_pool_resamples(self, seed, monkeypatch):
        # Up to 12 keywords from a 6-term pool: draws repeat, so numpy's
        # zero-and-redraw rounds run.
        rounds = []
        first = query_module._first_occurrences

        def counted(values):
            rounds.append(len(values))
            return first(values)

        monkeypatch.setattr(query_module, "_first_occurrences", counted)
        cfg = SearchWorkloadConfig(
            vocabulary_size=500, hard_term_pool=6, hard_query_fraction=0.5
        )
        self.check(cfg, seed, 400)
        assert len(rounds) > 100

    @pytest.mark.parametrize("seed", [0, 4])
    def test_too_small_easy_vocabulary_raises_on_both_sides(self, seed):
        # Two easy terms, up to four keywords per easy query.
        cfg = SearchWorkloadConfig(vocabulary_size=5, easy_skip_top=3)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.raises(ValueError):
            generated(cfg, ours, 50)
        with pytest.raises(ValueError):
            reference_queries(cfg, theirs, 50)
        assert ours.bit_generator.state == theirs.bit_generator.state


# -- index construction ---------------------------------------------------


def reference_postings(corpus):
    """(terms, docs, tfs) of the postings via a lexsort of (term, doc)."""
    lengths = np.diff(corpus.doc_offsets)
    doc_of_token = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    order = np.lexsort((doc_of_token, corpus.doc_term_ids))
    terms = corpus.doc_term_ids[order]
    docs = doc_of_token[order]
    boundary = np.ones(len(terms), dtype=bool)
    boundary[1:] = (terms[1:] != terms[:-1]) | (docs[1:] != docs[:-1])
    starts = np.flatnonzero(boundary)
    tfs = np.diff(np.append(starts, len(terms)))
    return terms[starts], docs[starts], tfs


class TestIndexMatchesLexsort:
    # 8-, 16- and 32-bit term ids: radix sort up to 16 bits only.
    @pytest.mark.parametrize("vocabulary", [200, 4_000, 70_000])
    def test_csr_arrays(self, vocabulary):
        cfg = SearchWorkloadConfig(
            num_documents=300, vocabulary_size=vocabulary, mean_doc_length=60
        )
        corpus = build_corpus(cfg, np.random.default_rng(vocabulary))
        index = InvertedIndex(corpus)
        terms, docs, tfs = reference_postings(corpus)
        np.testing.assert_array_equal(index._posting_terms, terms)
        np.testing.assert_array_equal(index._posting_docs, docs)
        np.testing.assert_array_equal(index._posting_tfs, tfs)
        assert index._posting_docs.dtype == np.int32
        assert index._posting_tfs.dtype == np.int32
        counts = np.bincount(terms, minlength=vocabulary)
        np.testing.assert_array_equal(index.document_frequencies, counts)
        np.testing.assert_array_equal(
            index._term_offsets, np.concatenate(([0], np.cumsum(counts)))
        )


# -- query features -------------------------------------------------------


def reference_features(query, index):
    """The per-query feature vector, computed alone."""
    term_ids = np.asarray(query.term_ids, dtype=np.int64)
    dfs = index.document_frequencies[term_ids].astype(np.float64)
    idfs = index.idf_array(term_ids)
    sorted_dfs = np.sort(dfs)[::-1]
    second_max = sorted_dfs[1] if len(sorted_dfs) > 1 else sorted_dfs[0]
    return np.array(
        [
            float(len(term_ids)),
            float(np.log1p(dfs.sum())),
            float(np.log1p(dfs.min())),
            float(np.log1p(dfs.max())),
            float(np.log1p(second_max)),
            float(idfs.mean()),
            float(idfs.min()),
            float(idfs.sum()),
        ]
    )


class TestFeatureMatrixMatchesReference:
    def test_every_keyword_count(self, sparse_engine):
        _, index, _ = sparse_engine
        rng = np.random.default_rng(12)
        # Unsorted term order, every k in 1..12, mixed positions.
        queries = random_pool(rng, index.vocabulary_size, 600, max_k=12)
        assert {q.num_keywords for q in queries} == set(range(1, 13))
        expected = np.vstack([reference_features(q, index) for q in queries])
        got = query_feature_matrix(queries, index)
        assert got.tobytes() == expected.tobytes()
        for q, row in zip(queries[:40], expected):
            assert query_features(q, index).tobytes() == row.tobytes()

    def test_empty_query_list(self, sparse_engine):
        _, index, _ = sparse_engine
        assert query_feature_matrix([], index).shape == (0, 8)
