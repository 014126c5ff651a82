"""Inverted index tests: construction invariants, oracle equivalence, I/O."""

import numpy as np
import pytest

from lsrkit.errors import ContractError, FormatError
from lsrkit.heads import SparseVector
from lsrkit.index import (
    InvertedIndex,
    Posting,
    brute_force_search,
    build_index,
    flops_metric,
    load_index,
    save_index,
    top_k_search,
)


def grid_weight(rng):
    """Dyadic-grid weights: exact in float32 and under any summation order."""
    return float(rng.integers(1, 25)) / 8.0


def random_corpus(rng, num_docs, vocab_size, max_terms=10):
    docs = []
    for i in range(num_docs):
        n_terms = int(rng.integers(1, max_terms + 1))
        terms = rng.choice(vocab_size, size=n_terms, replace=False)
        docs.append(
            (f"d{i:04d}", SparseVector({int(t): grid_weight(rng) for t in terms}))
        )
    return docs


def random_query(rng, vocab_size, max_terms=6):
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = rng.choice(vocab_size, size=n_terms, replace=False)
    return SparseVector({int(t): grid_weight(rng) for t in terms})


TWO_DOC_FIXTURE = [
    ("d1", SparseVector({0: 1.0})),
    ("d2", SparseVector({0: 2.0, 1: 1.0})),
]


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert index.doc_count == 0
        assert index.posting_count == 0

    def test_two_doc_fixture_postings(self):
        index = build_index(TWO_DOC_FIXTURE)
        np.testing.assert_array_equal(index.postings[0].doc_ids, [0, 1])
        np.testing.assert_array_equal(index.postings[0].impacts, [1.0, 2.0])
        np.testing.assert_array_equal(index.postings[1].doc_ids, [1])
        np.testing.assert_array_equal(index.postings[1].impacts, [1.0])

    def test_zero_entries_never_stored(self):
        index = build_index([("d1", SparseVector({3: 0.0, 4: 1.0}))])
        assert 3 not in index.postings
        assert index.posting_count == 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(ContractError):
            build_index([("d", SparseVector({0: 1.0})), ("d", SparseVector({1: 1.0}))])

    def test_invariants_on_random_corpus(self):
        rng = np.random.default_rng(20)
        docs = random_corpus(rng, 50, 40)
        index = build_index(docs)
        total = sum(len(v.entries) for _, v in docs)
        assert index.posting_count == total
        for posting in index.postings.values():
            assert (np.diff(posting.doc_ids) > 0).all()
            assert (posting.impacts != 0.0).all()


class TestTopKSearch:
    def test_disjoint_query_empty(self):
        index = build_index(TWO_DOC_FIXTURE)
        assert top_k_search(index, SparseVector({9: 1.0}), 5) == []

    def test_k_zero_empty(self):
        index = build_index(TWO_DOC_FIXTURE)
        assert top_k_search(index, SparseVector({0: 1.0}), 0) == []

    def test_matches_brute_force_on_seeded_cases(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            docs = random_corpus(rng, int(rng.integers(5, 60)), 30)
            index = build_index(docs)
            query = random_query(rng, 30)
            k = int(rng.integers(1, 15))
            assert top_k_search(index, query, k) == brute_force_search(docs, query, k)

    def test_equal_score_tie_broken_by_doc_id(self):
        docs = [
            ("zeta", SparseVector({0: 2.0})),
            ("alpha", SparseVector({0: 2.0})),
            ("mid", SparseVector({0: 1.0})),
        ]
        index = build_index(docs)
        result = top_k_search(index, SparseVector({0: 1.0}), 3)
        # zeta was indexed first (doc id 0) so it precedes alpha on the tie.
        assert [name for name, _ in result] == ["zeta", "alpha", "mid"]
        assert result == brute_force_search(docs, SparseVector({0: 1.0}), 3)

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(22)
        docs = random_corpus(rng, 30, 20)
        index = build_index(docs)
        result = top_k_search(index, random_query(rng, 20), 10)
        scores = [s for _, s in result]
        assert scores == sorted(scores, reverse=True)

    def test_adding_document_never_lowers_scores(self):
        rng = np.random.default_rng(23)
        docs = random_corpus(rng, 20, 15)
        query = random_query(rng, 15)
        before = dict(brute_force_search(docs, query, 20))
        docs_plus = docs + [("extra", random_query(rng, 15))]
        after = dict(brute_force_search(docs_plus, query, 21))
        for name, score in before.items():
            assert after[name] == score


class TestBruteForce:
    def test_single_doc_requires_overlap(self):
        docs = [("d", SparseVector({0: 1.0}))]
        assert brute_force_search(docs, SparseVector({0: 2.0}), 5) == [("d", 2.0)]
        assert brute_force_search(docs, SparseVector({1: 2.0}), 5) == []


class TestFlopsMetric:
    def test_disjoint_vocabularies(self):
        index = build_index([("d", SparseVector({0: 1.0}))])
        assert flops_metric([SparseVector({5: 1.0})], index) == 0.0

    def test_hand_case(self):
        docs = [
            ("d1", SparseVector({0: 1.0})),
            ("d2", SparseVector({0: 1.0, 1: 1.0})),
            ("d3", SparseVector({2: 1.0})),
        ]
        index = build_index(docs)
        query = SparseVector({0: 1.0, 1: 1.0})
        # overlaps with d1, d2, d3 are 1, 2, 0 -> mean 1.0
        assert flops_metric([query], index) == 1.0

    def test_matches_pairwise_overlap_count(self):
        rng = np.random.default_rng(24)
        docs = random_corpus(rng, 25, 18)
        queries = [random_query(rng, 18) for _ in range(7)]
        index = build_index(docs)
        manual = np.mean(
            [
                len(q.support() & d.support())
                for q in queries
                for _, d in docs
            ]
        )
        assert flops_metric(queries, index) == pytest.approx(manual, rel=1e-12)

    def test_empty_inputs_rejected(self):
        index = build_index(TWO_DOC_FIXTURE)
        with pytest.raises(ContractError):
            flops_metric([], index)
        with pytest.raises(ContractError):
            flops_metric([SparseVector({0: 1.0})], build_index([]))


class TestIndexFile:
    def test_round_trip_two_doc_fixture(self, tmp_path):
        index = build_index(TWO_DOC_FIXTURE)
        path = tmp_path / "fixture.lsrx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.doc_names == index.doc_names
        assert set(loaded.postings) == set(index.postings)
        for term, posting in index.postings.items():
            np.testing.assert_array_equal(loaded.postings[term].doc_ids, posting.doc_ids)
            np.testing.assert_array_equal(loaded.postings[term].impacts, posting.impacts)

    def test_round_trip_preserves_search_results(self, tmp_path):
        rng = np.random.default_rng(25)
        docs = random_corpus(rng, 40, 25)
        index = build_index(docs)
        path = tmp_path / "idx.lsrx"
        save_index(index, path)
        loaded = load_index(path)
        for _ in range(10):
            query = random_query(rng, 25)
            assert top_k_search(loaded, query, 10) == top_k_search(index, query, 10)

    def test_empty_index_round_trip(self, tmp_path):
        path = tmp_path / "empty.lsrx"
        save_index(build_index([]), path)
        loaded = load_index(path)
        assert loaded.doc_count == 0
        assert loaded.term_count == 0

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.lsrx"
        index = build_index(TWO_DOC_FIXTURE)
        save_index(index, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WHAT"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_index(path)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.lsrx"
        save_index(build_index(TWO_DOC_FIXTURE), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 3])
        with pytest.raises(FormatError, match="offset"):
            load_index(path)

    def test_quantized_mode_round_trips_and_approximates(self, tmp_path):
        rng = np.random.default_rng(26)
        docs = random_corpus(rng, 30, 20)
        index = build_index(docs)
        path = tmp_path / "q8.lsrx"
        save_index(index, path, quantize8=True)
        loaded = load_index(path)
        assert loaded.doc_names == index.doc_names
        for term, posting in index.postings.items():
            approx = loaded.postings[term].impacts
            span = posting.impacts.max() - posting.impacts.min()
            tol = max(span / 255.0, 1e-6)
            np.testing.assert_allclose(approx, posting.impacts, atol=tol * 1.01)

    @pytest.mark.parametrize(
        "doc_ids,pattern",
        [
            ([0, 0], "ascend"),  # a zero delta: doc d1 listed twice
            ([0, 2], "below 2"),  # only docs 0 and 1 exist
            ([0, 2**64], "overflows"),
        ],
    )
    def test_bad_posting_doc_ids_rejected(self, tmp_path, doc_ids, pattern):
        # save_index writes whatever deltas the postings imply, unchecked
        impacts = np.ones(len(doc_ids), dtype=np.float32)
        index = InvertedIndex(["d1", "d2"], {0: Posting(doc_ids, impacts)})
        path = tmp_path / "bad.lsrx"
        save_index(index, path)
        with pytest.raises(FormatError, match=pattern):
            load_index(path)

    def test_non_utf8_doc_name_rejected(self, tmp_path):
        path = tmp_path / "bad.lsrx"
        save_index(build_index(TWO_DOC_FIXTURE), path)
        raw = path.read_bytes()
        assert raw.endswith(b"\x02d2")
        path.write_bytes(raw[:-1] + b"\xff")
        with pytest.raises(FormatError, match="UTF-8"):
            load_index(path)
