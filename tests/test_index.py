"""Inverted index tests: construction invariants, oracle equivalence, I/O."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import brute_force_search
from lsrkit.errors import ContractError, FormatError
from lsrkit.heads import SparseVector
from lsrkit.index import (
    InvertedIndex,
    Posting,
    build_index,
    flops_metric,
    load_index,
    save_index,
    top_k_search,
)
from lsrkit.text import write_output


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


def assert_posting_invariants(index):
    """What top_k_search relies on: each list ascends strictly within the
    doc range, and every impact is a finite, positive float32."""
    assert list(index.postings) == sorted(set(index.postings))
    for posting in index.postings.values():
        assert posting.doc_ids.dtype == np.int64
        assert posting.impacts.dtype == np.float32
        assert len(posting.doc_ids) == len(posting.impacts)
        assert (np.diff(posting.doc_ids) > 0).all()
        assert ((posting.doc_ids >= 0) & (posting.doc_ids < index.doc_count)).all()
        assert (np.isfinite(posting.impacts) & (posting.impacts > 0.0)).all()


def docs_of(index):
    """The (name, SparseVector) pairs an index holds, for the brute-force oracle."""
    entries = [{} for _ in index.doc_names]
    for term, posting in index.postings.items():
        for doc_id, impact in zip(posting.doc_ids, posting.impacts):
            entries[doc_id][term] = float(impact)
    return [(name, SparseVector(e)) for name, e in zip(index.doc_names, entries)]


# Any positive float32, plus a few fixed values that make ties common.
WEIGHTS = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, width=32),
)

HEADER_BYTES = 25  # magic, then "<IBIIQ"
ENTRY_BYTES = 16  # one "<IQI" dictionary entry


def entry_offset(i):
    return HEADER_BYTES + ENTRY_BYTES * i


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

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        vectors=st.lists(st.dictionaries(st.integers(0, 15), WEIGHTS, max_size=8), max_size=25),
        query=st.dictionaries(st.integers(0, 15), WEIGHTS, max_size=8),
        k=st.integers(0, 30),
    )
    def test_matches_brute_force_on_float32_weights(self, vectors, query, k):
        docs = [(f"d{i}", SparseVector(v)) for i, v in enumerate(vectors)]
        query = SparseVector(query)
        assert top_k_search(build_index(docs), query, k) == brute_force_search(docs, query, k)

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

    def test_doc_whose_score_underflows_to_zero_is_not_returned(self):
        """A query term touches doc a, but 2^-1000 * 2^-149 underflows to
        0.0 in float64: like the oracle, search keeps only positive scores."""
        docs = [
            ("a", SparseVector({5: 2.0**-149})),
            ("b", SparseVector({5: 1.0, 6: 1.0})),
        ]
        query = SparseVector({5: 2.0**-1000})
        result = top_k_search(build_index(docs), query, 10)
        assert result == brute_force_search(docs, query, 10) == [("b", 2.0**-1000)]

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
                len(set(q.entries) & set(d.entries))
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

    def test_repeated_doc_name_rejected(self, tmp_path):
        # save_index writes the names it is given, unchecked
        path = tmp_path / "dup.lsrx"
        save_index(InvertedIndex(["d1", "d2", "d1"], {}), path)
        with pytest.raises(FormatError, match="doc name 'd1' at offset 32 is repeated"):
            load_index(path)

    def test_descending_doc_ids_cannot_be_saved(self, tmp_path):
        impacts = np.ones(2, dtype=np.float32)
        index = InvertedIndex(["d1", "d2"], {0: Posting(np.array([1, 0]), impacts)})
        with pytest.raises(ContractError, match="negative"):
            save_index(index, tmp_path / "bad.lsrx")

    def test_term_id_past_u32_cannot_be_saved(self, tmp_path):
        path = tmp_path / "bad.lsrx"
        index = build_index([("d1", SparseVector({2**32: 1.0}))])
        with pytest.raises(ContractError, match="u32"):
            save_index(index, path)
        assert not path.exists()


class TestIndexFileGuarantees:
    """load_index guarantees what top_k_search assumes, or raises FormatError."""

    @staticmethod
    def saved(tmp_path, index, quantize8=False):
        path = tmp_path / "idx.lsrx"
        save_index(index, path, quantize8=quantize8)
        return path, bytearray(path.read_bytes())

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_impact_rejected(self, tmp_path, value):
        impacts = np.array([1.0, value], dtype=np.float32)
        index = InvertedIndex(["d1", "d2"], {0: Posting(np.array([0, 1]), impacts)})
        path, _ = self.saved(tmp_path, index)
        with pytest.raises(FormatError, match="finite and > 0"):
            load_index(path)

    @pytest.mark.parametrize("second_term", [0, 5])  # a duplicate, then a descent
    def test_term_ids_must_ascend_strictly(self, tmp_path, second_term):
        index = build_index([("d1", SparseVector({0: 1.0, 1: 1.0, 2: 1.0}))])
        path, raw = self.saved(tmp_path, index)
        struct.pack_into("<I", raw, entry_offset(1), second_term)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="term ids must ascend strictly"):
            load_index(path)

    @pytest.mark.parametrize("shift", [-5, 1])  # an overlap, then a gap
    def test_posting_list_must_start_where_the_previous_ended(self, tmp_path, shift):
        index = build_index([("d1", SparseVector({0: 1.0, 1: 2.0}))])
        path, raw = self.saved(tmp_path, index)
        (offset,) = struct.unpack_from("<Q", raw, entry_offset(1) + 4)
        assert offset == 5  # one varint byte and one f32 impact
        struct.pack_into("<Q", raw, entry_offset(1) + 4, offset + shift)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="where the previous list ended"):
            load_index(path)

    @pytest.mark.parametrize("quantize8", [False, True])
    def test_length_past_the_end_rejected_before_allocating(self, tmp_path, quantize8):
        path, raw = self.saved(tmp_path, build_index(TWO_DOC_FIXTURE), quantize8)
        struct.pack_into("<I", raw, entry_offset(0) + 12, 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="cannot fit"):
            load_index(path)

    @pytest.mark.parametrize(
        "field,value",
        [("lo", np.nan), ("lo", np.inf), ("lo", -1.0),
         ("scale", np.nan), ("scale", np.inf), ("scale", -0.5),
         ("scale", 3e38)],  # finite, but code 255 decodes to inf
    )
    def test_bad_8bit_lo_or_scale_rejected(self, tmp_path, field, value):
        index = build_index([("d1", SparseVector({0: 1.0})), ("d2", SparseVector({0: 2.0}))])
        path, raw = self.saved(tmp_path, index, quantize8=True)
        # the blob follows one dictionary entry; lo and scale follow 2 varint bytes
        at = entry_offset(1) + 2 + (4 if field == "scale" else 0)
        struct.pack_into("<f", raw, at, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="8-bit lo"):
            load_index(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "idx.lsrx"


@pytest.fixture(scope="module")
def saved_files(fuzz_path):
    """f32 and 8-bit files of one small random index, keyed by quantize8."""
    index = build_index(random_corpus(np.random.default_rng(27), 12, 10))
    files = {}
    for quantize8 in (False, True):
        save_index(index, fuzz_path, quantize8=quantize8)
        files[quantize8] = fuzz_path.read_bytes()
    return files


@settings(derandomize=True, deadline=None, max_examples=300)
@given(quantize8=st.booleans(), truncate=st.booleans(), data=st.data())
def test_mutated_index_file_is_rejected_or_sound(
    fuzz_path, saved_files, quantize8, truncate, data
):
    """A flipped or truncated file raises FormatError, or it loads an index
    that keeps the posting invariants and searches like the oracle."""
    raw = bytearray(saved_files[quantize8])
    if truncate:
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="keep")]
    else:
        flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
        for position, mask in data.draw(st.lists(flips, min_size=1, max_size=3), label="flips"):
            raw[position] ^= mask
    write_output(fuzz_path, [bytes(raw)])  # fresh: truncating in place flushes on close
    try:
        index = load_index(fuzz_path)
    except FormatError:
        return
    assert_posting_invariants(index)
    query = SparseVector({term: 1.0 for term in index.postings})
    assert top_k_search(index, query, 10) == brute_force_search(docs_of(index), query, 10)
