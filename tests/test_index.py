"""Inverted index tests: construction invariants, oracle equivalence, I/O."""

import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import brute_force_search
from lsrkit.errors import ContractError, FormatError
from lsrkit import index as index_module
from lsrkit.heads import SparseVector
from lsrkit.index import (
    InvertedIndex,
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


@pytest.fixture(scope="module")
def spread_index():
    """20,000 docs of 1-5 Zipf-drawn terms: lists from one doc long to
    thousands of docs long, and doc ids well past 2**16."""
    rng = np.random.default_rng(41)
    docs = []
    for i in range(20_000):
        terms = np.minimum(rng.zipf(1.3, size=int(rng.integers(1, 6))), 3_000) - 1
        weights = rng.uniform(0.01, 3.0, len(terms))
        docs.append((f"d{i}", SparseVector(dict(zip(terms.tolist(), weights.tolist())))))
    return build_index(docs)


def random_query(rng, vocab_size, max_terms=6):
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = rng.choice(vocab_size, size=n_terms, replace=False)
    return SparseVector({int(t): grid_weight(rng) for t in terms})


def index_of(doc_names, terms, starts, doc_ids, impacts):
    """An InvertedIndex of the given columns as they are, in build_index's dtypes."""
    return InvertedIndex(doc_names, np.array(terms, np.int64), np.array(starts, np.int64),
                         np.array(doc_ids, np.int64), np.array(impacts, np.float32))


def lists_of(index):
    """{term: (doc ids, impacts)} of every posting list in ``index``."""
    bounds = index.starts.tolist()
    return {term: (index.doc_ids[start:end], index.impacts[start:end])
            for term, start, end in zip(index.terms.tolist(), bounds, bounds[1:])}


def assert_same_columns(index, other):
    for column in ("terms", "starts", "doc_ids", "impacts"):
        np.testing.assert_array_equal(getattr(index, column), getattr(other, column))


def assert_posting_invariants(index):
    """What top_k_search relies on: term ids ascend strictly, the starts
    run from 0 to the posting count, each list ascends strictly within the
    doc range, and every impact is a finite, positive float32."""
    assert index.terms.dtype == index.starts.dtype == index.doc_ids.dtype == np.int64
    assert index.impacts.dtype == np.float32
    assert (np.diff(index.terms) > 0).all()
    assert len(index.starts) == index.term_count + 1 and index.starts[0] == 0
    assert (np.diff(index.starts) >= 0).all()
    assert index.starts[-1] == index.posting_count == len(index.impacts)
    for doc_ids, _ in lists_of(index).values():
        assert (np.diff(doc_ids) > 0).all()
        assert ((doc_ids >= 0) & (doc_ids < index.doc_count)).all()
    assert (np.isfinite(index.impacts) & (index.impacts > 0.0)).all()


def docs_of(index):
    """The (name, SparseVector) pairs an index holds, for the brute-force oracle."""
    entries = [{} for _ in index.doc_names]
    for term, (doc_ids, impacts) in lists_of(index).items():
        for doc_id, impact in zip(doc_ids, impacts):
            entries[doc_id][term] = float(impact)
    return [(name, SparseVector(e)) for name, e in zip(index.doc_names, entries)]


# Any positive float32, plus a few fixed values that make ties common.
WEIGHTS = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, width=32),
)
# Doc weights also take values off the float32 grid: 2**-150 and 1e-300
# round to 0 in float32, 2**-149 is its least subnormal, 0.1 is inexact.
DOC_WEIGHTS = st.one_of(WEIGHTS, st.sampled_from([2.0**-150, 1e-300, 2.0**-149, 0.1]))

HEADER_BYTES = 24  # magic, then "<IIIQ"


def column_offset(raw, column):
    """Where a column of the index file in ``raw`` starts: "terms",
    "lengths", "doc_ids", "impacts" or "name_lengths", all 4 bytes wide."""
    doc_count, term_count, posting_count = struct.unpack_from("<IIQ", raw, 8)
    counts = {"terms": term_count, "lengths": term_count, "doc_ids": posting_count,
              "impacts": posting_count, "name_lengths": doc_count}
    columns = list(counts)
    return HEADER_BYTES + 4 * sum(counts[c] for c in columns[: columns.index(column)])


def v1_file(impact_format):
    """TWO_DOC_FIXTURE as a version-1 file (varint-delta doc ids), byte for
    byte as the version-1 writer saved it; format 1 is the old 8-bit one."""
    return (
        b"LSRX" + struct.pack("<IBIIQ", 1, impact_format, 2, 2, 3)
        + struct.pack("<IQI", 0, 0, 2) + struct.pack("<IQI", 1, 10, 1)
        + b"\x00\x01" + struct.pack("<2f", 1.0, 2.0) + b"\x01" + struct.pack("<f", 1.0)
        + b"\x02d1\x02d2"
    )


TWO_DOC_FIXTURE = [
    ("d1", SparseVector({0: 1.0})),
    ("d2", SparseVector({0: 2.0, 1: 1.0})),
]


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert index.doc_count == 0
        assert index.posting_count == 0
        assert index.term_count == 0 and index.starts.tolist() == [0]
        assert_posting_invariants(index)

    def test_docs_with_empty_vectors_hold_no_postings(self):
        docs = [("a", SparseVector()), ("b", SparseVector({1: 2.0})), ("c", SparseVector())]
        index = build_index(docs)
        assert index.doc_names == ["a", "b", "c"]
        assert index.terms.tolist() == [1] and index.starts.tolist() == [0, 1]
        assert index.doc_ids.tolist() == [1] and index.impacts.tolist() == [2.0]
        assert_posting_invariants(index)
        assert top_k_search(index, SparseVector({1: 1.0}), 3) == [("b", 2.0)]
        assert flops_metric([SparseVector({1: 1.0})], index) == 1 / 3

    def test_two_doc_fixture_postings(self):
        index = build_index(TWO_DOC_FIXTURE)
        assert index.terms.tolist() == [0, 1]
        assert index.starts.tolist() == [0, 2, 3]
        assert index.doc_ids.tolist() == [0, 1, 1]
        assert index.impacts.tolist() == [1.0, 2.0, 1.0]

    def test_weight_past_float32_range_rejected_naming_doc_and_term(self):
        docs = [("d0", SparseVector({5: 1.0})), ("d1", SparseVector({5: 1e300}))]
        with pytest.raises(ContractError, match=r"doc 'd1': weight 1e\+300 of term 5 overflows"):
            build_index(docs)

    def test_largest_float32_weight_is_kept(self):
        big = float(np.finfo(np.float32).max)
        index = build_index([("d", SparseVector({5: big}))])
        assert index.terms.tolist() == [5] and index.impacts.tolist() == [big]

    def test_zero_entries_never_stored(self):
        docs = [("d1", SparseVector({3: 0.0, 4: 1.0})), ("d2", SparseVector({4: 2.0, 5: 1e-50}))]
        index = build_index(docs)  # 1e-50 rounds to 0 in float32
        assert index.terms.tolist() == [4]
        assert index.doc_ids.tolist() == [0, 1]
        assert index.posting_count == 2

    def test_duplicate_name_rejected(self):
        with pytest.raises(ContractError):
            build_index([("d", SparseVector({0: 1.0})), ("d", SparseVector({1: 1.0}))])

    @pytest.mark.parametrize("term", [2**32, 2**63, 2**70, -3, -(2**64)])
    def test_term_id_outside_u32_is_refused_when_the_doc_is_built(self, term):
        """Such a doc never reaches build_index: its SparseVector refuses the id."""
        with pytest.raises(ContractError, match=rf"^term id {term} outside \[0, 2\*\*32\)$"):
            build_index([("d0", SparseVector({5: 1.0})), ("d1", SparseVector({5: 1.0, term: 1.0}))])

    def test_u32_edge_term_ids_are_indexed_and_searched(self, tmp_path):
        index = build_index([("d0", SparseVector({2**32 - 1: 2.0, 0: 1.0}))])
        assert index.terms.tolist() == [0, 2**32 - 1]
        save_index(index, tmp_path / "edge.lsrx")
        assert_same_columns(load_index(tmp_path / "edge.lsrx"), index)
        assert top_k_search(index, SparseVector({2**32 - 1: 1.0}), 1) == [("d0", 2.0)]

    def test_repeated_name_is_refused_with_the_constructor_text(self):
        docs = [("d0", SparseVector({1: 1.0})), ("d1", SparseVector()), ("d0", SparseVector())]
        with pytest.raises(ContractError, match=r"^doc name 'd0' is repeated$"):
            build_index(iter(docs))

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_first_overflow_in_input_order_is_named_before_a_repeated_name(self, order):
        faults = [
            ("d0", {9: 1.0}, None),  # repeats the first doc's name
            ("w", {1: 1.0, 2: 1e300}, r"doc 'w': weight 1e\+300 of term 2 overflows"),
            ("x", {4: 1e39}, r"doc 'x': weight 1e\+39 of term 4 overflows"),
        ]
        docs = [("d0", SparseVector({1: 1.0}))]
        docs += [(faults[i][0], SparseVector(faults[i][1])) for i in order]
        with pytest.raises(ContractError, match=next(faults[i][2] for i in order if faults[i][2])):
            build_index(iter(docs))

    @pytest.mark.parametrize(
        "name,entries,message",
        [
            ("d0", {3: 1e300}, r"doc 'd0': weight 1e\+300 of term 3"),
            ("d1", {2: 1.0, 3: 1e300, 4: 1e39}, r"doc 'd1': weight 1e\+300 of term 3"),
            ("d1", {2: 1.0, 4: 1e39, 3: 1e300}, r"doc 'd1': weight 1e\+39 of term 4"),
        ],
        ids=["overflow-before-name", "first-entry", "first-entry-reordered"],
    )
    def test_within_a_doc_the_first_overflowing_entry_is_named(self, name, entries, message):
        with pytest.raises(ContractError, match=message):
            build_index([("d0", SparseVector({1: 1.0})), (name, SparseVector(entries))])

    def test_invariants_on_random_corpus(self):
        rng = np.random.default_rng(20)
        docs = random_corpus(rng, 50, 40)
        index = build_index(docs)
        total = sum(len(v.entries) for _, v in docs)
        assert index.posting_count == total
        for doc_ids, impacts in lists_of(index).values():
            assert (np.diff(doc_ids) > 0).all()
            assert (impacts != 0.0).all()


class TestTopKSearch:
    def test_disjoint_query_empty(self):
        index = build_index(TWO_DOC_FIXTURE)
        assert top_k_search(index, SparseVector({9: 1.0}), 5) == []

    def test_k_zero_empty(self):
        index = build_index(TWO_DOC_FIXTURE)
        assert top_k_search(index, SparseVector({0: 1.0}), 0) == []

    def test_negative_k_rejected(self):
        index = build_index(TWO_DOC_FIXTURE)
        with pytest.raises(ContractError, match="^k must be >= 0$"):
            top_k_search(index, SparseVector({0: 1.0}), -1)

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
        vectors=st.lists(st.dictionaries(st.integers(0, 15), DOC_WEIGHTS, max_size=8), max_size=25),
        query=st.dictionaries(st.integers(0, 15), WEIGHTS, max_size=8),
        k=st.integers(0, 30),
    )
    def test_matches_brute_force_on_float32_weights(self, vectors, query, k):
        """Each term's list holds, in input order, the docs whose weight is
        nonzero in float32, with impact bytes np.float32(weight); and search
        over them matches the oracle over the same float32 weights."""
        index = build_index((f"d{i}", SparseVector(v)) for i, v in enumerate(vectors))
        assert_posting_invariants(index)
        expected = {}
        for doc_id, vector in enumerate(vectors):
            for term, weight in vector.items():
                if np.float32(weight) != 0.0:
                    expected.setdefault(term, []).append((doc_id, np.float32(weight).tobytes()))
        lists = {term: list(zip(doc_ids.tolist(), [impact.tobytes() for impact in impacts]))
                 for term, (doc_ids, impacts) in lists_of(index).items()}
        assert lists == dict(sorted(expected.items()))
        docs = [(f"d{i}", SparseVector({t: float(np.float32(w)) for t, w in v.items()}))
                for i, v in enumerate(vectors)]
        query = SparseVector(query)
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
        assert_same_columns(loaded, index)

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

    @pytest.mark.parametrize("names", [[], ["a", "b"]], ids=["no-docs", "empty-docs"])
    def test_empty_index_round_trip(self, tmp_path, names):
        path = tmp_path / "empty.lsrx"
        save_index(build_index((name, SparseVector()) for name in names), path)
        loaded = load_index(path)
        assert loaded.doc_names == names
        assert loaded.term_count == 0
        assert_posting_invariants(loaded)

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

    def test_saved_bytes_are_pinned(self, tmp_path, spread_index):
        path = tmp_path / "spread.lsrx"
        save_index(spread_index, path)
        digest = "c2d7704dd1e3b49dcaadeb25c8a93be9b9342f6fd956fb0b71ec646d172cd8b6"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        loaded = load_index(path)
        assert loaded.doc_names == spread_index.doc_names
        assert_same_columns(loaded, spread_index)

    def test_layout_of_the_two_doc_fixture(self, tmp_path):
        path = tmp_path / "fixture.lsrx"
        save_index(build_index(TWO_DOC_FIXTURE), path)
        assert path.read_bytes() == (
            b"LSRX" + struct.pack("<IIIQ", 2, 2, 2, 3)
            + struct.pack("<2I", 0, 1) + struct.pack("<2I", 2, 1)
            + struct.pack("<3I", 0, 1, 1) + struct.pack("<3f", 1.0, 2.0, 1.0)
            + struct.pack("<2I", 2, 2) + b"d1d2"
        )

    def test_save_writes_each_column_from_one_cast_at_a_time(self, tmp_path, monkeypatch):
        """write_output gets no ``bytes`` copy of any column: each column is
        cast as it is written, and the float32 impacts are not copied."""
        docs = terms = 1000
        index = index_of([f"d{i}" for i in range(docs)], range(terms),
                         range(0, docs * terms + 1, docs), np.tile(np.arange(docs), terms),
                         np.ones(docs * terms))
        column = 4 * index.posting_count  # bytes of the doc id column, as u4
        seen = {"chunks": []}

        def spy(path, chunks):
            seen["held"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

            def noted():
                for chunk in chunks:
                    seen["chunks"].append((type(chunk), memoryview(chunk).nbytes))
                    yield chunk

            write_output(path, noted())
            seen["written"] = tracemalloc.get_traced_memory()[1] - seen["held"]

        monkeypatch.setattr(index_module, "write_output", spy)
        path = tmp_path / "big.lsrx"
        tracemalloc.start()
        try:
            save_index(index, path)
        finally:
            tracemalloc.stop()
        assert seen["held"] < column / 2
        assert seen["written"] < 1.5 * column
        assert [size for kind, size in seen["chunks"] if kind is bytes and size > 1024] == []
        assert sum(size for _, size in seen["chunks"]) == path.stat().st_size
        names = sum(4 + len(name) for name in index.doc_names)
        assert path.stat().st_size == 24 + 8 * terms + 2 * column + names

    @staticmethod
    def patched_fixture(tmp_path, position, doc_id):
        """TWO_DOC_FIXTURE's file (term 0: docs [0, 1], term 1: [1]) with
        the doc id at ``position`` of the doc id column set to ``doc_id``."""
        path = tmp_path / "patched.lsrx"
        save_index(build_index(TWO_DOC_FIXTURE), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, column_offset(raw, "doc_ids") + 4 * position, doc_id)
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize(
        "position,doc_id,term",
        [
            (1, 0, 0),  # term 0 lists doc 0 twice
            (1, 2, 0),  # only docs 0 and 1 exist
            (2, 2, 1),
        ],
    )
    def test_bad_posting_doc_ids_rejected(self, tmp_path, position, doc_id, term):
        path = self.patched_fixture(tmp_path, position, doc_id)
        with pytest.raises(FormatError, match=rf"term {term}: doc ids must ascend strictly within \[0, 2\)"):
            load_index(path)

    def test_a_list_may_start_below_where_the_previous_ended(self, tmp_path):
        path = self.patched_fixture(tmp_path, 2, 0)
        assert lists_of(load_index(path))[1][0].tolist() == [0]

    def test_non_utf8_doc_name_rejected(self, tmp_path):
        path = tmp_path / "bad.lsrx"
        save_index(build_index(TWO_DOC_FIXTURE), path)
        raw = path.read_bytes()
        assert raw.endswith(b"d1d2")
        path.write_bytes(raw[:-1] + b"\xff")
        with pytest.raises(FormatError, match=f"doc name at offset {len(raw) - 2} is not UTF-8"):
            load_index(path)

    def test_repeated_doc_name_rejected(self, tmp_path):
        path = tmp_path / "dup.lsrx"
        save_index(index_of(["d1", "d2", "d3"], [], [0], [], []), path)
        raw = path.read_bytes()
        assert raw.endswith(b"d1d2d3")
        path.write_bytes(raw[:-1] + b"1")
        with pytest.raises(FormatError, match="doc name 'd1' is repeated"):
            load_index(path)


class TestInvertedIndex:
    """The constructor refuses columns that break what search assumes, so an
    index built by hand holds the same invariants as one built or loaded."""

    @pytest.mark.parametrize(
        "doc_ids",
        [[1, 0], [0, 0], [0, 2], [-1, 0], [2**32, 2**32 + 1]],
        ids=["descending", "repeated", "past-doc-count", "negative", "past-u32"],
    )
    def test_constructor_refuses_doc_ids_that_do_not_ascend_within_the_docs(self, doc_ids):
        with pytest.raises(ContractError, match=r"term 7: doc ids must ascend strictly within \[0, 2\)"):
            index_of(["d1", "d2"], [7], [0, 2], doc_ids, [1.0, 1.0])

    @pytest.mark.parametrize(
        "terms,starts,doc_ids,term",
        [
            ([3, 5], [0, 2, 4], [0, 1, 1, 1], 5),
            ([3, 5], [0, 2, 3], [0, 1, 2], 5),
            ([3, 5], [0, 1, 2], [0, 2], 5),
            ([3, 5], [0, 2, 3], [1, 0, 1], 3),
            ([3, 4, 9], [0, 1, 1, 3], [1, 1, 0], 9),
        ],
        ids=["repeat", "past-doc-count", "past-doc-count-first", "descent-first-list", "after-empty-list"],
    )
    def test_the_list_that_breaks_the_rule_is_named(self, terms, starts, doc_ids, term):
        with pytest.raises(ContractError, match=rf"term {term}: doc ids must ascend strictly within \[0, 2\)"):
            index_of(["d1", "d2"], terms, starts, doc_ids, [1.0] * len(doc_ids))

    @pytest.mark.parametrize("first", [0, 1], ids=["below", "at"])
    def test_a_list_may_start_at_or_below_where_the_previous_ended(self, first):
        index = index_of(["d1", "d2"], [3, 4, 5], [0, 2, 2, 3], [0, 1, first], [1.0, 2.0, 3.0])
        assert lists_of(index)[5][0].tolist() == [first]

    @pytest.mark.parametrize("impacts", [[1.0], [1.0, 1.0, 1.0, 1.0]], ids=["short", "long"])
    def test_constructor_refuses_columns_of_unequal_length(self, impacts):
        """Search would line the impacts up with the wrong doc ids."""
        with pytest.raises(ContractError, match="equal length"):
            index_of(["d1", "d2"], [0, 1], [0, 2, 3], [0, 1, 1], impacts)

    @pytest.mark.parametrize(
        "terms", [[2**32], [-3], [3, 1], [1, 1]], ids=["past-u32", "negative", "descending", "repeated"]
    )
    def test_constructor_refuses_term_ids_that_do_not_ascend_within_u32(self, terms):
        """build_index refuses such ids; the constructor refuses columns built by hand."""
        starts, doc_ids = list(range(len(terms) + 1)), [0] * len(terms)
        with pytest.raises(ContractError, match=r"term ids must ascend strictly within \[0, 2\*\*32\)"):
            index_of(["d1"], terms, starts, doc_ids, [1.0] * len(terms))

    @pytest.mark.parametrize(
        "terms,starts",
        [([0], [0, 5]), ([0], [1, 1]), ([0, 1], [0, 2, 1]), ([0], [0]), ([0], [0, 1, 1])],
        ids=["past-the-end", "not-from-0", "descending", "too-few", "too-many"],
    )
    def test_constructor_refuses_starts_that_do_not_split_the_columns(self, terms, starts):
        """One doc id, one impact: the starts must run 0 to 1, one list per term."""
        with pytest.raises(ContractError, match="list lengths do not sum to the header's 1 postings"):
            index_of(["d1"], terms, starts, [0], [1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
    def test_constructor_refuses_non_finite_or_non_positive_impacts(self, value):
        with pytest.raises(ContractError, match="impacts must be finite and > 0"):
            index_of(["d1", "d2"], [0], [0, 2], [0, 1], [1.0, value])

    @pytest.mark.parametrize(
        "names,repeat", [(["d1", "d1"], "d1"), (["a", "b", "b", "a"], "b"), (["", "x", ""], "")]
    )
    def test_constructor_refuses_repeated_doc_names_naming_the_first_repeat(self, names, repeat):
        with pytest.raises(ContractError, match=f"doc name {repeat!r} is repeated"):
            index_of(names, [], [0], [], [])

    @pytest.mark.parametrize("made", ["built", "loaded", "by hand"])
    def test_columns_are_read_only(self, tmp_path, made):
        """An index stays valid: no write into a column can break what the
        constructor checked. Arrays passed by hand become read-only too."""
        index = build_index(TWO_DOC_FIXTURE)
        if made == "loaded":
            save_index(index, tmp_path / "idx.lsrx")
            index = load_index(tmp_path / "idx.lsrx")
        elif made == "by hand":
            columns = [np.array(c) for c in (index.terms, index.starts, index.doc_ids, index.impacts)]
            index = InvertedIndex(index.doc_names, *columns)
            assert not any(c.flags.writeable for c in columns)
        for column in (index.terms, index.starts, index.doc_ids, index.impacts):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


class TestIndexFileGuarantees:
    """load_index guarantees what top_k_search assumes, or raises FormatError."""

    @staticmethod
    def saved(tmp_path, index):
        path = tmp_path / "idx.lsrx"
        save_index(index, path)
        return path, bytearray(path.read_bytes())

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_impact_rejected(self, tmp_path, value):
        index = index_of(["d1", "d2"], [0], [0, 2], [0, 1], [1.0, 2.0])
        path, raw = self.saved(tmp_path, index)
        struct.pack_into("<f", raw, column_offset(raw, "impacts") + 4, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="finite and > 0"):
            load_index(path)

    @pytest.mark.parametrize("second_term", [0, 5])  # a duplicate, then a descent
    def test_term_ids_must_ascend_strictly(self, tmp_path, second_term):
        index = build_index([("d1", SparseVector({0: 1.0, 1: 1.0, 2: 1.0}))])
        path, raw = self.saved(tmp_path, index)
        struct.pack_into("<I", raw, column_offset(raw, "terms") + 4, second_term)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="term ids must ascend strictly"):
            load_index(path)

    @pytest.mark.parametrize("shift", [-1, 1])  # the lists would hold 2 or 4 postings
    def test_list_lengths_must_sum_to_the_posting_count(self, tmp_path, shift):
        path, raw = self.saved(tmp_path, build_index(TWO_DOC_FIXTURE))
        struct.pack_into("<I", raw, column_offset(raw, "lengths"), 2 + shift)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="list lengths do not sum to the header's 3 postings"):
            load_index(path)

    @pytest.mark.parametrize(
        "field,fmt,value",
        [(8, "<I", 0xFFFFFFFF), (12, "<I", 0xFFFFFFFF), (16, "<Q", 2**64 - 1), (16, "<Q", 2**40)],
        ids=["doc-count", "term-count", "posting-count", "posting-count-2**40"],
    )
    def test_count_past_the_end_rejected_before_allocating(self, tmp_path, field, fmt, value):
        path, raw = self.saved(tmp_path, build_index(TWO_DOC_FIXTURE))
        struct.pack_into(fmt, raw, field, value)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="index truncated at offset"):
                load_index(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("impact_format", [0, 1], ids=["f32", "8-bit"])
    def test_v1_file_is_refused(self, tmp_path, impact_format):
        path = tmp_path / "v1.lsrx"
        path.write_bytes(v1_file(impact_format))
        with pytest.raises(FormatError, match="unsupported index version 1 at offset 4"):
            load_index(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "idx.lsrx"


@pytest.fixture(scope="module")
def saved_file(fuzz_path):
    """The file of one small random index."""
    save_index(build_index(random_corpus(np.random.default_rng(27), 12, 10)), fuzz_path)
    return fuzz_path.read_bytes()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(truncate=st.booleans(), data=st.data())
def test_mutated_index_file_is_rejected_or_sound(fuzz_path, saved_file, truncate, data):
    """A flipped or truncated file raises FormatError, or it loads an index
    that keeps the posting invariants and searches like the oracle."""
    raw = bytearray(saved_file)
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
    query = SparseVector({term: 1.0 for term in index.terms.tolist()})
    assert top_k_search(index, query, 10) == brute_force_search(docs_of(index), query, 10)


@st.composite
def damaged_columns(draw):
    """The columns of a small valid index with one or two changes, each of
    which may leave them valid: a term id (past u32, negative, repeated or
    out of order), a start, a doc id (out of range, repeated or out of
    order), an impact (NaN, inf, 0 or -1), a doc name (set to another's), or
    the impact column's length."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5, unique=True))
    lists = draw(st.dictionaries(st.integers(0, 9), st.sets(st.integers(0, len(names) - 1), min_size=1),
                                 min_size=1, max_size=4))
    terms = sorted(lists)
    starts = [0, *itertools.accumulate(len(lists[term]) for term in terms)]
    doc_ids = [doc for term in terms for doc in sorted(lists[term])]
    impacts = draw(st.lists(WEIGHTS, min_size=len(doc_ids), max_size=len(doc_ids)))
    values = {
        "terms": st.one_of(st.integers(0, 9), st.sampled_from([-1, 2**32])),
        "starts": st.integers(-1, len(doc_ids) + 1),
        "doc_ids": st.one_of(st.integers(-1, len(names)), st.just(2**32)),
        "impacts": st.sampled_from([np.nan, np.inf, 0.0, -1.0]),
        "names": st.sampled_from(names),
    }
    columns = {"names": names, "terms": terms, "starts": starts, "doc_ids": doc_ids, "impacts": impacts}
    for fault in draw(st.lists(st.sampled_from([*values, "length"]), min_size=1, max_size=2), label="faults"):
        if fault == "length":
            impacts[:] = impacts[1:] if draw(st.booleans()) else impacts + [1.0]
        else:
            column = columns[fault]
            column[draw(st.integers(0, len(column) - 1))] = draw(values[fault])
    return names, terms, starts, doc_ids, impacts


@settings(derandomize=True, deadline=None, max_examples=300)
@given(columns=damaged_columns(), k=st.integers(0, 6))
def test_save_never_writes_what_load_refuses(fuzz_path, columns, k):
    """The constructor refuses the columns, or the file save_index writes
    loads back the same columns and names, and search over them matches the
    oracle."""
    try:
        index = index_of(*columns)
    except ContractError:
        return
    save_index(index, fuzz_path)
    loaded = load_index(fuzz_path)
    assert loaded.doc_names == index.doc_names
    assert_same_columns(loaded, index)
    assert_posting_invariants(loaded)
    docs, terms = docs_of(index), index.terms.tolist()
    for query in [{t: 1.0 for t in terms}, {t: i + 1.0 for i, t in enumerate(terms[::2])}, {99: 2.0}]:
        query = SparseVector(query)
        assert top_k_search(loaded, query, k) == brute_force_search(docs, query, k)


@pytest.fixture(scope="module")
def large_index():
    """1,500,000 postings: 30,000 term ids with lists of 50 of 60,000 docs, built as columns."""
    rng = np.random.default_rng(5)
    terms = np.sort(rng.choice(2**20, 30_000, replace=False)).astype(np.int64)
    doc_ids = (rng.integers(0, 1_200, (30_000, 1)) + 1_200 * np.arange(50)).ravel()
    impacts = rng.uniform(0.01, 3.0, len(doc_ids)).astype(np.float32)
    return InvertedIndex([f"d{i}" for i in range(60_000)], terms,
                         np.arange(0, len(doc_ids) + 1, 50), doc_ids, impacts)


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIndexFileMemory:
    """save_index holds about one cast column; load_index about the columns it returns."""

    def test_save_peaks_below_12_mb(self, tmp_path, large_index):
        _, peak = traced_peak(save_index, large_index, tmp_path / "large.lsrx")
        assert peak < 12e6

    def test_load_peaks_below_36_mb(self, tmp_path, large_index):
        path = tmp_path / "large.lsrx"
        save_index(large_index, path)
        loaded, peak = traced_peak(load_index, path)
        assert peak < 36e6
        assert loaded.doc_names == large_index.doc_names
        assert_same_columns(loaded, large_index)
