"""Inverted index over sparse vectors with exact top-k dot-product search.

Postings keep ascending internal doc ids (assigned in input order) and
32-bit float impacts. Search is term-at-a-time: each query term adds its
posting list into one float64 score array, in ascending term-id order;
no pruning, so results match the brute-force oracle (in
tests/reference.py) exactly. Only docs with a positive score are returned;
ties break by ascending doc id everywhere.

On-disk format (little-endian), fixed-width columns that load as numpy arrays:
  magic b"LSRX" | u32 version 2 | u32 doc_count | u32 term_count | u64 posting_count
  | term_count * u32 term id | term_count * u32 list length
  | posting_count * u32 doc id | posting_count * f32 impact  -- lists back to back
  | doc_count * u32 name byte length | utf-8 doc names

load_index raises FormatError unless term ids ascend strictly, the list
lengths sum to posting_count, doc ids ascend strictly below doc_count
within each list, every impact is a finite positive float32 and doc names
are unique: the conditions under which search matches the oracle and a run
names each doc once. Version 1 files are refused: rebuild them from the
vector file with `lsrkit index`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError
from .heads import SparseVector
from .text import ByteReader, write_output

INDEX_MAGIC = b"LSRX"
INDEX_VERSION = 2


@dataclass
class Posting:
    doc_ids: np.ndarray  # int64, strictly ascending
    impacts: np.ndarray  # float32, no zeros


class InvertedIndex:
    def __init__(self, doc_names: list[str], postings: dict[int, Posting]):
        self.doc_names = doc_names
        self.postings = postings

    @property
    def doc_count(self) -> int:
        return len(self.doc_names)

    @property
    def term_count(self) -> int:
        return len(self.postings)

    @property
    def posting_count(self) -> int:
        return sum(len(p.doc_ids) for p in self.postings.values())


def build_index(docs) -> InvertedIndex:
    """Build an index from (doc name, SparseVector) pairs; names must be unique."""
    doc_names: list[str] = []
    seen: set[str] = set()
    acc_ids: dict[int, list[int]] = {}
    acc_imp: dict[int, list[float]] = {}
    with np.errstate(over="ignore"):  # an overflow is refused below, naming doc and term
        for name, vec in docs:
            if name in seen:
                raise ContractError(f"duplicate document name {name!r}")
            seen.add(name)
            doc_id = len(doc_names)
            doc_names.append(name)
            for term, weight in vec.entries.items():
                impact = float(np.float32(weight))
                if impact == 0.0:  # sub-float32 weights vanish; never store zeros
                    continue
                if impact == math.inf:
                    raise ContractError(
                        f"doc {name!r}: weight {weight} of term {term} overflows float32"
                    )
                acc_ids.setdefault(term, []).append(doc_id)
                acc_imp.setdefault(term, []).append(impact)
    postings = {
        term: Posting(
            np.asarray(acc_ids[term], dtype=np.int64),
            np.asarray(acc_imp[term], dtype=np.float32),
        )
        for term in sorted(acc_ids)
    }
    return InvertedIndex(doc_names, postings)


def top_k_search(index: InvertedIndex, query: SparseVector, k: int) -> list[tuple[str, float]]:
    """Exact top-k documents by dot product, term-at-a-time.

    Returns (doc name, score) pairs with positive scores, non-increasing,
    and ties in ascending doc-id order.
    """
    if k < 0:
        raise ContractError("k must be >= 0")
    scores = np.zeros(index.doc_count)
    # Ascending term ids, so each doc's sum runs in term-id order as in the
    # oracle; doc ids within a list are unique, so += adds each impact once.
    for term in sorted(query.entries):
        posting = index.postings.get(term)
        if posting is not None:
            scores[posting.doc_ids] += query.entries[term] * posting.impacts.astype(np.float64)
    docs = np.flatnonzero(scores > 0.0)
    top = docs[np.lexsort((docs, -scores[docs]))[:k]]
    return [(index.doc_names[d], float(scores[d])) for d in top]


def flops_metric(queries: list[SparseVector], index: InvertedIndex) -> float:
    """Mean number of overlapping terms between query-document pairs."""
    if index.doc_count == 0:
        raise ContractError("index is empty")
    if not queries:
        raise ContractError("query set is empty")
    postings = index.postings
    total = sum(len(postings[t].doc_ids) for q in queries for t in q.entries if t in postings)
    return total / (len(queries) * index.doc_count)


def _check_lists(terms, lengths, doc_ids, doc_count: int, error: type) -> None:
    """Raise ``error`` naming the first of the lists, ``lengths`` back to back in
    ``doc_ids``, whose ids do not ascend strictly within [0, doc_count)."""
    list_of = np.repeat(np.arange(len(lengths)), lengths)
    bad = (doc_ids < 0) | (doc_ids >= doc_count)
    bad[1:] |= (np.diff(doc_ids) <= 0) & (np.diff(list_of) == 0)
    if bad.any():
        term = terms[list_of[bad.argmax()]]
        raise error(f"term {term}: doc ids must ascend strictly within [0, {doc_count})")


def save_index(index: InvertedIndex, path) -> None:
    terms = sorted(index.postings)
    if terms and not (0 <= terms[0] and terms[-1] < 2**32):
        term = terms[0] if terms[0] < 0 else terms[-1]
        raise ContractError(f"term id {term} does not fit the index's u32 term field")
    lists = [index.postings[term] for term in terms]
    lengths = np.array([len(p.doc_ids) for p in lists], dtype=np.int64)
    if any(len(p.impacts) != n for p, n in zip(lists, lengths)):
        raise ContractError("every posting list needs one impact per doc id")
    doc_ids = np.concatenate([np.empty(0, np.int64), *(p.doc_ids for p in lists)])
    _check_lists(terms, lengths, doc_ids, index.doc_count, ContractError)
    impacts = np.concatenate([np.empty(0, np.float32), *(p.impacts for p in lists)])
    names = [name.encode("utf-8") for name in index.doc_names]
    write_output(path, [
        INDEX_MAGIC,
        struct.pack("<IIIQ", INDEX_VERSION, index.doc_count, len(terms), len(doc_ids)),
        np.array(terms, "<u4").tobytes(),
        lengths.astype("<u4").tobytes(),
        doc_ids.astype("<u4").tobytes(),
        impacts.astype("<f4").tobytes(),
        np.array([len(name) for name in names], "<u4").tobytes(),
        *names,
    ])


def load_index(path) -> InvertedIndex:
    reader = ByteReader(path, "index", INDEX_MAGIC, INDEX_VERSION)
    doc_count, term_count, posting_count = reader.unpack("<IIQ")
    terms = reader.array("<u4", term_count).astype(np.int64)
    lengths = reader.array("<u4", term_count).astype(np.int64)
    doc_ids = reader.array("<u4", posting_count).astype(np.int64)
    impacts = reader.array("<f4", posting_count).astype(np.float32)
    name_lengths = reader.array("<u4", doc_count)
    if (np.diff(terms) <= 0).any():
        raise FormatError("term ids must ascend strictly")
    if lengths.sum() != posting_count:
        raise FormatError(f"list lengths do not sum to the header's {posting_count} postings")
    _check_lists(terms, lengths, doc_ids, doc_count, FormatError)
    if not (np.isfinite(impacts) & (impacts > 0.0)).all():
        raise FormatError("impacts must be finite and > 0")
    ends = np.cumsum(lengths).tolist()
    postings = {
        term: Posting(doc_ids[start:end], impacts[start:end])
        for term, start, end in zip(terms.tolist(), [0, *ends], ends)
    }
    name_ends = np.cumsum(name_lengths, dtype=np.int64).tolist()
    base, blob = reader.offset, reader.take(name_ends[-1] if name_ends else 0)
    doc_names: dict[str, None] = {}
    for start, end in zip([0, *name_ends], name_ends):
        try:
            name = blob[start:end].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"doc name at offset {base + start} is not UTF-8") from None
        if name in doc_names:
            raise FormatError(f"doc name {name!r} at offset {base + start} is repeated")
        doc_names[name] = None
    reader.finish()
    return InvertedIndex(list(doc_names), postings)
