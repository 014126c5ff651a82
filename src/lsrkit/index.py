"""Inverted index over sparse vectors with exact top-k dot-product search.

An index holds its file's columns: term i's list is doc_ids and impacts
[starts[i]:starts[i+1]], internal doc ids (assigned in input order) strictly
ascending, impacts 32-bit floats. Search is term-at-a-time: each query term
adds its posting list into one float64 score array, in ascending term-id
order; no pruning, so results match the brute-force oracle (in
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

import struct
from itertools import chain

import numpy as np

from .errors import ContractError, FormatError
from .heads import SparseVector
from .text import ByteReader, write_output

INDEX_MAGIC = b"LSRX"
INDEX_VERSION = 2


class InvertedIndex:
    """The posting columns of the module docstring; ``starts`` has term_count + 1 entries."""

    def __init__(self, doc_names: list[str], terms, starts, doc_ids, impacts):
        self.doc_names = doc_names
        self.terms = terms
        self.starts = starts
        self.doc_ids = doc_ids
        self.impacts = impacts

    @property
    def doc_count(self) -> int:
        return len(self.doc_names)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def posting_count(self) -> int:
        return len(self.doc_ids)

    def spans(self, terms) -> tuple[np.ndarray, np.ndarray]:
        """Start and end, in the posting columns, of each term id in ``terms``;
        a term the index lacks, or any id outside [0, 2**32), has an empty span."""
        ids = np.fromiter((t if 0 <= t < 2**32 else -1 for t in terms), np.int64)
        return (self.starts[np.searchsorted(self.terms, ids, "left")],
                self.starts[np.searchsorted(self.terms, ids, "right")])


def build_index(docs) -> InvertedIndex:
    """Build an index from (doc name, SparseVector) pairs. Raises ContractError
    at the first doc, in input order, that repeats a name, holds a term id
    outside [0, 2**32) or a weight past float32 range."""
    entries: dict[str, dict[int, float]] = {}
    repeated = None
    for name, vec in docs:
        if name in entries:
            repeated = name  # the docs before it may hold an earlier fault
            break
        entries[name] = vec.entries
    doc_names, vectors = list(entries), list(entries.values())
    sizes = np.fromiter(map(len, vectors), np.int64)
    try:
        terms = np.fromiter(chain.from_iterable(vectors), np.int64)
    except OverflowError:  # an id past int64, out of range anyway
        terms = np.fromiter((t if 0 <= t < 2**32 else -1 for v in vectors for t in v), np.int64)
    weights = np.fromiter(chain.from_iterable(v.values() for v in vectors), np.float64)
    with np.errstate(over="ignore"):  # an overflow is refused below, naming doc and term
        impacts = weights.astype(np.float32)
    bad = (terms < 0) | (terms >= 2**32) | np.isinf(impacts)
    if bad.any():
        at = int(bad.argmax())
        doc = int(np.searchsorted(np.cumsum(sizes), at, "right"))
        term, weight = list(vectors[doc].items())[at - int(sizes[:doc].sum())]
        fault = (f"term id {term} outside [0, 2**32)" if not 0 <= term < 2**32
                 else f"weight {weight} of term {term} overflows float32")
        raise ContractError(f"doc {doc_names[doc]!r}: {fault}")
    if repeated is not None:
        raise ContractError(f"duplicate document name {repeated!r}")
    kept = np.flatnonzero(impacts != 0.0)  # sub-float32 weights vanish; never store zeros
    order = kept[np.argsort(terms[kept], kind="stable")]  # doc ids ascend within each term
    terms, firsts = np.unique(terms[order], return_index=True)
    doc_ids = np.repeat(np.arange(len(vectors), dtype=np.int64), sizes)[order]
    return InvertedIndex(doc_names, terms, np.append(firsts, len(order)), doc_ids, impacts[order])


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
    terms = sorted(query.entries)
    starts, ends = index.spans(terms)
    for term, a, b in zip(terms, starts.tolist(), ends.tolist()):
        scores[index.doc_ids[a:b]] += query.entries[term] * index.impacts[a:b].astype(np.float64)
    docs = np.flatnonzero(scores > 0.0)
    top = docs[np.lexsort((docs, -scores[docs]))[:k]]
    return [(index.doc_names[d], float(scores[d])) for d in top]


def flops_metric(queries: list[SparseVector], index: InvertedIndex) -> float:
    """Mean number of overlapping terms between query-document pairs."""
    if index.doc_count == 0:
        raise ContractError("index is empty")
    if not queries:
        raise ContractError("query set is empty")
    starts, ends = index.spans(t for q in queries for t in q.entries)
    return int((ends - starts).sum()) / (len(queries) * index.doc_count)


def _check_lists(terms, starts, doc_ids, doc_count: int, error: type) -> None:
    """Raise ``error`` unless ``terms`` ascend strictly in u32, ``starts`` split the
    doc ids into one list per term, and each list's doc ids ascend strictly
    within [0, doc_count), naming the first list that breaks it."""
    if (np.diff(terms) <= 0).any() or ((terms < 0) | (terms >= 2**32)).any():
        raise error("term ids must ascend strictly within [0, 2**32)")
    if (len(starts) != len(terms) + 1 or starts[0] != 0 or starts[-1] != len(doc_ids)
            or (np.diff(starts) < 0).any()):
        raise error(f"list lengths do not sum to the header's {len(doc_ids)} postings")
    list_of = np.repeat(np.arange(len(terms)), np.diff(starts))
    bad = (doc_ids < 0) | (doc_ids >= doc_count)
    bad[1:] |= (np.diff(doc_ids) <= 0) & (np.diff(list_of) == 0)
    if bad.any():
        term = terms[list_of[bad.argmax()]]
        raise error(f"term {term}: doc ids must ascend strictly within [0, {doc_count})")


def save_index(index: InvertedIndex, path) -> None:
    if len(index.doc_ids) != len(index.impacts):
        raise ContractError("the doc id and impact columns must be of equal length")
    _check_lists(index.terms, index.starts, index.doc_ids, index.doc_count, ContractError)
    names = [name.encode("utf-8") for name in index.doc_names]
    lengths = np.array([len(name) for name in names], "<u4")
    columns = [(index.terms, "<u4"), (np.diff(index.starts), "<u4"), (index.doc_ids, "<u4"),
               (index.impacts, "<f4"), (lengths, "<u4")]
    # One column cast at a time, each written from its own memory.
    payload = (np.ascontiguousarray(column, dtype).data for column, dtype in columns)
    header = struct.pack(
        "<IIIQ", INDEX_VERSION, index.doc_count, index.term_count, index.posting_count)
    write_output(path, chain([INDEX_MAGIC, header], payload, names))


def load_index(path) -> InvertedIndex:
    with ByteReader(path, "index", INDEX_MAGIC, INDEX_VERSION) as reader:
        doc_count, term_count, posting_count = reader.unpack("<IIQ")
        terms = reader.array("<u4", term_count).astype(np.int64)
        starts = np.append(0, reader.array("<u4", term_count)).cumsum(dtype=np.int64)
        doc_ids = reader.array("<u4", posting_count).astype(np.int64)
        impacts = reader.array("<f4", posting_count)
        name_lengths = reader.array("<u4", doc_count)
        _check_lists(terms, starts, doc_ids, doc_count, FormatError)
        if not (np.isfinite(impacts) & (impacts > 0.0)).all():
            raise FormatError("impacts must be finite and > 0")
        name_ends = np.cumsum(name_lengths, dtype=np.int64).tolist()
        base, blob = reader.offset, reader.take(name_ends[-1] if name_ends else 0)
        doc_names: dict[str, None] = {}
        for start, end in zip([0, *name_ends], name_ends):
            try:
                name = str(blob[start:end], "utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"doc name at offset {base + start} is not UTF-8") from None
            if name in doc_names:
                raise FormatError(f"doc name {name!r} at offset {base + start} is repeated")
            doc_names[name] = None
        reader.finish()
    return InvertedIndex(list(doc_names), terms, starts, doc_ids, impacts)
