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

An InvertedIndex holds what search assumes: doc id and impact columns of
equal length, term ids ascending strictly within [0, 2**32), starts that cut
the doc ids into one list per term, doc ids ascending strictly below
doc_count within each list, every impact a finite float32 > 0, and unique
doc names, so a run names each doc once. Its constructor raises
ContractError naming the first fault; load_index raises FormatError with
the same text. Version 1 files are refused: rebuild them from the vector
file with `lsrkit index`.
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
    """The posting columns of the module docstring; ``starts`` has term_count + 1
    entries. The constructor makes the four column arrays it is given read-only."""

    def __init__(self, doc_names: list[str], terms, starts, doc_ids, impacts):
        if len(doc_ids) != len(impacts):
            raise ContractError("the doc id and impact columns must be of equal length")
        if (np.diff(terms) <= 0).any() or ((terms < 0) | (terms >= 2**32)).any():
            raise ContractError("term ids must ascend strictly within [0, 2**32)")
        if (len(starts) != len(terms) + 1 or starts[0] != 0 or starts[-1] != len(doc_ids)
                or (np.diff(starts) < 0).any()):
            raise ContractError(f"list lengths do not sum to the header's {len(doc_ids)} postings")
        bad = np.zeros(len(doc_ids), bool)
        bad[1:] = doc_ids[1:] <= doc_ids[:-1]
        bad[starts[:-1][np.diff(starts) > 0]] = False  # a list's first posting follows another list
        bad |= (doc_ids < 0) | (doc_ids >= len(doc_names))
        if bad.any():
            term = terms[np.searchsorted(starts, bad.argmax(), "right") - 1]
            raise ContractError(
                f"term {term}: doc ids must ascend strictly within [0, {len(doc_names)})")
        if not (np.isfinite(impacts) & (impacts > 0.0)).all():
            raise ContractError("impacts must be finite and > 0")
        if len(set(doc_names)) != len(doc_names):
            seen: set[str] = set()
            for name in doc_names:
                if name in seen:
                    raise ContractError(f"doc name {name!r} is repeated")
                seen.add(name)
        for column in (terms, starts, doc_ids, impacts):
            column.setflags(write=False)
        self.doc_names, self.terms, self.starts = doc_names, terms, starts
        self.doc_ids, self.impacts = doc_ids, impacts

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
        """Start and end, in the posting columns, of each term id in ``terms``,
        ids in [0, 2**32) as a SparseVector holds; a term the index lacks has an empty span."""
        ids = np.fromiter(terms, np.int64)
        return (self.starts[np.searchsorted(self.terms, ids, "left")],
                self.starts[np.searchsorted(self.terms, ids, "right")])


def build_index(docs) -> InvertedIndex:
    """Build an index from (doc name, SparseVector) pairs. Raises ContractError
    at the first weight, in input order, past float32 range, naming its doc and
    term; the constructor then refuses a repeated name."""
    docs = list(docs)
    doc_names, vectors = [name for name, _ in docs], [vec.entries for _, vec in docs]
    sizes = np.fromiter(map(len, vectors), np.int64)
    terms = np.fromiter(chain.from_iterable(vectors), np.int64)  # u32 ids, as SparseVector holds
    weights = np.fromiter(chain.from_iterable(v.values() for v in vectors), np.float64)
    with np.errstate(over="ignore"):  # an overflow is refused below, naming doc and term
        impacts = weights.astype(np.float32)
    overflow = np.isinf(impacts)
    if overflow.any():
        at = int(overflow.argmax())
        doc = int(np.searchsorted(np.cumsum(sizes), at, "right"))
        term, weight = list(vectors[doc].items())[at - int(sizes[:doc].sum())]
        raise ContractError(
            f"doc {doc_names[doc]!r}: weight {weight} of term {term} overflows float32")
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


def save_index(index: InvertedIndex, path) -> None:
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
        name_ends = np.cumsum(reader.array("<u4", doc_count), dtype=np.int64).tolist()
        base, blob = reader.offset, reader.take(name_ends[-1] if name_ends else 0)
        doc_names = []
        for start, end in zip([0, *name_ends], name_ends):
            try:
                doc_names.append(str(blob[start:end], "utf-8"))
            except UnicodeDecodeError:
                raise FormatError(f"doc name at offset {base + start} is not UTF-8") from None
        reader.finish()
    try:
        return InvertedIndex(doc_names, terms, starts, doc_ids, impacts)
    except ContractError as exc:
        raise FormatError(str(exc)) from None
