"""Inverted index over sparse vectors with exact top-k dot-product search.

Postings keep ascending internal doc ids (assigned in input order) and
32-bit float impacts. Search is term-at-a-time: each query term adds its
posting list into one float64 score array, in ascending term-id order;
no pruning, so results match the brute-force oracle (in
tests/reference.py) exactly. Only docs with a positive score are returned;
ties break by ascending doc id everywhere.

On-disk format (little-endian):
  magic b"LSRX" | u32 version | u8 impact format (0 = f32, 1 = u8 linear)
  | u32 doc_count | u32 term_count | u64 posting_count
  | term_count * (u32 term id, u64 offset, u32 length)  -- offsets into blob
  | postings blob: per term, varint-delta doc ids then impacts
  | doc_count * (varint length, utf-8 doc name)

load_index raises FormatError unless term ids ascend strictly, each posting
list starts where the previous one ended, doc ids ascend strictly below
doc_count, every impact is a finite positive float32 and doc names are
unique: the conditions under which search matches the oracle and a run
names each doc once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError
from .heads import SparseVector
from .text import ByteReader, write_output

INDEX_MAGIC = b"LSRX"
INDEX_VERSION = 1
IMPACTS_F32 = 0
IMPACTS_U8 = 1
F32_MAX = float(np.finfo(np.float32).max)


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
    for name, vec in docs:
        if name in seen:
            raise ContractError(f"duplicate document name {name!r}")
        seen.add(name)
        doc_id = len(doc_names)
        doc_names.append(name)
        for term in sorted(vec.entries):
            impact = np.float32(vec.entries[term])
            if impact == 0.0:  # sub-float32 weights vanish; never store zeros
                continue
            acc_ids.setdefault(term, []).append(doc_id)
            acc_imp.setdefault(term, []).append(float(impact))
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


def _write_varint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ContractError(f"cannot write negative varint {value}; doc ids must ascend")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def save_index(index: InvertedIndex, path, quantize8: bool = False) -> None:
    """Serialize; ``quantize8`` stores impacts as 8-bit linear codes (lossy)."""
    impact_format = IMPACTS_U8 if quantize8 else IMPACTS_F32
    blob = bytearray()
    dictionary = []
    for term in sorted(index.postings):
        if not 0 <= term < 2**32:
            raise ContractError(f"term id {term} does not fit the index's u32 term field")
        posting = index.postings[term]
        offset = len(blob)
        prev = 0
        for i, doc_id in enumerate(posting.doc_ids):
            delta = int(doc_id) - prev if i else int(doc_id)
            _write_varint(blob, delta)
            prev = int(doc_id)
        if quantize8:
            lo = float(posting.impacts.min())
            hi = float(posting.impacts.max())
            scale = (hi - lo) / 255.0 if hi > lo else 0.0
            codes = (
                np.zeros(len(posting.impacts), dtype=np.uint8)
                if scale == 0.0
                else np.round((posting.impacts - lo) / scale).astype(np.uint8)
            )
            blob += struct.pack("<ff", lo, scale)
            blob += codes.tobytes()
        else:
            blob += posting.impacts.astype("<f4", copy=False).tobytes()
        dictionary.append((term, offset, len(posting.doc_ids)))
    header = struct.pack(
        "<IBIIQ",
        INDEX_VERSION,
        impact_format,
        index.doc_count,
        index.term_count,
        index.posting_count,
    )
    names = bytearray()
    for name in index.doc_names:
        encoded = name.encode("utf-8")
        _write_varint(names, len(encoded))
        names += encoded
    entries = b"".join(struct.pack("<IQI", *entry) for entry in dictionary)
    write_output(path, [INDEX_MAGIC, header, entries, blob, names])


def load_index(path) -> InvertedIndex:
    reader = ByteReader(path, "index", INDEX_MAGIC, INDEX_VERSION)
    impact_format, doc_count, term_count, posting_count = reader.unpack("<BIIQ")
    if impact_format not in (IMPACTS_F32, IMPACTS_U8):
        raise FormatError(f"unknown impact format {impact_format}")
    dictionary = [reader.unpack("<IQI") for _ in range(term_count)]
    terms = [term for term, _, _ in dictionary]
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise FormatError("term ids must ascend strictly")
    blob_start = reader.offset
    # Each posting takes at least one varint byte plus its impact code.
    header_bytes, bytes_per_posting = (8, 2) if impact_format == IMPACTS_U8 else (0, 5)
    postings: dict[int, Posting] = {}
    total = 0
    for term, offset, length in dictionary:
        if blob_start + offset != reader.offset:
            raise FormatError(
                f"term {term}: postings start at blob offset {offset}, "
                f"not where the previous list ended ({reader.offset - blob_start})"
            )
        if header_bytes + bytes_per_posting * length > reader.remaining():
            raise FormatError(
                f"term {term}: {length} postings cannot fit in the "
                f"{reader.remaining()} bytes left at offset {reader.offset}"
            )
        doc_ids = np.empty(length, dtype=np.int64)
        prev = 0
        try:
            for i in range(length):
                delta = reader.varint()
                prev = delta if i == 0 else prev + delta
                doc_ids[i] = prev
        except OverflowError:
            raise FormatError(f"term {term}: doc id overflows 64 bits") from None
        if length and (doc_ids[-1] >= doc_count or (np.diff(doc_ids) <= 0).any()):
            raise FormatError(
                f"term {term}: doc ids must ascend strictly and stay below {doc_count}"
            )
        if impact_format == IMPACTS_U8:
            lo, scale = reader.unpack("<ff")
            if not (lo >= 0.0 and scale >= 0.0 and lo + 255.0 * scale <= F32_MAX):
                raise FormatError(
                    f"term {term}: 8-bit lo {lo} and scale {scale} must be >= 0 "
                    "and decode to finite float32 impacts"
                )
            codes = reader.array(np.uint8, length)
            impacts = (lo + codes.astype(np.float32) * np.float32(scale)).astype(
                np.float32
            )
        else:
            impacts = reader.array("<f4", length).astype(np.float32)
        if not (np.isfinite(impacts) & (impacts > 0.0)).all():
            raise FormatError(f"term {term}: impacts must be finite and > 0")
        postings[term] = Posting(doc_ids, impacts)
        total += length
    if total != posting_count:
        raise FormatError(
            f"posting count mismatch: header says {posting_count}, found {total}"
        )
    doc_names: dict[str, None] = {}
    for _ in range(doc_count):
        n = reader.varint()
        start = reader.offset
        try:
            name = reader.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"doc name at offset {start} is not UTF-8") from None
        if name in doc_names:
            raise FormatError(f"doc name {name!r} at offset {start} is repeated")
        doc_names[name] = None
    reader.finish()
    return InvertedIndex(list(doc_names), postings)
