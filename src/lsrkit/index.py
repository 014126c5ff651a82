"""Inverted index over sparse vectors with exact top-k dot-product search.

Postings keep ascending internal doc ids (assigned in input order) and
32-bit float impacts. Search is document-at-a-time over the query's
posting lists with a bounded min-heap; no pruning, so results match the
brute-force oracle exactly. Ties break by ascending doc id everywhere.

On-disk format (little-endian):
  magic b"LSRX" | u32 version | u8 impact format (0 = f32, 1 = u8 linear)
  | u32 doc_count | u32 term_count | u64 posting_count
  | term_count * (u32 term id, u64 offset, u32 length)  -- offsets into blob
  | postings blob: per term, varint-delta doc ids then impacts
  | doc_count * (varint length, utf-8 doc name)
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError
from .heads import SparseVector, sparse_dot

INDEX_MAGIC = b"LSRX"
INDEX_VERSION = 1
IMPACTS_F32 = 0
IMPACTS_U8 = 1


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

    def document_frequency(self, term: int) -> int:
        p = self.postings.get(term)
        return 0 if p is None else len(p.doc_ids)


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
    """Exact top-k documents by dot product, document-at-a-time.

    Returns (doc name, score) pairs with scores non-increasing and ties
    in ascending doc-id order.
    """
    if k < 0:
        raise ContractError("k must be >= 0")
    if k == 0 or not query.entries:
        return []
    lists = []
    for term in sorted(query.entries):
        posting = index.postings.get(term)
        if posting is not None:
            lists.append((query.entries[term], posting.doc_ids, posting.impacts))
    if not lists:
        return []

    # Frontier of (current doc id, list ordinal); list ordinal ascends with
    # term id, so per-document contributions accumulate in term-id order.
    frontier = [(int(ids[0]), ord_) for ord_, (_, ids, _) in enumerate(lists)]
    heapq.heapify(frontier)
    cursors = [0] * len(lists)
    # Bounded min-heap of the best k; the root is the current worst under
    # the (score desc, doc id asc) ranking, i.e. min (score, -doc_id).
    best: list[tuple[float, int]] = []
    while frontier:
        doc = frontier[0][0]
        score = 0.0
        while frontier and frontier[0][0] == doc:
            _, ord_ = heapq.heappop(frontier)
            qw, ids, impacts = lists[ord_]
            score += qw * float(impacts[cursors[ord_]])
            cursors[ord_] += 1
            if cursors[ord_] < len(ids):
                heapq.heappush(frontier, (int(ids[cursors[ord_]]), ord_))
        key = (score, -doc)
        if len(best) < k:
            heapq.heappush(best, key)
        elif key > best[0]:
            heapq.heapreplace(best, key)
    ranked = sorted(best, key=lambda sd: (-sd[0], -sd[1]))
    return [(index.doc_names[-neg_id], score) for score, neg_id in ranked]


def brute_force_search(docs, query: SparseVector, k: int) -> list[tuple[str, float]]:
    """Oracle: score every document with sparse_dot, sort by (-score, doc id)."""
    if k < 0:
        raise ContractError("k must be >= 0")
    scored = []
    for doc_id, (name, vec) in enumerate(docs):
        score = sparse_dot(query, vec)
        if score > 0.0:
            scored.append((score, doc_id, name))
    scored.sort(key=lambda s: (-s[0], s[1]))
    return [(name, score) for score, _, name in scored[:k]]


def flops_metric(queries: list[SparseVector], index: InvertedIndex) -> float:
    """Mean number of overlapping terms between query-document pairs."""
    if index.doc_count == 0:
        raise ContractError("index is empty")
    if not queries:
        raise ContractError("query set is empty")
    total = 0
    for q in queries:
        total += sum(index.document_frequency(t) for t in q.entries)
    return total / (len(queries) * index.doc_count)


def _write_varint(buf: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.raw):
            raise FormatError(f"index file truncated at offset {self.offset}")
        chunk = self.raw[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise FormatError(f"varint overflow at offset {self.offset}")


def save_index(index: InvertedIndex, path, quantize8: bool = False) -> None:
    """Serialize; ``quantize8`` stores impacts as 8-bit linear codes (lossy)."""
    impact_format = IMPACTS_U8 if quantize8 else IMPACTS_F32
    blob = bytearray()
    dictionary = []
    for term in sorted(index.postings):
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
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(
            struct.pack(
                "<IBIIQ",
                INDEX_VERSION,
                impact_format,
                index.doc_count,
                index.term_count,
                index.posting_count,
            )
        )
        for term, offset, length in dictionary:
            fh.write(struct.pack("<IQI", term, offset, length))
        fh.write(blob)
        for name in index.doc_names:
            encoded = name.encode("utf-8")
            tmp = bytearray()
            _write_varint(tmp, len(encoded))
            fh.write(tmp)
            fh.write(encoded)


def load_index(path) -> InvertedIndex:
    with open(path, "rb") as fh:
        raw = fh.read()
    reader = _Reader(raw)
    magic = reader.take(4)
    if magic != INDEX_MAGIC:
        raise FormatError(f"bad index magic at offset 0: {magic!r}")
    version, impact_format, doc_count, term_count, posting_count = struct.unpack(
        "<IBIIQ", reader.take(21)
    )
    if version != INDEX_VERSION:
        raise FormatError(f"unsupported index version {version}")
    if impact_format not in (IMPACTS_F32, IMPACTS_U8):
        raise FormatError(f"unknown impact format {impact_format}")
    dictionary = []
    for _ in range(term_count):
        dictionary.append(struct.unpack("<IQI", reader.take(16)))
    blob_start = reader.offset
    postings: dict[int, Posting] = {}
    total = 0
    for term, offset, length in dictionary:
        reader.offset = blob_start + offset
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
            lo, scale = struct.unpack("<ff", reader.take(8))
            codes = np.frombuffer(reader.take(length), dtype=np.uint8)
            impacts = (lo + codes.astype(np.float32) * np.float32(scale)).astype(
                np.float32
            )
        else:
            impacts = np.frombuffer(reader.take(4 * length), dtype="<f4").astype(
                np.float32
            )
        postings[term] = Posting(doc_ids, impacts)
        total += length
    if total != posting_count:
        raise FormatError(
            f"posting count mismatch: header says {posting_count}, found {total}"
        )
    doc_names = []
    for _ in range(doc_count):
        n = reader.varint()
        start = reader.offset
        try:
            doc_names.append(reader.take(n).decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"doc name at offset {start} is not UTF-8") from None
    if reader.offset != len(raw):
        raise FormatError(f"trailing bytes after offset {reader.offset}")
    return InvertedIndex(doc_names, postings)
