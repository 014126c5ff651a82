"""Word-level tokenizer, corpus-derived vocabulary, read_records, the one
reader behind every line-based input file (these, triplets, vectors, TREC),
ByteReader, the one reader behind every binary input file (checkpoints,
indexes), which reads from the file straight into fresh arrays, and
write_output, the one writer behind every output file.

File formats (all tab-separated, UTF-8):
  corpus / queries  ``name<TAB>text`` one record per line
  vocabulary        one token per line, blank lines skipped; the n-th token has id n + 3
"""

from __future__ import annotations

import hashlib
import io
import os
import stat
import string
import struct
from collections import Counter

import numpy as np

from .errors import ContractError, FormatError

PAD_ID = 0
START_ID = 1
UNK_ID = 2
SENTINEL_ID = 3
SPECIAL_TOKENS = ("<pad>", "<s>", "<unk>", "<sentinel>")
NUM_SPECIALS = len(SPECIAL_TOKENS)

_STRIP_CHARS = string.punctuation


def split_words(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation."""
    words = []
    for raw in text.lower().split():
        w = raw.strip(_STRIP_CHARS)
        if w:
            words.append(w)
    return words


class Vocabulary:
    """Token-to-id map with four reserved ids (pad, start, unk, sentinel)."""

    def __init__(self, tokens: list[str]):
        if len(set(tokens)) != len(tokens):
            raise FormatError("vocabulary tokens must be unique")
        self._tokens = list(tokens)
        self._ids = {tok: NUM_SPECIALS + i for i, tok in enumerate(tokens)}

    def __len__(self) -> int:
        return NUM_SPECIALS + len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def digest(self) -> str:
        """Content digest used to pair checkpoints with their vocabulary."""
        return hashlib.sha256("\n".join(self._tokens).encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        write_output(path, [tok.encode("utf-8") + b"\n" for tok in self._tokens])

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens: dict[str, None] = {}
        for lineno, (tok,) in read_records(path, 1, "one token per line"):
            if tok in tokens:
                raise FormatError(f"{path}:{lineno}: repeated vocabulary token {tok!r}")
            tokens[tok] = None
        return cls(list(tokens))


def build_vocab(corpus: dict[str, str], min_freq: int = 1) -> Vocabulary:
    """Vocabulary of tokens with frequency >= min_freq, ordered by (-freq, token)."""
    counts: Counter[str] = Counter()
    for name in sorted(corpus):
        counts.update(split_words(corpus[name]))
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept)


def tokenize(vocab: Vocabulary, text: str, max_len: int) -> list[int]:
    """Term ids of the first ``max_len`` words; unknown words become <unk>."""
    if max_len < 0:
        raise ContractError(f"max_len must be >= 0, not {max_len}")
    return [vocab.id_of(w) for w in split_words(text)[:max_len]]


def read_records(path, fields: int, form: str, sep: str | None = "\t"):
    """Yield (line number, fields) for each line of a UTF-8 file that is not
    empty or only whitespace; ``sep=None`` splits on runs of whitespace.

    Raises FormatError for bytes that are not UTF-8 and for a line without
    exactly ``fields`` fields; ``form`` describes the expected line."""
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: not UTF-8 at byte {offset + exc.start}") from None
            offset += len(raw)
            if not line.strip():
                continue
            parts = line.rstrip("\r\n").split(sep)
            if len(parts) != fields:
                raise FormatError(f"{path}:{lineno}: expected {form}")
            yield lineno, parts


class ByteReader:
    """Bounds-checked cursor over a binary file that opens with a 4-byte
    magic and a u32 version, both checked here. Every failure is a
    FormatError that names ``kind`` and the byte offset. Reads go from the
    file straight into fresh arrays, with no whole-file buffer; a pipe is
    read whole first. A ``with`` block closes the file."""

    def __init__(self, path, kind: str, magic: bytes, version: int):
        self._file, self.kind, self.offset = open(path, "rb"), kind, 4
        try:
            info = os.fstat(self._file.fileno())
            if not stat.S_ISREG(info.st_mode):  # a pipe's size is known once it is read
                with self._file:
                    self._file = io.BytesIO(self._file.read())
            self.size = info.st_size if stat.S_ISREG(info.st_mode) else len(self._file.getbuffer())
            found = self._file.read(4)
            if found != magic:
                raise FormatError(f"bad {kind} magic at offset 0: {found!r}")
            (found,) = self.unpack("<I")
            if found != version:
                raise FormatError(f"unsupported {kind} version {found} at offset 4")
        except BaseException:
            self._file.close()
            raise

    def __enter__(self) -> "ByteReader":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def remaining(self) -> int:
        return self.size - self.offset

    def _skip(self, n: int) -> int:
        """Move past the next ``n`` bytes; returns the offset they start at."""
        if n > self.size - self.offset:
            raise FormatError(f"{self.kind} truncated at offset {self.offset}")
        self.offset += n
        return self.offset - n

    def take(self, n: int) -> memoryview:
        return self.array(np.uint8, n).data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """The next ``count`` items as a fresh, writable array, allocated
        once the file is known to hold them."""
        start = self._skip(count * np.dtype(dtype).itemsize)
        out = np.empty(count, dtype)
        if self._file.readinto(out) != out.nbytes:  # the file was cut after it was opened
            raise FormatError(f"{self.kind} truncated at offset {start}")
        return out

    def finish(self) -> None:
        if self.remaining():
            raise FormatError(f"{self.kind}: trailing bytes after offset {self.offset}")


def parse_number(cast, field: str):
    """``cast(field)``, int or float, for a field of plain ASCII without "_":
    Python's casts also take digit separators and non-ASCII digits. Raises ValueError."""
    if "_" in field or not field.isascii():
        raise ValueError(f"not a plain ASCII number: {field!r}")
    return cast(field)


def is_name(value: str) -> bool:
    """Whether ``value`` is non-empty and holds no whitespace, so that a
    whitespace-split line, such as a TREC run line, gives it back whole."""
    return value.split() == [value]


def checked_name(kind: str, value: str) -> str:
    """``value`` if it passes ``is_name``; else ContractError naming ``kind``."""
    if not is_name(value):
        raise ContractError(f"{kind} {value!r} is empty or holds whitespace")
    return value


def read_tsv_texts(path) -> dict[str, str]:
    """Read ``name<TAB>text`` records; names are unique and pass ``is_name``."""
    out: dict[str, str] = {}
    for lineno, (name, text) in read_records(path, 2, "2 tab-separated fields"):
        if not is_name(name):
            raise FormatError(f"{path}:{lineno}: name {name!r} is empty or holds whitespace")
        if name in out:
            raise FormatError(f"{path}:{lineno}: duplicate name {name!r}")
        out[name] = text
    return out


def write_output(path, chunks) -> None:
    """Write the bytes-like chunks of an iterable (``bytes``, or the
    ``memoryview`` of an array) as the file at ``path``.

    A regular file with one link, or a path that does not exist yet, is
    replaced whole: the chunks go to a sibling ``<path>.<pid>.tmp``, which
    takes the old file's permission bits, the old file is unlinked and the
    temp file renamed onto the path. Rewriting a file in place, by
    truncation or by renaming over it, makes ext4 (``auto_da_alloc``) flush
    it on close; this way pays no such flush. If any step raises, the temp
    file is removed and the old file, unless already unlinked, is kept.

    A symlink, a file with other hard links or a non-regular file (a
    device, a FIFO) is written in place, as ``open(path, "wb")`` would, so
    the link, the other names and the device keep working; an error there
    leaves what was written so far. No file is fsynced.
    """
    path = os.fspath(path)
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "xb")
    except FileNotFoundError as exc:  # a missing directory: name the output
        raise FileNotFoundError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.writelines(chunks)
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
            os.unlink(path)
        os.rename(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
