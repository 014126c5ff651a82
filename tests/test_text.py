"""Tokenizer, vocabulary, corpus-file, record-reader, binary-reader and
output-writer tests."""

import ast
import contextlib
import os
import re
import stat
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from reference import token_of, write_tsv_texts
from lsrkit import text
from lsrkit.backbones import BackboneConfig, Variant
from lsrkit.errors import FormatError
from lsrkit.evaluation import read_qrels, read_run, write_run
from lsrkit.heads import HeadKind, SparseVector, read_vectors, write_vectors
from lsrkit.index import build_index, load_index, save_index
from lsrkit.model import SparseEncoder
from lsrkit.text import NUM_SPECIALS, PAD_ID, START_ID, UNK_ID, Vocabulary, build_vocab, tokenize
from lsrkit.training import TrainConfig, TrainingTriplet, read_triplets, train


class TestBuildVocab:
    def test_min_freq_filters(self):
        vocab = build_vocab({"d1": "a a b"}, min_freq=2)
        assert vocab.tokens == ["a"]

    def test_reserved_ids_always_present(self):
        vocab = build_vocab({"d1": "x"}, min_freq=5)
        assert len(vocab) == NUM_SPECIALS
        assert token_of(vocab, PAD_ID) == "<pad>"
        assert token_of(vocab, START_ID) == "<s>"
        assert token_of(vocab, UNK_ID) == "<unk>"

    def test_deterministic_id_assignment(self):
        corpus = {"d1": "red blue green", "d2": "blue blue red"}
        v1 = build_vocab(corpus)
        v2 = build_vocab(corpus)
        assert v1.tokens == v2.tokens
        # blue occurs 3x, red 2x, green 1x
        assert v1.tokens == ["blue", "red", "green"]
        assert v1.id_of("blue") == NUM_SPECIALS

    def test_frequency_tie_broken_alphabetically(self):
        vocab = build_vocab({"d1": "pear apple pear apple"})
        assert vocab.tokens == ["apple", "pear"]


class TestTokenize:
    def test_punctuation_and_case(self):
        vocab = Vocabulary(["hello", "world"])
        assert tokenize(vocab, "Hello, world", 64) == [
            vocab.id_of("hello"),
            vocab.id_of("world"),
        ]

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary(["known"])
        assert tokenize(vocab, "mystery", 64) == [UNK_ID]

    def test_truncation(self):
        vocab = Vocabulary(["w"])
        ids = tokenize(vocab, " ".join(["w"] * 200), 64)
        assert len(ids) == 64
        assert ids == [vocab.id_of("w")] * 64
        # words that strip to nothing are dropped before the cut
        assert tokenize(vocab, "... , w x", 1) == [vocab.id_of("w")]

    def test_empty_text_gives_no_tokens(self):
        vocab = Vocabulary([])
        assert tokenize(vocab, "   ... ", 64) == []

    def test_ids_always_below_vocab_size(self):
        vocab = build_vocab({"d": "some words here"})
        ids = tokenize(vocab, "some unseen words !!!", 64)
        assert all(0 <= i < len(vocab) for i in ids)


class TestVocabularyFile:
    def test_round_trip(self, tmp_path):
        vocab = build_vocab({"d1": "cat dog cat", "d2": "dog emu"})
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.digest() == vocab.digest()

    def test_line_number_is_id_minus_three(self, tmp_path):
        vocab = Vocabulary(["first", "second"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text().splitlines()
        for lineno, token in enumerate(lines, start=1):
            assert vocab.id_of(token) - 3 == lineno

    def test_repeated_token_names_file_line_and_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\na\n")
        with pytest.raises(FormatError, match=r"^.*vocab\.txt:3: repeated vocabulary token 'a'$"):
            Vocabulary.load(path)

    def test_non_unk_ids_round_trip_to_unique_tokens(self):
        vocab = build_vocab({"d": "alpha beta gamma"})
        seen = set()
        for token in vocab.tokens:
            tid = vocab.id_of(token)
            assert token_of(vocab, tid) == token
            assert tid not in seen
            seen.add(tid)


class TestTsvFiles:
    def test_round_trip(self, tmp_path):
        records = {"d1": "some text", "d2": "more text"}
        path = tmp_path / "corpus.tsv"
        write_tsv_texts(path, records)
        assert text.read_tsv_texts(path) == records

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("d1\ta\nd1\tb\n")
        with pytest.raises(FormatError, match="2"):
            text.read_tsv_texts(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("d1\ta\nno-tab-here\n")
        with pytest.raises(FormatError, match=":2"):
            text.read_tsv_texts(path)

    # names that a whitespace-split TREC run line cannot give back whole
    @pytest.mark.parametrize(
        "name", ["", "q 1", " q1", "q1 ", "q\x0b1", "q\x1c1", "q\u00a01", "q\u20031", "q\r1"]
    )
    def test_name_a_run_file_cannot_hold_names_its_line(self, tmp_path, name):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"d1\ta\n{name}\tb\n")
        with pytest.raises(FormatError, match=rf"corpus\.tsv:2: name {re.escape(repr(name))} is empty"):
            text.read_tsv_texts(path)


# one valid line for every loader behind read_records
LOADERS = [
    pytest.param(text.read_tsv_texts, "d1\ta b", id="tsv"),
    pytest.param(lambda path: Vocabulary.load(path).tokens, "a", id="vocab"),
    pytest.param(
        lambda path: read_triplets(path, Vocabulary(["a", "b", "c"]), 8),
        "a\tb\tc\t2.0\t1.0",
        id="triplets",
    ),
    pytest.param(read_vectors, "d1\t3:0.5", id="vectors"),
    pytest.param(read_qrels, "q1 0 d1 1", id="qrels"),
    pytest.param(read_run, "q1 Q0 d1 1 2.0 t", id="run"),
]


class TestRecordReader:
    def test_yields_line_numbers_and_fields_skipping_blank_lines(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"a\tb\n\n \t \nc\td\r\n")
        assert list(text.read_records(path, 2, "x")) == [(1, ["a", "b"]), (4, ["c", "d"])]

    def test_none_separator_splits_on_whitespace_runs(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("q1  0\td1 \t 1\n")
        assert list(text.read_records(path, 4, "x", None)) == [(1, ["q1", "0", "d1", "1"])]

    def test_wrong_field_count_names_path_line_and_form(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("a\tb\n\na\tb\tc\n")
        with pytest.raises(FormatError, match=r"f\.tsv:3: expected two things"):
            list(text.read_records(path, 2, "two things"))

    def test_non_utf8_byte_names_file_and_offset(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes("é\tb\nc\td".encode() + b"\xff\n")  # é is two bytes
        with pytest.raises(FormatError, match=r"f\.tsv: not UTF-8 at byte 8"):
            list(text.read_records(path, 2, "x"))

    @pytest.mark.parametrize("load,line", LOADERS)
    def test_every_loader_rejects_a_non_utf8_byte_naming_the_file(self, tmp_path, load, line):
        path = tmp_path / "input.txt"
        path.write_bytes(f"{line}\n".encode() + b"\xff" + f"{line}\n".encode())
        with pytest.raises(FormatError, match=r"input\.txt: not UTF-8 at byte"):
            load(path)

    @pytest.mark.parametrize("load,line", LOADERS)
    def test_every_loader_skips_whitespace_only_lines(self, tmp_path, load, line):
        plain, padded = tmp_path / "plain.txt", tmp_path / "padded.txt"
        plain.write_text(line + "\n")
        padded.write_text(" \n" + line + "\n\t\n")
        assert load(padded) == load(plain)


def _vectors(version):
    return [("d1", SparseVector({3: 0.5 + version})), ("d2", SparseVector({4: 1.0}))]


def _tiny_model():
    config = BackboneConfig(
        Variant.ENCODER_ONLY, num_layers=1, d_model=8, num_heads=2, vocab_size=16, max_seq_len=8
    )
    return SparseEncoder.build(config, HeadKind.MLP)


def _train_metrics(path, version):
    triplet = TrainingTriplet((4, 5), (4, 6), (7,), 2.0 + version, 1.0)
    cfg = TrainConfig(total_steps=1, learning_rate=1e-3)
    train(_tiny_model(), [triplet], cfg, metrics_path=path)


# every output lsrkit writes: (path, version) -> writes bytes that depend on version
WRITERS = [
    pytest.param(lambda path, v: Vocabulary(["a", "b", "c"][: v + 1]).save(path), id="vocab"),
    pytest.param(lambda path, v: write_vectors(path, _vectors(v)), id="vectors"),
    pytest.param(lambda path, v: write_run(path, {"q1": [("d1", 2.0 + v)]}, "t"), id="run"),
    pytest.param(lambda path, v: save_index(build_index(_vectors(v)), path), id="index"),
    pytest.param(lambda path, v: _tiny_model().save(path, vocab_digest=str(v)), id="checkpoint"),
    pytest.param(_train_metrics, id="metrics"),
]


class TestOutputWriter:
    @pytest.mark.parametrize("write", WRITERS)
    def test_rewrite_gives_a_new_file_with_the_new_bytes(self, tmp_path, write):
        path, fresh = tmp_path / "out", tmp_path / "fresh"
        write(path, 0)
        old_inode = path.stat().st_ino
        write(path, 1)
        write(fresh, 1)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_ino != old_inode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]

    def test_failing_chunks_keep_the_old_file_and_leave_no_temp_file(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        write_vectors(path, _vectors(0))
        before = path.read_bytes()

        def items():
            yield from _vectors(1)
            raise RuntimeError("encoder failed")

        with pytest.raises(RuntimeError, match="encoder failed"):
            write_vectors(path, items())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.tsv"]

    def test_failing_chunks_for_a_new_path_leave_nothing(self, tmp_path):
        def chunks():
            yield b"part"
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            text.write_output(tmp_path / "out", chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failing_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):  # "" names no file to rename onto
            text.write_output("", [b"x"])
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_error_names_the_output(self, tmp_path):
        path = tmp_path / "missing" / "out.vec"
        with pytest.raises(FileNotFoundError) as exc:
            text.write_output(path, [b"x"])
        assert exc.value.filename == str(path)

    def test_symlink_is_written_through_and_kept(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"old")
        link.symlink_to(target)
        text.write_output(link, [b"new", b" bytes"])
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new bytes"

    def test_hard_linked_file_is_written_in_place(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"old")
        os.link(a, b)
        inode = a.stat().st_ino
        text.write_output(a, [b"new"])
        assert a.read_bytes() == b.read_bytes() == b"new"
        assert a.stat().st_ino == b.stat().st_ino == inode

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            text.write_output(fifo, [b"through ", b"the pipe"])
            assert os.read(reader, 100) == b"through the pipe"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_mode_bits_are_kept(self, tmp_path):
        path = tmp_path / "vocab.txt"
        Vocabulary(["a"]).save(path)
        path.chmod(0o640)
        Vocabulary(["a", "b"]).save(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() == "a\nb\n"

    def test_only_write_output_opens_files_for_writing(self):
        """Every output goes through text.write_output, so no module can bring
        back rewriting a file by truncating it in place."""
        offenders = []
        for file in sorted(Path(text.__file__).parent.glob("*.py")):
            tree = ast.parse(file.read_text(encoding="utf-8"))
            allowed = set()
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and (file.name, fn.name) == ("text.py", "write_output"):
                    allowed = {id(node) for node in ast.walk(fn)}
            offenders += [
                f"{file.name}:{node.lineno}"
                for node in ast.walk(tree)
                if id(node) not in allowed and _opens_for_writing(node)
            ]
        assert not offenders, f"outputs not written by text.write_output: {offenders}"


def _opens_for_writing(node) -> bool:
    """An ``open(path, mode)`` or ``x.open(mode)`` call whose mode writes
    (or is not a literal), or a ``write_text``/``write_bytes`` call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
    if isinstance(func, ast.Name) and func.id == "open":
        modes += node.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        modes += [
            arg for arg in node.args[:2]
            if isinstance(arg, ast.Constant) and re.fullmatch(r"[rwaxbt+]+", str(arg.value))
        ]
    else:
        return False
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wax+")
        for m in modes
    )


@contextlib.contextmanager
def _fed(fifo, data: bytes):
    """Write ``data`` into the FIFO at ``fifo`` from a thread while the block runs."""

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()


def _saved_checkpoint(path):
    _tiny_model().save(path, vocab_digest="abc")


def _saved_index(path):
    save_index(build_index(_vectors(1)), path)


def _same_checkpoint(a, b):
    assert a[1] == b[1]
    for (name, x), (_, y) in zip(a[0].parameters(), b[0].parameters(), strict=True):
        assert x.data.tobytes() == y.data.tobytes(), name


def _same_index(a, b):
    assert a.doc_names == b.doc_names
    for column in ("terms", "starts", "doc_ids", "impacts"):
        assert getattr(a, column).tobytes() == getattr(b, column).tobytes(), column


# every binary input lsrkit reads: (save to path, load from path, assert two loads equal)
BINARY_INPUTS = [
    pytest.param(_saved_checkpoint, SparseEncoder.load, _same_checkpoint, id="checkpoint"),
    pytest.param(_saved_index, load_index, _same_index, id="index"),
]


@pytest.mark.parametrize("save,load,same", BINARY_INPUTS)
class TestBinaryInputs:
    def test_a_pipe_loads_like_the_file(self, tmp_path, save, load, same):
        path, fifo = tmp_path / "saved", tmp_path / "fifo"
        save(path)
        os.mkfifo(fifo)
        with _fed(fifo, path.read_bytes()):
            piped = load(fifo)
        same(piped, load(path))

    def test_a_pipe_cut_short_fails_like_a_truncated_file(self, tmp_path, save, load, same):
        path, fifo = tmp_path / "saved", tmp_path / "fifo"
        save(path)
        cut = path.read_bytes()[:-3]
        path.write_bytes(cut)
        with pytest.raises(FormatError) as from_file:
            load(path)
        os.mkfifo(fifo)
        with _fed(fifo, cut), pytest.raises(FormatError) as from_pipe:
            load(fifo)
        assert "truncated at offset" in str(from_file.value)
        assert str(from_pipe.value) == str(from_file.value)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_damaged_loads_leave_no_file_open(self, tmp_path, save, load, same):
        path = tmp_path / "saved"
        save(path)
        raw = path.read_bytes()
        rng = np.random.default_rng(35)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            damaged = bytearray(raw[: int(rng.integers(0, len(raw) + 1))])
            if damaged:
                damaged[int(rng.integers(len(damaged)))] ^= int(rng.integers(1, 256))
            text.write_output(path, [bytes(damaged)])  # fresh: truncating in place flushes on close
            try:
                load(path)
            except FormatError:
                pass
        assert len(os.listdir("/proc/self/fd")) == before


def _binary_reads(tree) -> list[str]:
    """Qualified names of the functions that hold an ``open(path, "rb")``,
    ``x.open("rb")`` or ``x.read_bytes()`` call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            if isinstance(func, ast.Name) and func.id == "open":
                modes += node.args[1:2]
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                modes += node.args[:1]
            reads_bytes = isinstance(func, ast.Attribute) and func.attr == "read_bytes"
            if reads_bytes or any(
                isinstance(m, ast.Constant) and isinstance(m.value, str) and "b" in m.value
                and not set(m.value) & set("wax+")
                for m in modes
            ):
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


class TestByteReader:
    MAGIC = b"TEST"

    def reader(self, tmp_path, body=b""):
        path = tmp_path / "artifact.bin"
        path.write_bytes(self.MAGIC + struct.pack("<I", 3) + body)
        return text.ByteReader(path, "artifact", self.MAGIC, 3)

    def test_reads_advance_the_offset(self, tmp_path):
        body = struct.pack("<HQ", 7, 2**40) + b"xyz" + struct.pack("<2d", 1.5, -2.0)
        with self.reader(tmp_path, body) as reader:
            assert reader.offset == 8
            assert reader.unpack("<HQ") == (7, 2**40)
            assert reader.take(3) == b"xyz"
            assert reader.remaining() == 16
            np.testing.assert_array_equal(reader.array("<f8", 2), [1.5, -2.0])
            reader.finish()

    def test_array_is_a_fresh_writable_aligned_array(self, tmp_path):
        with self.reader(tmp_path, bytes(range(5)) + struct.pack("<d", 2.5)) as reader:
            array = reader.array(np.uint8, 4)
            assert array.base is None and array.flags.owndata and array.flags.writeable
            assert array.tolist() == [0, 1, 2, 3] and reader.offset == 12
            reader.take(1)
            floats = reader.array("<f8", 1)  # at offset 13: a view of the bytes would be unaligned
            assert floats.flags.aligned and floats.flags.owndata and floats.tolist() == [2.5]

    def test_file_cut_after_opening_reads_as_truncated(self, tmp_path):
        """A read that comes up short, past what the reader buffered, fails as
        a file that was short from the start would."""
        body = np.arange(4096, dtype="<f8").tobytes()
        with self.reader(tmp_path, body) as reader:
            os.truncate(tmp_path / "artifact.bin", 16)
            with pytest.raises(FormatError, match="artifact truncated at offset 8$"):
                reader.array("<f8", 4096)

    def test_with_block_closes_the_file(self, tmp_path):
        with self.reader(tmp_path) as reader:
            pass
        assert reader._file.closed

    def test_a_pipe_reads_like_the_file(self, tmp_path):
        body = struct.pack("<H", 7) + b"xyz"
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        data = self.MAGIC + struct.pack("<I", 3) + body
        with _fed(fifo, data), text.ByteReader(fifo, "artifact", self.MAGIC, 3) as reader:
            assert reader.remaining() == 5 and reader.unpack("<H") == (7,)
            with pytest.raises(FormatError, match="artifact truncated at offset 10"):
                reader.take(4)
            assert reader.take(3) == b"xyz"
            reader.finish()

    @pytest.mark.parametrize(
        "magic,version,pattern",
        [
            (b"NOPE", 3, r"bad artifact magic at offset 0: b'NOPE'"),
            (b"TE", None, r"bad artifact magic at offset 0: b'TE'"),
            (MAGIC, 4, r"unsupported artifact version 4 at offset 4"),
        ],
    )
    def test_magic_and_version_are_checked_on_open(self, tmp_path, magic, version, pattern):
        path = tmp_path / "artifact.bin"
        path.write_bytes(magic if version is None else magic + struct.pack("<I", version))
        with pytest.raises(FormatError, match=pattern):
            text.ByteReader(path, "artifact", self.MAGIC, 3)

    def test_file_ending_inside_the_version_is_truncated(self, tmp_path):
        path = tmp_path / "artifact.bin"
        path.write_bytes(self.MAGIC + b"\x03\x00")
        with pytest.raises(FormatError, match="artifact truncated at offset 4"):
            text.ByteReader(path, "artifact", self.MAGIC, 3)

    @pytest.mark.parametrize(
        "read",
        [
            lambda r: r.take(4),
            lambda r: r.unpack("<I"),
            lambda r: r.array("<f4", 1),
        ],
        ids=["take", "unpack", "array"],
    )
    def test_read_past_the_end_names_kind_and_offset(self, tmp_path, read):
        with self.reader(tmp_path, b"abc") as reader:
            reader.take(1)
            with pytest.raises(FormatError, match="artifact truncated at offset 9"):
                read(reader)

    def test_failed_read_does_not_move_the_offset(self, tmp_path):
        with self.reader(tmp_path, b"ab") as reader:
            with pytest.raises(FormatError):
                reader.take(3)
            assert reader.offset == 8 and reader.take(2) == b"ab"

    def test_finish_rejects_trailing_bytes(self, tmp_path):
        with self.reader(tmp_path, b"abc") as reader:
            reader.take(1)
            with pytest.raises(FormatError, match="artifact: trailing bytes after offset 9"):
                reader.finish()

    def test_only_byte_reader_opens_files_for_binary_reading(self):
        """Every binary input goes through text.ByteReader, so magic, version,
        bounds and trailing bytes are checked in one place."""
        offenders = [
            f"{file.name}:{name}"
            for file in sorted(Path(text.__file__).parent.glob("*.py"))
            if file.name != "text.py"
            for name in _binary_reads(ast.parse(file.read_text(encoding="utf-8")))
        ]
        assert not offenders, f"binary inputs not read by text.ByteReader: {offenders}"

    def test_scan_finds_binary_reads(self):
        tree = ast.parse(
            "def a(p):\n    open(p, 'rb')\n"
            "class B:\n    def c(self, p):\n        p.open(mode='rb')\n"
            "def d(p):\n    p.read_bytes()\n    open(p, 'wb')\n    open(p)\n"
        )
        assert _binary_reads(tree) == ["a", "B.c", "d"]
