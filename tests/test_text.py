"""Tokenizer, vocabulary, corpus-file and record-reader tests."""

import pytest

from reference import write_tsv_texts
from lsrkit import text
from lsrkit.errors import FormatError
from lsrkit.evaluation import read_qrels, read_run
from lsrkit.heads import read_vectors
from lsrkit.text import NUM_SPECIALS, PAD_ID, START_ID, UNK_ID, Vocabulary, build_vocab, tokenize
from lsrkit.training import read_triplets


class TestBuildVocab:
    def test_min_freq_filters(self):
        vocab = build_vocab({"d1": "a a b"}, min_freq=2)
        assert "a" in vocab
        assert "b" not in vocab

    def test_reserved_ids_always_present(self):
        vocab = build_vocab({"d1": "x"}, min_freq=5)
        assert len(vocab) == NUM_SPECIALS
        assert vocab.token_of(PAD_ID) == "<pad>"
        assert vocab.token_of(START_ID) == "<s>"
        assert vocab.token_of(UNK_ID) == "<unk>"

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
        assert tokenize(vocab, "Hello, world") == [
            vocab.id_of("hello"),
            vocab.id_of("world"),
        ]

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary(["known"])
        assert tokenize(vocab, "mystery") == [UNK_ID]

    def test_truncation(self):
        vocab = Vocabulary(["w"])
        ids = tokenize(vocab, " ".join(["w"] * 200), max_len=64)
        assert len(ids) == 64
        assert ids == [vocab.id_of("w")] * 64

    def test_empty_text_gives_no_tokens(self):
        vocab = Vocabulary([])
        assert tokenize(vocab, "   ... ") == []

    def test_ids_always_below_vocab_size(self):
        vocab = build_vocab({"d": "some words here"})
        ids = tokenize(vocab, "some unseen words !!!")
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
            assert vocab.token_of(tid) == token
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
