"""End-to-end CLI tests: pipeline equivalences, golden files, exit codes."""

import configparser
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import logging
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toytask
from test_index import column_offset, v1_file
from test_model import drop_field, rewrite_header
from lsrkit import autodiff as ad
from lsrkit import cli, errors, training
from lsrkit.backbones import BackboneConfig, Variant
from lsrkit.cli import main
from lsrkit.heads import HeadKind, SparseVector, read_vectors
from lsrkit.index import build_index, save_index
from lsrkit.model import SparseEncoder
from lsrkit.text import Vocabulary, read_tsv_texts, tokenize
from lsrkit.training import ScoreStats, TrainConfig, normalize_teacher_scores, read_triplets, train

DATA = pathlib.Path(__file__).parent / "data"

# The INI keys the reader's table declares: those that must be given (in a
# section that is present) and those that may be left out.
REQUIRED_KEYS = [
    (section, key) for section, keys in cli._INI.items() for key in keys
    if f"{section}.{key}" not in cli._OPTIONAL
]
OPTIONAL_KEYS = [tuple(name.split(".")) for name in sorted(cli._OPTIONAL) if "." in name]
REQUIRED_SECTIONS = [section for section in cli._INI if section not in cli._OPTIONAL]
TEACHER_STATS = [("teacher_normalization", "mean", "2.0"), ("teacher_normalization", "std", "0.5")]
SHORT_RUN = [("train", "total_steps", "20"), ("train", "warmup_steps", "0"), ("train", "log_every", "5")]


def write_config(tmp_path, **overrides):
    """The committed toy config with [data] paths rewritten for this run.

    ``set`` adds a section it names that is missing; ``drop`` of a key None
    removes the whole section."""
    parser = configparser.ConfigParser()
    parser.read(DATA / "toy.ini")
    parser["data"]["vocab"] = str(DATA / "vocab.txt")
    parser["data"]["triplets"] = str(DATA / "triplets.tsv")
    parser["data"]["checkpoint"] = str(tmp_path / "ckpt.bin")
    parser["data"]["metrics_log"] = str(tmp_path / "metrics.jsonl")
    for section, key, value in overrides.get("set", []):
        if section not in parser:
            parser.add_section(section)
        parser[section][key] = value
    for section, key in overrides.get("drop", []):
        if key is None:
            parser.remove_section(section)
        else:
            del parser[section][key]
    path = tmp_path / "config.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def assert_one_error_line(err: str, command: str) -> None:
    assert err.startswith(f"lsrkit {command}: ") and err.endswith("\n") and err.count("\n") == 1, err


def main_with_stderr(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, where log records print as
    Python's last-resort handler prints them outside pytest."""
    err = io.StringIO()
    handler, logger = logging.StreamHandler(err), logging.getLogger("lsrkit")
    handler.setLevel(logging.WARNING)
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()
    finally:
        logger.removeHandler(handler)


def alternating(value, shape):
    """An array of ``shape`` whose entries are +value and -value in a checkerboard."""
    return np.where(np.indices(shape).sum(axis=0) % 2, -value, value)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Train once on the bundled fixture and run encode/index/search."""
    return toytask.run_pipeline(DATA, tmp_path_factory.mktemp("pipeline"))


class TestFixtureFiles:
    def test_task_files_regenerate_byte_for_byte(self, tmp_path):
        toytask.write_fixture_inputs(tmp_path)
        for name in ("corpus.tsv", "queries.tsv", "qrels.txt", "triplets.tsv", "toy.ini"):
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


class TestBuildVocab:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        for out in (out1, out2):
            assert main(["build-vocab", "--corpus", str(DATA / "corpus.tsv"), "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == (DATA / "vocab.txt").read_bytes()

    def test_doc_name_with_whitespace_exits_5_without_output(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("d1\tcat\ndoc one\tdog\n")
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--corpus", str(corpus), "--output", str(out)]) == 5
        assert capsys.readouterr().err == (
            f"lsrkit build-vocab: {corpus}:2: name 'doc one' is empty or holds whitespace\n"
        )
        assert not out.exists()

    def test_non_utf8_corpus_exits_5_and_names_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(b"d1\tcaf\xe9 au lait\n")
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--corpus", str(corpus), "--output", str(out)]) == 5
        assert "corpus.tsv: not UTF-8 at byte 6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("min_freq", ["-5", "0"])
    def test_min_freq_below_one_exits_2_without_output(self, tmp_path, capsys, min_freq):
        out = tmp_path / "vocab.txt"
        assert main([
            "build-vocab", "--corpus", str(DATA / "corpus.tsv"), "--output", str(out),
            "--min-freq", min_freq,
        ]) == 2
        assert capsys.readouterr().err == f"lsrkit build-vocab: --min-freq must be >= 1, not {min_freq}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["build-vocab", "index"])
def test_empty_output_path_exits_2_and_leaves_the_directory_as_it_was(
    tmp_path, monkeypatch, capsys, command
):
    """The temp file is written, then renaming it onto "" fails: it is removed."""
    monkeypatch.chdir(tmp_path)
    pathlib.Path("docs.vec").write_text("d0\t5:1.0\n")
    before = sorted(os.listdir())
    inputs = {"build-vocab": ["--corpus", str(DATA / "corpus.tsv")], "index": ["--vectors", "docs.vec"]}
    assert main([command, *inputs[command], "--output", ""]) == 2
    assert_one_error_line(capsys.readouterr().err, command)
    assert sorted(os.listdir()) == before


class TestTrainCommand:
    def test_missing_key_exits_2_and_names_it(self, tmp_path, capsys):
        config = write_config(tmp_path, drop=[("train", "learning_rate")])
        assert main(["train", "--config", str(config)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "message", ["", "Unable to allocate 31.0 GiB for an array"], ids=["bare", "numpy"]
    )
    def test_model_too_large_for_memory_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, message
    ):
        def build(cls, *args, **kwargs):  # stands in for a mistyped d_model = 2016
            raise MemoryError(message)

        monkeypatch.setattr(SparseEncoder, "build", classmethod(build))
        assert main(["train", "--config", str(write_config(tmp_path))]) == 2
        assert capsys.readouterr().err == f"lsrkit train: {message or 'out of memory'}\n"
        assert not (tmp_path / "ckpt.bin").exists()

    def test_unknown_variant_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, set=[("backbone", "variant", "bigram_lstm")])
        assert main(["train", "--config", str(config)]) == 2
        assert "variant" in capsys.readouterr().err

    def test_zero_num_heads_exits_2_and_names_it(self, tmp_path, capsys):
        config = write_config(tmp_path, set=[("backbone", "num_heads", "0")])
        assert main(["train", "--config", str(config)]) == 2
        assert "num_heads" in capsys.readouterr().err

    def test_unknown_head_kind_exits_2_and_lists_the_kinds(self, tmp_path, capsys):
        config = write_config(tmp_path, set=[("head", "kind", "splade")])
        assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err.endswith(
            "[head] kind; expected one of mlp, mlm_singletoken, mlm_multitokens\n"
        )

    @pytest.mark.parametrize(
        "section,key", OPTIONAL_KEYS, ids=[key for _, key in OPTIONAL_KEYS]
    )
    def test_malformed_optional_key_exits_2_and_names_it(self, tmp_path, capsys, section, key):
        config = write_config(tmp_path, set=[(section, key, "abc")])
        assert main(["train", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("learning_rate", "nan"), ("lambda_q", "-0.5"), ("lambda_d", "nan"), ("lambda_d", "inf")],
    )
    def test_out_of_range_optimizer_key_exits_2_and_names_it(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, set=[
            ("train", key, value), ("train", "total_steps", "3"), ("train", "warmup_steps", "0"),
        ])
        assert main(["train", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "ckpt.bin").exists()

    def test_zero_log_every_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, set=[("train", "log_every", "0")])
        assert main(["train", "--config", str(config)]) == 2
        assert "log_every" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("seed", "-1"), ("warmup_steps", "-1"), ("lambda_ramp_steps", "0")]
    )
    def test_out_of_range_count_exits_2_and_names_it(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, set=[("train", key, value)])
        assert main(["train", "--config", str(config)]) == 2
        assert f"{key} must be >= " in capsys.readouterr().err
        assert not (tmp_path / "ckpt.bin").exists()

    def test_zero_total_steps_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path, set=[("train", "total_steps", "0"), ("train", "warmup_steps", "0")]
        )
        assert main(["train", "--config", str(config)]) == 2
        assert "total_steps" in capsys.readouterr().err
        assert not (tmp_path / "ckpt.bin").exists()

    @pytest.mark.parametrize(
        "body",
        [
            "total_steps = 3\n[backbone]\nvariant = encoder_only\n",  # key before any section
            "[train]\nseed = 1\nseed = 2\n",  # repeated key
            "[train]\nseed = caf\xe9\n",  # not UTF-8
        ],
        ids=["no-section-header", "repeated-key", "non-utf8"],
    )
    def test_malformed_ini_exits_2_and_names_file(self, tmp_path, capsys, body):
        config = tmp_path / "bad.ini"
        config.write_bytes(body.encode("latin-1"))
        assert main(["train", "--config", str(config)]) == 2
        assert "bad.ini" in capsys.readouterr().err

    def test_bad_interpolation_exits_2_and_names_key(self, tmp_path, capsys):
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("seed = 3\n", "seed = %3\n"))
        assert main(["train", "--config", str(config)]) == 2
        assert "[train] seed" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", REQUIRED_KEYS)
    def test_every_required_key_is_named_when_missing(self, tmp_path, capsys, section, key):
        config = write_config(tmp_path, set=TEACHER_STATS, drop=[(section, key)])
        assert main(["train", "--config", str(config)]) == 2
        assert f"missing config key [{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section", REQUIRED_SECTIONS)
    def test_missing_section_exits_2_and_names_it(self, tmp_path, capsys, section):
        config = write_config(tmp_path, drop=[(section, None)])
        assert main(["train", "--config", str(config)]) == 2
        assert f"missing config section [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["absent.ini", "a_directory"])
    def test_unreadable_config_exits_2_and_names_it(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        assert main(["train", "--config", str(tmp_path / name)]) == 2
        assert f"cannot read config file {tmp_path / name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,named",
        [
            ("head", "poolng", "key [head] poolng"),
            ("train", "lamda_q", "key [train] lamda_q"),
            ("teacher_normalisation", "mean", "section [teacher_normalisation]"),
            ("backbone", "vocab_size", "key [backbone] vocab_size"),
            ("DEFAULT", "seed", "key [DEFAULT] seed"),
            ("train", "beta1", "key [train] beta1"),  # Adam's betas and eps are fixed
            ("train", "beta2", "key [train] beta2"),
            ("train", "eps", "key [train] eps"),
        ],
        ids=["poolng", "lamda_q", "teacher_normalisation", "vocab_size", "DEFAULT",
             "beta1", "beta2", "eps"],
    )
    def test_undeclared_section_or_key_exits_2_before_any_file_is_read(
        self, tmp_path, capsys, monkeypatch, section, key, named
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a data file was read")

        monkeypatch.setattr(Vocabulary, "load", fail)
        monkeypatch.setattr(cli, "read_triplets", fail)
        config = write_config(tmp_path, set=[(section, key, "5")])
        assert main(["train", "--config", str(config)]) == 2
        assert f"unknown config {named}" in capsys.readouterr().err
        assert not (tmp_path / "ckpt.bin").exists() and not (tmp_path / "metrics.jsonl").exists()

    @pytest.mark.parametrize("key", list(cli._INI["data"]))
    def test_nul_in_a_data_path_exits_2_before_any_file_is_read(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a data file was read")

        monkeypatch.setattr(Vocabulary, "load", fail)
        monkeypatch.setattr(cli, "read_triplets", fail)
        config = write_config(tmp_path, set=[("data", key, str(tmp_path / "a\0b"))])
        assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"lsrkit train: NUL character in config key [data] {key}\n"
        assert not (tmp_path / "ckpt.bin").exists() and not (tmp_path / "metrics.jsonl").exists()

    @pytest.mark.parametrize(
        "body",
        ["[train]\ntotal_steps\n", "total_steps = 3\n[backbone]\nvariant = encoder_only\n"],
        ids=["line-without-equals", "no-section-header"],
    )
    def test_multi_line_parser_message_is_one_stderr_line(self, tmp_path, capsys, body):
        config = tmp_path / "bad.ini"
        config.write_text(body)
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, "train")
        assert f"malformed config file {config}: " in err

    @pytest.mark.parametrize("key,value", [("std", "nan"), ("mean", "inf")])
    def test_non_finite_teacher_normalization_exits_2_and_names_key(
        self, tmp_path, capsys, key, value
    ):
        config = write_config(tmp_path)
        stats = {"mean": "0.0", "std": "1.0", key: value}
        with open(config, "a") as fh:
            fh.write("[teacher_normalization]\n" + "".join(f"{k} = {v}\n" for k, v in stats.items()))
        assert main(["train", "--config", str(config)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ckpt.bin").exists()

    def test_optional_keys_take_train_config_defaults(self, tmp_path):
        config = write_config(tmp_path, drop=[("train", "log_every")])
        ini = cli._read_ini(config)
        assert "teacher_normalization" not in ini and ini["head"] == {"kind": HeadKind.MLM_MULTITOKENS}
        train_cfg = TrainConfig(**ini["train"])
        defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        for section, key in OPTIONAL_KEYS:
            if section == "train":
                assert getattr(train_cfg, key) == defaults[key]

    def test_teacher_normalization_trains_on_the_normalized_scores(self, tmp_path):
        logs = {}
        for name, stats in [("plain", []), ("normalized", TEACHER_STATS)]:
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, set=SHORT_RUN + stats)
            assert main(["train", "--config", str(config)]) == 0
            logs[name] = (tmp_path / name / "metrics.jsonl").read_bytes()
        vocab = Vocabulary.load(DATA / "vocab.txt")
        config = BackboneConfig(Variant.ENCDEC_MULTITOKENS, num_layers=1, d_model=16, num_heads=2,
                                vocab_size=len(vocab), max_seq_len=12, seed=11)
        triplets = read_triplets(DATA / "triplets.tsv", vocab, config.max_seq_len)
        train_cfg = TrainConfig(batch_size=16, total_steps=20, learning_rate=0.003, lambda_q=0.02,
                                lambda_d=0.02, lambda_ramp_steps=200, seed=3, log_every=5)
        train(SparseEncoder.build(config, HeadKind.MLM_MULTITOKENS),
              normalize_teacher_scores(triplets, ScoreStats(mean=2.0, std=0.5)), train_cfg,
              metrics_path=tmp_path / "library.jsonl")
        assert logs["normalized"] == (tmp_path / "library.jsonl").read_bytes()
        assert logs["normalized"] != logs["plain"]

    def test_sum_pooling_trains_and_loads_as_sum(self, tmp_path):
        config = write_config(tmp_path, set=[("head", "pooling", "sum")] + SHORT_RUN)
        assert main(["train", "--config", str(config)]) == 0
        model, _ = SparseEncoder.load(tmp_path / "ckpt.bin")
        assert model.head.pooling == "sum"

    @pytest.mark.parametrize(
        "variant,kind", [("encoder_only", "mlp"), ("encdec_singletoken", "mlm_singletoken")]
    )
    def test_sum_pooling_of_a_head_that_never_pools_exits_2(self, tmp_path, capsys, variant, kind):
        head = [("backbone", "variant", variant), ("head", "kind", kind)]
        config = write_config(tmp_path, set=head + [("head", "pooling", "sum")] + SHORT_RUN)
        assert main(["train", "--config", str(config)]) == 2
        assert f"pooling sum needs kind mlm_multitokens, not {kind}" in capsys.readouterr().err
        assert not (tmp_path / "ckpt.bin").exists() and not (tmp_path / "metrics.jsonl").exists()

    @pytest.mark.parametrize("missing", [("checkpoint", "metrics_log"), ("checkpoint",)])
    def test_missing_output_directory_exits_2_before_any_step(
        self, tmp_path, capsys, monkeypatch, missing
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "train_step", fail)
        absent = tmp_path / "absent"
        config = write_config(tmp_path, set=[("data", key, str(absent / key)) for key in missing])
        assert main(["train", "--config", str(config)]) == 2
        assert f"the directory of output {absent / missing[-1]} does not exist" in capsys.readouterr().err
        assert not (tmp_path / "metrics.jsonl").exists() and not absent.exists()

    @pytest.mark.parametrize("key", ["checkpoint", "metrics_log"])
    def test_output_path_that_is_a_directory_exits_2_before_any_step(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "train_step", fail)
        folder = tmp_path / "folder"
        folder.mkdir()
        config = write_config(tmp_path, set=[("data", key, str(folder))])
        assert main(["train", "--config", str(config)]) == 2
        assert f"output {folder} is a directory" in capsys.readouterr().err
        assert not any(folder.iterdir())
        assert not (tmp_path / "metrics.jsonl").exists() and not (tmp_path / "ckpt.bin").exists()

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_teacher_score_exits_5_without_checkpoint(self, tmp_path, capsys, score):
        bad_triplets = tmp_path / "bad.tsv"
        rows = (DATA / "triplets.tsv").read_text().splitlines()
        rows[0] = "\t".join(rows[0].split("\t")[:3] + [score, "1.0"])
        bad_triplets.write_text("\n".join(rows) + "\n")
        config = write_config(
            tmp_path,
            set=[
                ("data", "triplets", str(bad_triplets)),
                ("train", "total_steps", "40"),
                ("train", "warmup_steps", "0"),
            ],
        )
        assert main(["train", "--config", str(config)]) == 5
        assert "bad.tsv:1:" in capsys.readouterr().err
        assert not (tmp_path / "ckpt.bin").exists()

    def test_repeated_seed_identical_checkpoint_digest(self, tmp_path, pipeline):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        d1 = hashlib.sha256((tmp_path / "ckpt.bin").read_bytes()).hexdigest()
        d2 = hashlib.sha256(pipeline["checkpoint"].read_bytes()).hexdigest()
        assert d1 == d2

    def test_non_finite_loss_exits_3_with_diagnostic(self, tmp_path, capsys, recwarn):
        bad_triplets = tmp_path / "bad.tsv"
        rows = (DATA / "triplets.tsv").read_text().splitlines()
        fields = rows[0].split("\t")
        fields[3] = "1e300"  # finite, but the squared margin overflows
        bad_triplets.write_text("\t".join(fields) + "\n")
        config = write_config(
            tmp_path,
            set=[("data", "triplets", str(bad_triplets)), ("train", "batch_size", "1")],
        )
        assert main(["train", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "margin_loss" in err or "loss" in err
        # The typed diagnostic is the only report: numpy warns of nothing.
        assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


class TestEncodeCommand:
    def test_matches_library_encode(self, pipeline):
        model, _ = SparseEncoder.load(pipeline["checkpoint"])
        vocab = Vocabulary.load(DATA / "vocab.txt")
        corpus = read_tsv_texts(DATA / "corpus.tsv")
        encoded = dict(read_vectors(pipeline["docs_vec"]))
        max_len = model.backbone.config.max_seq_len
        for name, text in corpus.items():
            direct = model.encode(tokenize(vocab, text, max_len))
            # the vector file rounds weights to 6 decimals
            assert set(encoded[name].entries) == set(direct.entries)
            for term, weight in direct.entries.items():
                assert abs(encoded[name].entries[term] - weight) <= 5e-7

    def test_same_input_identical_bytes(self, pipeline, tmp_path):
        out = tmp_path / "again.vec"
        assert main([
            "encode", "--checkpoint", str(pipeline["checkpoint"]), "--vocab", str(DATA / "vocab.txt"),
            "--input", str(DATA / "corpus.tsv"), "--output", str(out), "--role", "doc",
        ]) == 0
        assert out.read_bytes() == pipeline["docs_vec"].read_bytes()

    def test_empty_input_empty_output(self, pipeline, tmp_path):
        empty_in = tmp_path / "empty.tsv"
        empty_in.write_text("")
        out = tmp_path / "empty.vec"
        assert main([
            "encode", "--checkpoint", str(pipeline["checkpoint"]), "--vocab", str(DATA / "vocab.txt"),
            "--input", str(empty_in), "--output", str(out), "--role", "query",
        ]) == 0
        assert out.read_bytes() == b""

    def test_record_without_tokens_exits_2_naming_role_and_record(self, pipeline, tmp_path, capsys):
        docs, out = tmp_path / "docs.tsv", tmp_path / "x.vec"
        docs.write_text("d1\tthe cat\nd2\t... !!\n")
        assert main([
            "encode", "--checkpoint", str(pipeline["checkpoint"]), "--vocab", str(DATA / "vocab.txt"),
            "--input", str(docs), "--output", str(out), "--role", "doc",
        ]) == 2
        assert "doc 'd2' tokenizes to zero tokens" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("role,line", [("query", "q 1\tcat"), ("doc", "\tcat")])
    def test_name_a_run_file_cannot_hold_exits_5_without_output(
        self, pipeline, tmp_path, capsys, role, line
    ):
        records, out = tmp_path / "in.tsv", tmp_path / "x.vec"
        records.write_text(f"r1\tdog\n{line}\n")
        assert main([
            "encode", "--checkpoint", str(pipeline["checkpoint"]), "--vocab", str(DATA / "vocab.txt"),
            "--input", str(records), "--output", str(out), "--role", role,
        ]) == 5
        err = capsys.readouterr().err
        assert_one_error_line(err, "encode")
        assert f"in.tsv:2: name {line.split(chr(9))[0]!r} is empty or holds whitespace" in err
        assert not out.exists()

    def test_vocab_digest_mismatch_exits_4(self, pipeline, tmp_path):
        other_vocab = tmp_path / "other_vocab.txt"
        other_vocab.write_text("completely\ndifferent\ntokens\n")
        assert main([
            "encode", "--checkpoint", str(pipeline["checkpoint"]), "--vocab", str(other_vocab),
            "--input", str(DATA / "corpus.tsv"), "--output", str(tmp_path / "x.vec"), "--role", "doc",
        ]) == 4

    def test_vocab_size_mismatch_without_digest_exits_4(self, tmp_path, capsys):
        config = BackboneConfig(Variant.ENCODER_ONLY, num_layers=1, d_model=8, num_heads=2,
                                vocab_size=40, max_seq_len=8)
        checkpoint = tmp_path / "no_digest.ckpt"
        SparseEncoder.build(config, HeadKind.MLM_MULTITOKENS).save(checkpoint)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("alpha\nbeta\n")
        docs = tmp_path / "docs.tsv"
        docs.write_text("d1\talpha beta\n")
        out = tmp_path / "x.vec"
        assert main([
            "encode", "--checkpoint", str(checkpoint), "--vocab", str(vocab),
            "--input", str(docs), "--output", str(out), "--role", "doc",
        ]) == 4
        assert "vocabulary has 6 ids but the checkpoint's vocab_size is 40" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _attention_poisoned(params):
        params["backbone.enc.0.attn.wq"].data[:] = 1e300
        params["backbone.enc.0.attn.wk"].data[:] = 1e300

    @staticmethod
    def _ffn_poisoned(params):
        w2 = params["backbone.enc.0.ffn.w2"].data
        w2[:] = alternating(1e300, w2.shape)

    @pytest.mark.parametrize("poison", [_attention_poisoned, _ffn_poisoned], ids=["attention", "ffn"])
    def test_overflow_exits_3_with_one_line(self, tmp_path, capsys, poison):
        assert self._encode_poisoned(tmp_path, DATA / "vocab.txt", poison) == 3
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "encode")
        assert captured.out == ""
        assert not (tmp_path / "x.vec").exists()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_overflow_in_a_vocabulary_block_exits_3_on_any_thread(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        """|V| = 3,000 is two head blocks; the unused rows past 1,500 all lie
        in the second, which the head scores in the calling thread whatever
        the CPU count."""
        vocab = tmp_path / "vocab.txt"
        fillers = 3000 - len(Vocabulary.load(DATA / "vocab.txt"))
        vocab.write_text((DATA / "vocab.txt").read_text() + "".join(f"zzfill{i}\n" for i in range(fillers)))

        def poison(params):
            emb = params["backbone.tok_emb"].data
            emb[1500:] = alternating(1.5e308, emb[1500:].shape)

        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(ad, "_CPUS", cpus)
            monkeypatch.setattr(ad, "_POOL", pool if cpus > 1 else None)
            assert self._encode_poisoned(tmp_path, vocab, poison) == 3
        assert_one_error_line(capsys.readouterr().err, "encode")
        assert not (tmp_path / "x.vec").exists()

    @staticmethod
    def _encode_poisoned(tmp_path, vocab, poison) -> int:
        """Exit code of encoding the corpus with a one-layer, d=16 encoder-only
        MLM model for ``vocab`` whose parameters ``poison`` rewrote."""
        config = BackboneConfig(Variant.ENCODER_ONLY, num_layers=1, d_model=16, num_heads=2,
                                vocab_size=len(Vocabulary.load(vocab)), max_seq_len=12)
        model = SparseEncoder.build(config, HeadKind.MLM_MULTITOKENS)
        poison(dict(model.parameters()))
        model.save(tmp_path / "poisoned.ckpt")
        return main([
            "encode", "--checkpoint", str(tmp_path / "poisoned.ckpt"), "--vocab", str(vocab),
            "--input", str(DATA / "corpus.tsv"), "--output", str(tmp_path / "x.vec"), "--role", "doc",
        ])

    def test_bad_checkpoint_header_exits_5(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        shutil.copyfile(pipeline["checkpoint"], bad)
        rewrite_header(bad, drop_field("backbone", "seed"))
        assert main([
            "encode", "--checkpoint", str(bad), "--vocab", str(DATA / "vocab.txt"),
            "--input", str(DATA / "corpus.tsv"), "--output", str(tmp_path / "x.vec"), "--role", "doc",
        ]) == 5
        assert "seed" in capsys.readouterr().err


class TestIndexCommand:
    def test_term_id_past_u32_exits_5_without_output(self, tmp_path, capsys):
        vectors = tmp_path / "docs.vec"
        vectors.write_text("d\t4294967296:1.0\n")
        out = tmp_path / "index.lsrx"
        assert main(["index", "--vectors", str(vectors), "--output", str(out)]) == 5
        assert "4294967296" in capsys.readouterr().err
        assert not out.exists()

    def test_weight_past_float32_range_exits_2_naming_doc_and_term(self, tmp_path, capsys):
        vectors = tmp_path / "docs.vec"
        vectors.write_text("d0\t5:1.0\nd1\t3:0.5 5:1e300\n")
        out = tmp_path / "index.lsrx"
        assert main(["index", "--vectors", str(vectors), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, "index")
        assert "doc 'd1': weight 1e+300 of term 5 overflows float32" in err
        assert not out.exists()

    def test_quantize8_is_no_longer_an_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["index", "--vectors", "docs.vec", "--output", "index.lsrx", "--quantize8"])
        assert exc.value.code == 2

    def test_non_utf8_vector_file_exits_5_without_output(self, tmp_path, capsys):
        vectors = tmp_path / "docs.vec"
        vectors.write_bytes(b"d1\t3:0.5\nd\xff\t4:1.0\n")
        out = tmp_path / "index.lsrx"
        assert main(["index", "--vectors", str(vectors), "--output", str(out)]) == 5
        assert "docs.vec: not UTF-8 at byte 10" in capsys.readouterr().err
        assert not out.exists()

    def test_doc_name_with_whitespace_exits_5_without_output(self, tmp_path, capsys):
        vectors = tmp_path / "docs.vec"
        vectors.write_text("d1\t3:0.5\ndoc one\t4:1.0\n")
        out = tmp_path / "index.lsrx"
        assert main(["index", "--vectors", str(vectors), "--output", str(out)]) == 5
        assert "docs.vec:2: name 'doc one' is empty or holds whitespace" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_doc_name_exits_5_and_names_line(self, tmp_path, capsys):
        vectors = tmp_path / "docs.vec"
        vectors.write_text("d1\t3:0.5\nd2\t4:1.0\nd1\t5:1.0\n")
        out = tmp_path / "index.lsrx"
        assert main(["index", "--vectors", str(vectors), "--output", str(out)]) == 5
        assert "docs.vec:3: duplicate name 'd1'" in capsys.readouterr().err
        assert not out.exists()


class TestSearchCommand:
    def test_golden_run_reproduced_byte_for_byte(self, pipeline):
        assert pipeline["run"].read_bytes() == (DATA / "golden_run.txt").read_bytes()

    def test_k_bounds_lines_per_query(self, pipeline):
        lines = pipeline["run"].read_text().splitlines()
        per_query = {}
        for line in lines:
            qid = line.split()[0]
            per_query[qid] = per_query.get(qid, 0) + 1
        assert all(count <= 10 for count in per_query.values())

    def test_corrupt_index_exits_5(self, pipeline, tmp_path):
        bad = tmp_path / "bad.lsrx"
        raw = bytearray(pipeline["index"].read_bytes())
        raw[:4] = b"JUNK"
        bad.write_bytes(bytes(raw))
        assert main([
            "search", "--index", str(bad), "--queries", str(pipeline["queries_vec"]),
            "--output", str(tmp_path / "r.txt"),
        ]) == 5

    def test_nan_impact_exits_5(self, pipeline, tmp_path, capsys):
        raw = bytearray(pipeline["index"].read_bytes())
        struct.pack_into("<f", raw, column_offset(raw, "impacts"), np.nan)  # first list's first
        bad = tmp_path / "nan.lsrx"
        bad.write_bytes(bytes(raw))
        assert main([
            "search", "--index", str(bad), "--queries", str(pipeline["queries_vec"]),
            "--output", str(tmp_path / "r.txt"),
        ]) == 5
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("impact_format", [0, 1], ids=["f32", "8-bit"])
    def test_v1_index_exits_5_without_a_run(self, pipeline, tmp_path, capsys, impact_format):
        old = tmp_path / "old.lsrx"
        old.write_bytes(v1_file(impact_format))
        out = tmp_path / "r.txt"
        assert main([
            "search", "--index", str(old), "--queries", str(pipeline["queries_vec"]),
            "--output", str(out),
        ]) == 5
        err = capsys.readouterr().err
        assert_one_error_line(err, "search")
        assert "unsupported index version 1" in err
        assert not out.exists()

    def test_repeated_query_name_exits_5_without_output(self, pipeline, tmp_path, capsys):
        queries = tmp_path / "queries.vec"
        lines = pipeline["queries_vec"].read_text().splitlines()
        queries.write_text("\n".join(lines + lines[:1]) + "\n")
        out = tmp_path / "r.txt"
        assert main([
            "search", "--index", str(pipeline["index"]), "--queries", str(queries),
            "--output", str(out),
        ]) == 5
        name = lines[0].split("\t")[0]
        assert f"queries.vec:{len(lines) + 1}: duplicate name {name!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_score_exits_3_without_a_run(self, tmp_path, capsys):
        docs, queries = tmp_path / "docs.vec", tmp_path / "queries.vec"
        docs.write_text("d1\t3:10.0 4:1.0\nd2\t4:2.0\n")
        queries.write_text("q1\t3:1e308 4:1.0\n")
        index, run = tmp_path / "index.lsrx", tmp_path / "run.txt"
        assert main(["index", "--vectors", str(docs), "--output", str(index)]) == 0
        capsys.readouterr()
        assert main(["search", "--index", str(index), "--queries", str(queries), "--output", str(run)]) == 3
        assert_one_error_line(capsys.readouterr().err, "search")
        assert not run.exists()

    def test_doc_name_with_a_space_exits_2_and_keeps_the_old_run(self, tmp_path, capsys):
        # `lsrkit index` refuses such a name, so the index is saved by the library.
        queries, index, out = tmp_path / "queries.vec", tmp_path / "index.lsrx", tmp_path / "run.txt"
        docs = [("d1", SparseVector({4: 1.0})), ("d one", SparseVector({4: 0.5}))]
        save_index(build_index(docs), index)
        queries.write_text("q1\t4:1.0\n")
        out.write_text("q1 Q0 d1 1 1.000000 old\n")
        assert main([
            "search", "--index", str(index), "--queries", str(queries), "--output", str(out),
        ]) == 2
        assert "run doc name 'd one' is empty or holds whitespace" in capsys.readouterr().err
        assert out.read_text() == "q1 Q0 d1 1 1.000000 old\n"


    def test_negative_k_exits_2_without_a_run(self, pipeline, tmp_path, capsys):
        queries, out = tmp_path / "queries.vec", tmp_path / "run.txt"
        queries.write_text("")
        assert main([
            "search", "--index", str(pipeline["index"]), "--queries", str(queries),
            "--output", str(out), "--k", "-1",
        ]) == 2
        assert capsys.readouterr().err == "lsrkit search: --k must be >= 0, not -1\n"
        assert not out.exists()


class TestEvalCommand:
    def test_metrics_printed_as_tab_separated_lines(self, pipeline, capsys):
        assert main([
            "eval", "--run", str(pipeline["run"]), "--qrels", str(DATA / "qrels.txt"),
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        names = [line.split("\t")[0] for line in out]
        assert names == ["MRR@10", "nDCG@10", "Recall@1000"]
        values = [float(line.split("\t")[1]) for line in out]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_perfect_run_scores_mrr_one(self, tmp_path, capsys):
        run = tmp_path / "run.txt"
        qrels = tmp_path / "qrels.txt"
        run.write_text("q1 Q0 good 1 2.000000 t\nq1 Q0 bad 2 1.000000 t\n")
        qrels.write_text("q1 0 good 1\n")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 0
        out = capsys.readouterr().out
        assert "MRR@10\t1.000000" in out

    def test_non_utf8_qrels_exits_5(self, tmp_path, capsys):
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run.write_text("q1 Q0 d1 1 2.000000 t\n")
        qrels.write_bytes(b"q1 0 d1 1\nq1 0 d\xff 0\n")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 5
        assert "qrels.txt: not UTF-8 at byte 16" in capsys.readouterr().err

    def test_cutoff_below_one_exits_2(self, tmp_path, capsys):
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run.write_text("q1 Q0 good 1 2.000000 t\nq1 Q0 bad 2 1.000000 t\n")
        qrels.write_text("q1 0 good 1\n")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--mrr-k", "-1"]) == 2
        captured = capsys.readouterr()
        assert "k must be >= 1" in captured.err
        assert captured.out == ""

    def test_grade_without_finite_gain_exits_5_and_names_line(self, tmp_path, capsys):
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run.write_text("q1 Q0 d1 1 2.000000 t\n")
        qrels.write_text("q1 0 d1 1023\nq1 0 d2 1024\n")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 5
        captured = capsys.readouterr()
        assert "qrels.txt:2: relevance 1024" in captured.err
        assert captured.out == ""

    def test_overflowing_ndcg_exits_3(self, tmp_path, capsys):
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run.write_text("".join(f"q1 Q0 d{i} {i} {9 - i}.000000 t\n" for i in (1, 2, 3)))
        qrels.write_text("".join(f"q1 0 d{i} 1023\n" for i in (1, 2, 3)))
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 3
        captured = capsys.readouterr()
        assert "nDCG@10 is not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("judgments, error", [
        ("", "no run query has judgments"),
        ("q1 0 good 0\n", "no evaluated query has a relevant document"),
    ])
    def test_error_after_skipped_queries_is_the_only_stderr_line(self, tmp_path, judgments, error):
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run.write_text("q1 Q0 good 1 2.000000 t\nq2 Q0 d 1 1.000000 t\n")
        qrels.write_text(judgments)
        assert main_with_stderr(["eval", "--run", str(run), "--qrels", str(qrels)]) == (
            2, f"lsrkit eval: {error}\n"
        )

    def test_skipped_queries_are_reported_once(self, tmp_path, capsys, caplog):
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run.write_text("q1 Q0 good 1 2.000000 t\nq2 Q0 d 1 1.000000 t\n")
        qrels.write_text("q1 0 good 1\n")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 0
        assert "MRR@10\t1.000000" in capsys.readouterr().out
        assert [r.getMessage() for r in caplog.records] == ["skipped 1 run queries without judgments"]

    def test_trained_model_beats_chance_on_fixture(self, pipeline, capsys):
        assert main([
            "eval", "--run", str(pipeline["run"]), "--qrels", str(DATA / "qrels.txt"),
        ]) == 0
        mrr_line = capsys.readouterr().out.splitlines()[0]
        assert float(mrr_line.split("\t")[1]) > 0.5


def assert_documented_exit(argv) -> None:
    """``main(argv)`` exits with a code the CLI documents, stderr is empty on
    success and one ``lsrkit <command>: `` line otherwise, and no exception
    escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert_one_error_line(err.getvalue(), argv[0])


def fuzz_base_ini() -> str:
    """toy.ini cut to 3 steps, its [data] paths relative to the working directory."""
    parser = configparser.ConfigParser()
    parser.read(DATA / "toy.ini")
    parser["train"].update(total_steps="3", warmup_steps="1")
    parser["data"].update(vocab="vocab.txt", triplets="triplets.tsv",
                          checkpoint="ckpt.bin", metrics_log="metrics.jsonl")
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


FUZZ_INI = fuzz_base_ini()
# A byte edit of the INI: drop the byte at a position, truncate there, or insert.
INI_EDITS = st.tuples(
    st.sampled_from(["drop", "truncate", "insert"]),
    st.integers(0, len(FUZZ_INI)),
    st.sampled_from([*"=[]\n\t\0-.0123456789eE", "nan", "inf", "1e309"]),
)


class TestTrainIniFuzz:
    @settings(derandomize=True, deadline=None, max_examples=1000, database=None)
    @given(edits=st.lists(INI_EDITS, min_size=1, max_size=3))
    def test_edited_ini_exits_with_a_code_and_at_most_one_stderr_line(self, edits):
        """The exit code is one the command documents, stderr is empty on
        success and one line otherwise, and no exception escapes ``main``."""
        body = FUZZ_INI
        for kind, at, insert in edits:
            at = min(at, len(body))
            if kind == "drop":
                body = body[:at] + body[at + 1:]
            elif kind == "truncate":
                body = body[:at]
            else:
                body = body[:at] + insert + body[at:]
        # Inserted digits could grow a size (d_model 16 to 2016) past what memory holds.
        assume(all(len(digits) <= 3 for digits in re.findall(r"\d+", body)))
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            # Relative paths, and inserts without "/", keep every output in tmp.
            os.chdir(tmp)
            try:
                shutil.copy(DATA / "vocab.txt", "vocab.txt")
                shutil.copy(DATA / "triplets.tsv", "triplets.tsv")
                pathlib.Path("config.ini").write_bytes(body.encode())
                assert_documented_exit(["train", "--config", "config.ini"])
            finally:
                os.chdir(cwd)


class TestFlopsCommand:
    def test_prints_value(self, pipeline, capsys):
        assert main([
            "flops", "--index", str(pipeline["index"]), "--queries", str(pipeline["queries_vec"]),
        ]) == 0
        line = capsys.readouterr().out.strip()
        name, value = line.split("\t")
        assert name == "FLOPs"
        assert float(value) >= 0.0


# What --index and --queries are drawn as: the pipeline's own file, a cut or
# a byte-flipped copy of it, an empty file, a directory, no file at all, or
# a version-1 index.
FILE_KINDS = ["valid", "truncated", "flipped", "empty", "directory", "missing", "v1"]


def draw_file(data, path, raw, label):
    kind = data.draw(st.sampled_from(FILE_KINDS), label=label)
    if kind == "directory":
        path.mkdir()
    elif kind == "truncated":
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label=f"{label} keep")])
    elif kind == "flipped":
        body = bytearray(raw)
        flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
        for position, mask in data.draw(st.lists(flips, min_size=1, max_size=3), label=f"{label} flips"):
            body[position] ^= mask
        path.write_bytes(bytes(body))
    elif kind != "missing":
        path.write_bytes({"valid": raw, "empty": b"", "v1": v1_file(0)}[kind])


class TestSearchAndFlopsFuzz:
    @settings(derandomize=True, deadline=None, max_examples=1000, database=None)
    @given(command=st.sampled_from(["search", "flops"]), data=st.data())
    def test_damaged_inputs_exit_with_a_code_and_at_most_one_stderr_line(
        self, pipeline, command, data
    ):
        """Whatever the index and query files hold, or whether they exist,
        the exit code is one the command documents, stderr is empty on
        success and one line otherwise, and no exception escapes ``main``."""
        with tempfile.TemporaryDirectory() as tmp:
            index, queries = pathlib.Path(tmp, "index.lsrx"), pathlib.Path(tmp, "queries.vec")
            draw_file(data, index, pipeline["index"].read_bytes(), "index")
            draw_file(data, queries, pipeline["queries_vec"].read_bytes(), "queries")
            argv = [command, "--index", str(index), "--queries", str(queries)]
            if command == "search":
                argv += ["--output", str(pathlib.Path(tmp, "run.txt"))]
            assert_documented_exit(argv)


class TestIndexFuzz:
    @settings(derandomize=True, deadline=None, max_examples=1000, database=None)
    @given(data=st.data())
    def test_damaged_vectors_exit_with_a_code_and_at_most_one_stderr_line(self, pipeline, data):
        """Whatever the vector file holds, or whether it exists, `lsrkit index`
        exits with a documented code, stderr is empty on success and one line
        otherwise, and no exception escapes ``main``."""
        with tempfile.TemporaryDirectory() as tmp:
            vectors = pathlib.Path(tmp, "docs.vec")
            draw_file(data, vectors, pipeline["docs_vec"].read_bytes(), "vectors")
            assert_documented_exit(
                ["index", "--vectors", str(vectors), "--output", str(pathlib.Path(tmp, "i.lsrx"))]
            )


class TestEncodeFuzz:
    @settings(derandomize=True, deadline=None, max_examples=1000, database=None)
    @given(role=st.sampled_from(["query", "doc"]), data=st.data())
    def test_damaged_inputs_exit_with_a_code_and_at_most_one_stderr_line(self, pipeline, role, data):
        """Whatever the checkpoint, vocabulary and input files hold, or whether
        they exist, `lsrkit encode` exits with a documented code, stderr is
        empty on success and one line otherwise, and no exception escapes."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = [pathlib.Path(tmp, name) for name in ("ckpt.bin", "vocab.txt", "in.tsv")]
            sources = [pipeline["checkpoint"], DATA / "vocab.txt",
                       DATA / ("queries.tsv" if role == "query" else "corpus.tsv")]
            for path, source, label in zip(paths, sources, ("checkpoint", "vocab", "input")):
                draw_file(data, path, source.read_bytes(), label)
            assert_documented_exit([
                "encode", "--checkpoint", str(paths[0]), "--vocab", str(paths[1]),
                "--input", str(paths[2]), "--output", str(pathlib.Path(tmp, "x.vec")), "--role", role,
            ])


class TestBuildVocabFuzz:
    @settings(derandomize=True, deadline=None, max_examples=1000, database=None)
    @given(data=st.data())
    def test_damaged_corpus_exits_with_a_code_and_at_most_one_stderr_line(self, data):
        """Whatever the corpus file holds, or whether it exists, `lsrkit
        build-vocab` exits with a documented code, stderr is empty on success
        and one line otherwise, and no exception escapes ``main``."""
        with tempfile.TemporaryDirectory() as tmp:
            corpus = pathlib.Path(tmp, "corpus.tsv")
            draw_file(data, corpus, (DATA / "corpus.tsv").read_bytes(), "corpus")
            assert_documented_exit(
                ["build-vocab", "--corpus", str(corpus), "--output", str(pathlib.Path(tmp, "v.txt"))]
            )


class TestTrainDataFuzz:
    @settings(derandomize=True, deadline=None, max_examples=800, database=None)
    @given(data=st.data())
    def test_damaged_data_files_exit_with_a_code_and_at_most_one_stderr_line(self, data):
        """Whatever the vocabulary and triplet files of a 2-step `lsrkit train`
        hold, or whether they exist, it exits with a documented code, stderr
        is empty on success and one line otherwise, and no exception escapes."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            for key, source in (("vocab", "vocab.txt"), ("triplets", "triplets.tsv")):
                draw_file(data, tmp / source, (DATA / source).read_bytes(), key)
            config = write_config(tmp, set=[
                ("data", "vocab", str(tmp / "vocab.txt")), ("data", "triplets", str(tmp / "triplets.tsv")),
                ("train", "total_steps", "2"), ("train", "warmup_steps", "1"), ("train", "batch_size", "4"),
            ])
            assert_documented_exit(["train", "--config", str(config)])


class TestEvalFuzz:
    @settings(derandomize=True, deadline=None, max_examples=1000, database=None)
    @given(data=st.data())
    def test_damaged_run_and_qrels_exit_with_a_code_and_at_most_one_stderr_line(self, data):
        """Whatever the run and qrels files hold, or whether they exist,
        `lsrkit eval` exits with a documented code, no exception escapes
        ``main``, and stderr is one line on failure and at most the skip
        warning on success."""
        with tempfile.TemporaryDirectory() as tmp:
            run, qrels = pathlib.Path(tmp, "run.txt"), pathlib.Path(tmp, "qrels.txt")
            draw_file(data, run, (DATA / "golden_run.txt").read_bytes(), "run")
            draw_file(data, qrels, (DATA / "qrels.txt").read_bytes(), "qrels")
            code, err = main_with_stderr(["eval", "--run", str(run), "--qrels", str(qrels)])
        assert code in (0, 2, 3, 4, 5)
        if code == 0:
            assert re.fullmatch(r"(skipped \d+ run queries without judgments\n)?", err)
        else:
            assert_one_error_line(err, "eval")


GRADCHECK_ROWS = [
    "linear_x", "linear_w", "linear_b", "add", "sub", "mul", "scale", "relu", "log1p_relu",
    "gather_rows", "transpose", "concat_rows", "sum_all", "sum_over_axis",
    "layer_norm_x", "layer_norm_gain", "scatter_add_pairs", "segment_max", "segment_sum",
] + [f"attention_{layout}_{part}" for layout in ("packed", "causal", "cross") for part in "qkv"]


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [row[0] for row in rows] == GRADCHECK_ROWS
        assert len(GRADCHECK_ROWS) == 28
        assert all(len(row) == 3 and row[2] == "ok" for row in rows)

    def test_negative_seed_exits_2_and_names_it(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "lsrkit gradcheck: --seed must be >= 0, not -1\n"


LSR_ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.LsrError) and cls is not errors.LsrError
]


class TestExitCodes:
    @pytest.mark.parametrize("error", LSR_ERRORS + [OSError], ids=lambda cls: cls.__name__)
    def test_each_error_type_exits_with_its_documented_code(self, error, monkeypatch, capsys):
        def stub(args):
            raise error("stub failure")

        monkeypatch.setattr(cli, "_cmd_gradcheck", stub)
        documented = {errors.FormatError: 5, errors.CompatibilityError: 4, errors.NumericError: 3}
        assert main(["gradcheck"]) == documented.get(error, 2)
        assert capsys.readouterr().err == "lsrkit gradcheck: stub failure\n"


class TestIntegerFlagBounds:
    @pytest.mark.parametrize("flag, floor", cli._FLOORS.items())
    def test_floor_minus_one_exits_2_and_the_floor_and_huge_values_exit_0(
        self, pipeline, tmp_path, flag, floor
    ):
        command = {
            "--min-freq": ["build-vocab", "--corpus", str(DATA / "corpus.tsv"), "--output", str(tmp_path / "v.txt")],
            "--seed": ["gradcheck"],
            "--k": [
                "search", "--index", str(pipeline["index"]), "--queries", str(pipeline["queries_vec"]),
                "--output", str(tmp_path / "run.txt"),
            ],
        }.get(flag, ["eval", "--run", str(DATA / "golden_run.txt"), "--qrels", str(DATA / "qrels.txt")])
        for value in (floor - 1, floor, 2**31, 2**63, 2**64):
            code, err = main_with_stderr(command + [flag, str(value)])
            if value < floor:
                assert code == 2
                assert_one_error_line(err, command[0])
                assert flag in err
            else:
                assert (code, err) == (0, ""), value


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lsrkit", "gradcheck", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lsrkit", "no-such-command"],
            capture_output=True,
        )
        assert proc.returncode == 2


class TestBenchmarkSmoke:
    @pytest.mark.parametrize("workload", ["encode-long", "train-variants"])
    def test_run_exits_zero_and_correct(self, workload):
        """A short benchmark run: exit 0 and outputs that match expected.json."""
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=DATA.parents[1],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
