"""End-to-end CLI tests: pipeline equivalences, golden files, exit codes."""

import configparser
import hashlib
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from test_model import drop_field, rewrite_header
from lsrkit.cli import main
from lsrkit.heads import read_vectors
from lsrkit.model import SparseEncoder
from lsrkit.text import Vocabulary, read_tsv_texts, tokenize

DATA = pathlib.Path(__file__).parent / "data"


def write_config(tmp_path, **overrides):
    """The committed toy config with [data] paths rewritten for this run."""
    parser = configparser.ConfigParser()
    parser.read(DATA / "toy.ini")
    parser["data"]["vocab"] = str(DATA / "vocab.txt")
    parser["data"]["triplets"] = str(DATA / "triplets.tsv")
    parser["data"]["checkpoint"] = str(tmp_path / "ckpt.bin")
    parser["data"]["metrics_log"] = str(tmp_path / "metrics.jsonl")
    for section, key, value in overrides.get("set", []):
        parser[section][key] = value
    for section, key in overrides.get("drop", []):
        del parser[section][key]
    path = tmp_path / "config.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Train once on the bundled fixture and run encode/index/search."""
    tmp = tmp_path_factory.mktemp("pipeline")
    assert main(["train", "--config", str(write_config(tmp))]) == 0
    paths = {
        "checkpoint": tmp / "ckpt.bin",
        "metrics": tmp / "metrics.jsonl",
        "docs_vec": tmp / "docs.vec",
        "queries_vec": tmp / "queries.vec",
        "index": tmp / "index.lsrx",
        "run": tmp / "run.txt",
        "tmp": tmp,
    }
    assert main([
        "encode", "--checkpoint", str(paths["checkpoint"]), "--vocab", str(DATA / "vocab.txt"),
        "--input", str(DATA / "corpus.tsv"), "--output", str(paths["docs_vec"]), "--role", "doc",
    ]) == 0
    assert main([
        "encode", "--checkpoint", str(paths["checkpoint"]), "--vocab", str(DATA / "vocab.txt"),
        "--input", str(DATA / "queries.tsv"), "--output", str(paths["queries_vec"]), "--role", "query",
    ]) == 0
    assert main(["index", "--vectors", str(paths["docs_vec"]), "--output", str(paths["index"])]) == 0
    assert main([
        "search", "--index", str(paths["index"]), "--queries", str(paths["queries_vec"]),
        "--output", str(paths["run"]), "--k", "10", "--tag", "lsrkit-toy",
    ]) == 0
    return paths


class TestBuildVocab:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        for out in (out1, out2):
            assert main(["build-vocab", "--corpus", str(DATA / "corpus.tsv"), "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == (DATA / "vocab.txt").read_bytes()


class TestTrainCommand:
    def test_missing_key_exits_2_and_names_it(self, tmp_path, capsys):
        config = write_config(tmp_path, drop=[("train", "learning_rate")])
        assert main(["train", "--config", str(config)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_unknown_variant_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, set=[("backbone", "variant", "bigram_lstm")])
        assert main(["train", "--config", str(config)]) == 2
        assert "variant" in capsys.readouterr().err

    def test_repeated_seed_identical_checkpoint_digest(self, tmp_path, pipeline):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        d1 = hashlib.sha256((tmp_path / "ckpt.bin").read_bytes()).hexdigest()
        d2 = hashlib.sha256(pipeline["checkpoint"].read_bytes()).hexdigest()
        assert d1 == d2

    def test_non_finite_loss_exits_3_with_diagnostic(self, tmp_path, capsys):
        bad_triplets = tmp_path / "bad.tsv"
        rows = (DATA / "triplets.tsv").read_text().splitlines()
        fields = rows[0].split("\t")
        fields[3] = "inf"
        bad_triplets.write_text("\t".join(fields) + "\n")
        config = write_config(
            tmp_path,
            set=[("data", "triplets", str(bad_triplets)), ("train", "batch_size", "1")],
        )
        assert main(["train", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "margin_loss" in err or "loss" in err


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
            assert encoded[name].support() == direct.support()
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

    def test_vocab_digest_mismatch_exits_4(self, pipeline, tmp_path):
        other_vocab = tmp_path / "other_vocab.txt"
        other_vocab.write_text("completely\ndifferent\ntokens\n")
        assert main([
            "encode", "--checkpoint", str(pipeline["checkpoint"]), "--vocab", str(other_vocab),
            "--input", str(DATA / "corpus.tsv"), "--output", str(tmp_path / "x.vec"), "--role", "doc",
        ]) == 4

    def test_bad_checkpoint_header_exits_5(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        shutil.copyfile(pipeline["checkpoint"], bad)
        rewrite_header(bad, drop_field("backbone", "seed"))
        assert main([
            "encode", "--checkpoint", str(bad), "--vocab", str(DATA / "vocab.txt"),
            "--input", str(DATA / "corpus.tsv"), "--output", str(tmp_path / "x.vec"), "--role", "doc",
        ]) == 5
        assert "seed" in capsys.readouterr().err


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

    def test_trained_model_beats_chance_on_fixture(self, pipeline, capsys):
        assert main([
            "eval", "--run", str(pipeline["run"]), "--qrels", str(DATA / "qrels.txt"),
        ]) == 0
        mrr_line = capsys.readouterr().out.splitlines()[0]
        assert float(mrr_line.split("\t")[1]) > 0.5


class TestFlopsCommand:
    def test_prints_value(self, pipeline, capsys):
        assert main([
            "flops", "--index", str(pipeline["index"]), "--queries", str(pipeline["queries_vec"]),
        ]) == 0
        line = capsys.readouterr().out.strip()
        name, value = line.split("\t")
        assert name == "FLOPs"
        assert float(value) >= 0.0


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


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
