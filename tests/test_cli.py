"""End-to-end CLI tests: pipeline equivalences, golden files, exit codes."""

import configparser
import dataclasses
import hashlib
import inspect
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from test_model import drop_field, rewrite_header
from lsrkit import cli, errors
from lsrkit.backbones import BackboneConfig
from lsrkit.cli import main
from lsrkit.heads import read_vectors
from lsrkit.index import load_index, save_index
from lsrkit.model import SparseEncoder
from lsrkit.text import Vocabulary, read_tsv_texts, tokenize
from lsrkit.training import TrainConfig

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

    def test_non_utf8_corpus_exits_5_and_names_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(b"d1\tcaf\xe9 au lait\n")
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--corpus", str(corpus), "--output", str(out)]) == 5
        assert "corpus.tsv: not UTF-8 at byte 6" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_missing_key_exits_2_and_names_it(self, tmp_path, capsys):
        config = write_config(tmp_path, drop=[("train", "learning_rate")])
        assert main(["train", "--config", str(config)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_unknown_variant_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, set=[("backbone", "variant", "bigram_lstm")])
        assert main(["train", "--config", str(config)]) == 2
        assert "variant" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "log_every"])
    def test_malformed_optional_key_exits_2_and_names_it(self, tmp_path, capsys, key):
        config = write_config(tmp_path, set=[("train", key, "abc")])
        assert main(["train", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("beta1", "1.0"), ("beta2", "-0.5"), ("eps", "0"), ("learning_rate", "nan")]
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

    @pytest.mark.parametrize(
        "section,key",
        [("backbone", f.name) for f in dataclasses.fields(BackboneConfig)
         if f.name not in ("variant", "vocab_size")]
        + [("train", f.name) for f in dataclasses.fields(TrainConfig)
           if f.name not in ("beta1", "beta2", "eps", "log_every")],
    )
    def test_every_required_key_is_named_when_missing(self, tmp_path, capsys, section, key):
        config = write_config(tmp_path, drop=[(section, key)])
        assert main(["train", "--config", str(config)]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

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
        train_cfg = cli._load_train_config(config)[4]
        for f in dataclasses.fields(TrainConfig):
            if f.name in ("beta1", "beta2", "eps", "log_every"):
                assert getattr(train_cfg, f.name) == f.default

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


class TestIndexCommand:
    def test_term_id_past_u32_exits_5_without_output(self, tmp_path, capsys):
        vectors = tmp_path / "docs.vec"
        vectors.write_text("d\t4294967296:1.0\n")
        out = tmp_path / "index.lsrx"
        assert main(["index", "--vectors", str(vectors), "--output", str(out)]) == 5
        assert "4294967296" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_vector_file_exits_5_without_output(self, tmp_path, capsys):
        vectors = tmp_path / "docs.vec"
        vectors.write_bytes(b"d1\t3:0.5\nd\xff\t4:1.0\n")
        out = tmp_path / "index.lsrx"
        assert main(["index", "--vectors", str(vectors), "--output", str(out)]) == 5
        assert "docs.vec: not UTF-8 at byte 10" in capsys.readouterr().err
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
        index = load_index(pipeline["index"])
        next(iter(index.postings.values())).impacts[0] = np.nan
        bad = tmp_path / "nan.lsrx"
        save_index(index, bad)
        assert main([
            "search", "--index", str(bad), "--queries", str(pipeline["queries_vec"]),
            "--output", str(tmp_path / "r.txt"),
        ]) == 5
        assert "finite" in capsys.readouterr().err

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

    def test_doc_name_with_a_space_exits_2_and_keeps_the_old_run(self, tmp_path, capsys):
        docs, queries = tmp_path / "docs.vec", tmp_path / "queries.vec"
        index, out = tmp_path / "index.lsrx", tmp_path / "run.txt"
        docs.write_text("d1\t4:1.0\nd one\t4:0.5\n")
        queries.write_text("q1\t4:1.0\n")
        out.write_text("q1 Q0 d1 1 1.000000 old\n")
        assert main(["index", "--vectors", str(docs), "--output", str(index)]) == 0
        assert main([
            "search", "--index", str(index), "--queries", str(queries), "--output", str(out),
        ]) == 2
        assert "run doc name 'd one' is empty or holds whitespace" in capsys.readouterr().err
        assert out.read_text() == "q1 Q0 d1 1 1.000000 old\n"


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
    def test_encode_long_run_exits_zero_and_correct(self):
        """A short benchmark run: exit 0 and outputs that match expected.json."""
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "encode-long",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=DATA.parents[1],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
