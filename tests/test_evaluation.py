"""Metric fixtures and TREC file round-trips."""

import math
import re

import numpy as np
import pytest

from lsrkit.errors import ContractError, FormatError, NumericError
from lsrkit.evaluation import (
    evaluate,
    mrr_at_k,
    ndcg_at_k,
    read_qrels,
    read_run,
    recall_at_k,
    write_run,
)

TOL = 1e-9


def run_of(qid, docs):
    """Descending synthetic scores for a fixed ranking."""
    return {qid: [(doc, float(len(docs) - i)) for i, doc in enumerate(docs)]}


class TestMrr:
    def test_relevant_at_rank_one(self):
        assert mrr_at_k(run_of("q", ["d1", "d2"]), {"q": {"d1": 1}}) == 1.0

    def test_relevant_at_rank_three(self):
        run = run_of("q", ["x", "y", "rel"])
        assert abs(mrr_at_k(run, {"q": {"rel": 2}}) - 1.0 / 3.0) < TOL

    def test_relevant_beyond_cutoff_scores_zero(self):
        docs = [f"d{i}" for i in range(10)] + ["rel"]
        assert mrr_at_k(run_of("q", docs), {"q": {"rel": 1}}, k=10) == 0.0

    def test_no_overlap_with_qrels_rejected(self):
        with pytest.raises(ContractError):
            mrr_at_k(run_of("q", ["d"]), {"other": {"d": 1}})

    def test_query_without_relevant_counts_as_zero(self):
        run = {**run_of("q1", ["rel"]), **run_of("q2", ["d"])}
        qrels = {"q1": {"rel": 1}, "q2": {"d": 0}}
        assert mrr_at_k(run, qrels) == 0.5


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        run = run_of("q", ["a", "b", "c"])
        qrels = {"q": {"a": 3, "b": 2, "c": 1}}
        assert abs(ndcg_at_k(run, qrels) - 1.0) < TOL

    def test_hand_case_single_relevant_at_rank_two(self):
        run = run_of("q", ["junk", "rel"])
        value = ndcg_at_k(run, {"q": {"junk": 0, "rel": 1}})
        assert abs(value - 1.0 / math.log2(3.0)) < TOL

    def test_nothing_relevant_retrieved(self):
        run = run_of("q", ["a", "b"])
        assert ndcg_at_k(run, {"q": {"z": 2}}) == 0.0

    def test_idcg_uses_all_judged_docs(self):
        # Two relevant docs judged, only one retrieved: nDCG < 1.
        run = run_of("q", ["a"])
        qrels = {"q": {"a": 1, "b": 1}}
        expected = 1.0 / (1.0 + 1.0 / math.log2(3.0))
        assert abs(ndcg_at_k(run, qrels) - expected) < TOL

    @pytest.mark.parametrize("retrieved", [["d"], ["other"]])  # gain in DCG, or in IDCG only
    def test_grade_without_finite_gain_is_a_numeric_error(self, retrieved):
        with pytest.raises(NumericError, match="relevance 1100 has no finite gain"):
            ndcg_at_k(run_of("q", retrieved), {"q": {"d": 1100}})

    def test_invariant_under_monotone_score_rescaling(self):
        qrels = {"q": {"a": 2, "b": 1, "c": 0}}
        base = {"q": [("b", 9.0), ("a", 3.0), ("c", 1.0)]}
        rescaled = {"q": [(d, 2.0 * s + 7.0) for d, s in base["q"]]}
        assert ndcg_at_k(base, qrels) == ndcg_at_k(rescaled, qrels)


class TestRecall:
    def test_all_relevant_retrieved(self):
        run = run_of("q", ["a", "b"])
        assert recall_at_k(run, {"q": {"a": 1, "b": 2}}) == 1.0

    def test_half_retrieved(self):
        run = run_of("q", ["a"])
        assert recall_at_k(run, {"q": {"a": 1, "missing": 1}}) == 0.5

    def test_cutoff_not_exceeded(self):
        run = run_of("q", ["x", "rel"])
        assert recall_at_k(run, {"q": {"rel": 1}}, k=1) == 0.0

    def test_zero_relevant_query_excluded(self):
        run = {**run_of("q1", ["a"]), **run_of("q2", ["b"])}
        qrels = {"q1": {"a": 1}, "q2": {"b": 0}}
        assert recall_at_k(run, qrels) == 1.0


class TestCutoffInsensitivity:
    def test_permuting_below_cutoff_changes_nothing(self):
        rng = np.random.default_rng(30)
        docs = [f"d{i}" for i in range(20)]
        qrels = {"q": {"d3": 2, "d11": 1}}
        base_run = run_of("q", docs)
        k = 10
        tail = docs[k:]
        rng.shuffle(tail)
        permuted = run_of("q", docs[:k] + tail)
        assert mrr_at_k(base_run, qrels, k) == mrr_at_k(permuted, qrels, k)
        assert ndcg_at_k(base_run, qrels, k) == ndcg_at_k(permuted, qrels, k)
        assert recall_at_k(base_run, qrels, k) == recall_at_k(permuted, qrels, k)

    def test_metrics_within_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            docs = [f"d{i}" for i in range(12)]
            rng.shuffle(docs)
            qrels = {"q": {f"d{int(i)}": int(rng.integers(0, 3)) for i in rng.choice(12, 5, replace=False)}}
            if not any(r > 0 for r in qrels["q"].values()):
                qrels["q"]["d0"] = 1
            run = run_of("q", docs)
            for value in (
                mrr_at_k(run, qrels),
                ndcg_at_k(run, qrels),
                recall_at_k(run, qrels),
            ):
                assert 0.0 <= value <= 1.0


class TestEvaluate:
    def test_skipped_queries_are_reported_once(self, caplog):
        run = {**run_of("q1", ["rel"]), **run_of("q2", ["d"]), **run_of("q3", ["d"])}
        with caplog.at_level("WARNING", logger="lsrkit.evaluation"):
            metrics = evaluate(run, {"q1": {"rel": 1}})
        assert metrics == {"MRR@10": 1.0, "nDCG@10": 1.0, "Recall@1000": 1.0}
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert skipped == ["skipped 2 run queries without judgments"]


class TestCutoffContract:
    @pytest.mark.parametrize("metric", [mrr_at_k, ndcg_at_k, recall_at_k])
    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_rejected(self, metric, k):
        with pytest.raises(ContractError, match="k must be >= 1"):
            metric(run_of("q", ["d1", "d2"]), {"q": {"d2": 1}}, k)


class TestTrecFiles:
    def test_qrels_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 2\nq1 0 d8 0\n")
        qrels = read_qrels(path)
        assert qrels == {"q1": {"d7": 2, "d8": 0}}

    def test_qrels_duplicate_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 2\nq1 0 d7 1\n")
        with pytest.raises(FormatError, match=":2"):
            read_qrels(path)

    @pytest.mark.parametrize(
        "rel,message", [("two", "bad relevance 'two'"), ("-1", "relevance must be >= 0")]
    )
    def test_bad_relevance_names_its_line(self, tmp_path, rel, message):
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 d7 2\nq1 0 d8 {rel}\n")
        with pytest.raises(FormatError, match=rf"qrels\.txt:2: {message}"):
            read_qrels(path)

    @pytest.mark.parametrize("rel", ["1_0", "\u0661", "\uff12"])
    def test_relevance_that_is_not_plain_ascii_names_its_line(self, tmp_path, rel):
        """Python's int takes "_" separators and non-ASCII digits."""
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 d7 2\nq1 0 d8 {rel}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"qrels\.txt:2: bad relevance {rel!r}"):
            read_qrels(path)

    def test_empty_files_are_empty_structures(self, tmp_path):
        qrels_path = tmp_path / "qrels.txt"
        run_path = tmp_path / "run.txt"
        qrels_path.write_text("")
        run_path.write_text("")
        assert read_qrels(qrels_path) == {}
        assert read_run(run_path) == {}

    def test_run_round_trip(self, tmp_path):
        run = {
            "q1": [("d2", 3.5), ("d1", 1.25)],
            "q2": [("d9", 0.5)],
        }
        path = tmp_path / "run.txt"
        write_run(path, run, tag="testtag")
        lines = path.read_text().splitlines()
        assert lines[0] == "q1 Q0 d2 1 3.500000 testtag"
        loaded = read_run(path)
        assert list(loaded) == ["q1", "q2"]
        assert [d for d, _ in loaded["q1"]] == ["d2", "d1"]
        assert loaded["q1"][0][1] == 3.5

    @pytest.mark.parametrize(
        "kind,value",
        [("qid", "q 1"), ("qid", ""), ("doc name", "d one"), ("doc name", "d\u00a0x"),
         ("tag", ""), ("tag", "my\ttag")],
    )
    def test_field_read_run_cannot_split_back_keeps_old_file(self, tmp_path, kind, value):
        fields = {"qid": "q1", "doc name": "d1", "tag": "t", kind: value}
        run = {fields["qid"]: [("d0", 2.0), (fields["doc name"], 1.0)]}
        path = tmp_path / "run.txt"
        path.write_bytes(b"old")
        with pytest.raises(ContractError, match=re.escape(f"run {kind} {value!r} is empty or holds")):
            write_run(path, run, fields["tag"])
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["run.txt"]

    def test_non_contiguous_ranks_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 3 1.0 t\n")
        with pytest.raises(FormatError, match="contiguous"):
            read_run(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected_with_its_line(self, tmp_path, score):
        """NaN compares false, so it would hide the rank-order check."""
        path = tmp_path / "run.txt"
        path.write_text(f"q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 {score} t\nq1 Q0 d3 3 2.0 t\n")
        with pytest.raises(FormatError, match=rf"run\.txt:2: score {score} is not finite"):
            read_run(path)

    @pytest.mark.parametrize(
        "line,message",
        [("q1 Q0 d2 two 1.0 t", r"run\.txt:2: bad rank or score"),
         ("q1 Q0 d2 2 low t", r"run\.txt:2: bad rank or score"),
         ("q1 Q0 d2 2 3.0 t", "run scores for query q1 increase with rank")],
    )
    def test_bad_rank_or_score_rejected(self, tmp_path, line, message):
        path = tmp_path / "run.txt"
        path.write_text(f"q1 Q0 d1 1 2.0 t\n{line}\n")
        with pytest.raises(FormatError, match=message):
            read_run(path)

    @pytest.mark.parametrize(
        "rank,score", [("0_2", "1.0"), ("\u0662", "1.0"), ("2", "1_0"), ("2", "\u0661.5")],
        ids=["rank-separator", "arabic-rank", "score-separator", "arabic-score"],
    )
    def test_rank_or_score_that_is_not_plain_ascii_names_its_line(self, tmp_path, rank, score):
        """Python's int and float take "_" separators and non-ASCII digits."""
        path = tmp_path / "run.txt"
        path.write_text(f"q1 Q0 d1 1 20.0 t\nq1 Q0 d2 {rank} {score} t\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"run\.txt:2: bad rank or score"):
            read_run(path)

    def test_malformed_run_line_reports_number(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nshort line\n")
        with pytest.raises(FormatError, match=":2"):
            read_run(path)

    def test_doc_listed_twice_for_a_query_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\nq2 Q0 d1 1 1.0 t\n")
        with pytest.raises(FormatError, match=r"run\.txt:2: .*d1"):
            read_run(path)
