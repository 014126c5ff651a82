"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Training-based criteria share module-scoped runs; the determinism
criterion re-executes them and compares metrics logs byte for byte.
Criterion 7 trains in the test process, which its time bound measures;
criteria 8 and 9 train in worker processes, one run each.
"""

import math
import multiprocessing
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import toytask
from reference import (
    brute_force_search,
    inert_parameter_names,
    mlm_multitoken_equals_positionwise_max,
)
from test_autodiff import _op_cases
from lsrkit import autodiff as ad
from lsrkit.autodiff import Tensor, finite_difference_check
from lsrkit.backbones import Backbone, BackboneConfig, Variant
from lsrkit.evaluation import mrr_at_k, ndcg_at_k, recall_at_k
from lsrkit.heads import (
    HeadKind,
    SparseHead,
    SparseVector,
    mlm_head,
    mlp_head,
)
from lsrkit.index import build_index, load_index, save_index, top_k_search
from lsrkit.model import SparseEncoder
from lsrkit.text import build_vocab
from lsrkit.training import (
    TrainConfig,
    TrainingTriplet,
    affine_transform_scores,
    ScoreStats,
    flops_regularizer,
    lambda_schedule,
    margin_mse,
    read_triplets,
    train,
)

DATA = pathlib.Path(__file__).parent / "data"

GRAD_TOL = 1e-5
GRAD_EPS = 1e-6

# Shared toy-run configuration (200-doc synthetic task).
TASK_SEED = 42
MODEL_KW = dict(num_layers=1, d_model=32, num_heads=2, max_seq_len=16, seed=7)
TRAIN_KW = dict(
    learning_rate=2e-3, batch_size=16, warmup_steps=100, lambda_ramp_steps=1000,
    seed=13, log_every=250,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def toy():
    corpus, train_rows, dev_queries, qrels = toytask.make_toy_task(seed=TASK_SEED)
    vocab = build_vocab(corpus)
    return {
        "corpus": corpus,
        "rows": train_rows,
        "dev_queries": dev_queries,
        "qrels": qrels,
        "vocab": vocab,
    }


def toy_triplets(toy, tmp_path) -> list[TrainingTriplet]:
    paths = toytask.write_task_files(tmp_path, toy["corpus"], toy["rows"], toy["dev_queries"], toy["qrels"])
    return read_triplets(paths["triplets"], toy["vocab"], MODEL_KW["max_seq_len"])


def build_model(variant, head_kind, vocab_size):
    config = BackboneConfig(variant, vocab_size=vocab_size, **MODEL_KW)
    return SparseEncoder.build(config, head_kind)


def training_run(toy, triplets, variant, head_kind, steps, lam, log_path):
    model = build_model(variant, head_kind, len(toy["vocab"]))
    cfg = TrainConfig(total_steps=steps, lambda_q=lam, lambda_d=lam, **TRAIN_KW)
    train(model, triplets, cfg, metrics_path=log_path)
    return model


@pytest.fixture(scope="module")
def sparsity_runs(toy, tmp_path_factory):
    """Criterion 7 artifacts: lambda 0 vs 0.1, 5000 steps, encoder-only."""
    tmp = tmp_path_factory.mktemp("sparsity")
    triplets = toy_triplets(toy, tmp)
    start = time.perf_counter()
    out = {}
    for lam in (0.0, 0.1):
        log_path = tmp / f"metrics_lam{lam}.jsonl"
        model = training_run(
            toy, triplets, Variant.ENCODER_ONLY, HeadKind.MLM_MULTITOKENS, 5000, lam, log_path
        )
        out[lam] = {
            "log": log_path.read_bytes(),
            "mrr": toytask.dev_mrr(model, toy["vocab"], toy["corpus"], toy["dev_queries"], toy["qrels"]),
            "density": toytask.mean_doc_density(model, toy["vocab"], toy["corpus"]),
        }
    out["seconds"] = time.perf_counter() - start
    return out


SMOKE_HEADS = {
    Variant.ENCODER_ONLY: HeadKind.MLM_MULTITOKENS,
    Variant.DECODER_MULTITOKENS: HeadKind.MLM_MULTITOKENS,
    Variant.ENCDEC_SINGLETOKEN: HeadKind.MLM_SINGLETOKEN,
    Variant.ENCDEC_MULTITOKENS: HeadKind.MLM_MULTITOKENS,
}


# Criterion 8's variants, the dearest training step first.
SMOKE_ORDER = list(SMOKE_HEADS)[::-1]


def training_job(toy, triplets, variant, head_kind, steps, lam, log_path):
    """``training_run`` as a worker process runs it: the metrics-log bytes,
    and the dev MRR@10 of the model before and after training."""
    def mrr(model):
        return toytask.dev_mrr(model, toy["vocab"], toy["corpus"], toy["dev_queries"], toy["qrels"])

    before = mrr(build_model(variant, head_kind, len(toy["vocab"])))
    model = training_run(toy, triplets, variant, head_kind, steps, lam, log_path)
    return {"log": log_path.read_bytes(), "before": before, "after": mrr(model)}


def run_jobs(jobs):
    """``training_job`` of each argument tuple, one fresh process each, run
    over the process's CPUs in list order (so list the longest first)."""
    spawn = multiprocessing.get_context("spawn")  # fork would copy ad's thread pool's locks
    with ProcessPoolExecutor(ad._CPUS, mp_context=spawn) as pool:
        return list(pool.map(training_job, *zip(*jobs)))


def smoke_jobs(toy, triplets, tmp, prefix):
    """Criterion 8's four training runs as ``run_jobs`` arguments, in ``SMOKE_ORDER``."""
    return [
        (toy, triplets, v, SMOKE_HEADS[v], 2000, 0.01, tmp / f"{prefix}_{v.value}.jsonl")
        for v in SMOKE_ORDER
    ]


@pytest.fixture(scope="module")
def smoke_runs(toy, tmp_path_factory):
    """Criterion 8 artifacts: all four variants, 2000 steps, small lambda."""
    tmp = tmp_path_factory.mktemp("smoke")
    results = dict(zip(SMOKE_ORDER, run_jobs(smoke_jobs(toy, toy_triplets(toy, tmp), tmp, "metrics"))))
    return {variant: results[variant] for variant in SMOKE_HEADS}


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        start = time.perf_counter()
        worst_op = 0.0
        for point in range(10):
            rng = np.random.default_rng(1000 + point)
            for name, fn, x in _op_cases(rng):
                err = finite_difference_check(fn, x, eps=GRAD_EPS)
                worst_op = max(worst_op, err)
                assert err < GRAD_TOL, f"{name} at point {point}: {err:.2e}"

        worst_composite = 0.0
        for variant, head_kind in SMOKE_HEADS.items():
            config = BackboneConfig(
                variant, num_layers=1, d_model=8, num_heads=2, vocab_size=12,
                max_seq_len=4, seed=5,
            )
            model = SparseEncoder.build(config, head_kind)
            batch = [
                TrainingTriplet((4, 5), (6, 7, 8), (9, 10), 4.0, 1.0),
                TrainingTriplet((9, 6), (10, 4), (5, 8, 11), 3.5, 0.5),
            ]
            teacher = [t.teacher_pos - t.teacher_neg for t in batch]

            def loss_fn(_x):
                q = model.batch_activations([t.query_tokens for t in batch])
                p = model.batch_activations([t.pos_tokens for t in batch])
                n = model.batch_activations([t.neg_tokens for t in batch])
                margins = ad.sub(
                    ad.sum_over_axis(ad.mul(q, p), 1), ad.sum_over_axis(ad.mul(q, n), 1)
                )
                loss = margin_mse(margins, teacher)
                loss = ad.add(loss, ad.scale(flops_regularizer(q), 0.1))
                docs = ad.concat_rows([p, n])
                return ad.add(loss, ad.scale(flops_regularizer(docs), 0.1))

            inert = {f"backbone.{n}" for n in inert_parameter_names(model.backbone)}
            for name, param in model.parameters():
                if name in inert:
                    continue
                err = finite_difference_check(loss_fn, param, eps=GRAD_EPS)
                worst_composite = max(worst_composite, err)
                assert err < GRAD_TOL, f"{variant.value} {name}: {err:.2e}"
        elapsed = time.perf_counter() - start
        ok = elapsed < 120.0
        report(
            1, ok,
            f"op suite worst {worst_op:.2e}, composite worst {worst_composite:.2e}, "
            f"{elapsed:.0f}s (< 120s)",
        )


class TestCriterion2Architecture:
    def test_causal_invariance_and_cross_attention_witness(self):
        vocab_size = 40
        decoder = Backbone(
            BackboneConfig(Variant.DECODER_MULTITOKENS, vocab_size=vocab_size, **MODEL_KW)
        )
        encdec = Backbone(
            BackboneConfig(Variant.ENCDEC_MULTITOKENS, vocab_size=vocab_size, **MODEL_KW)
        )
        rng = np.random.default_rng(2024)
        causal_ok = 0
        for _ in range(50):
            n = int(rng.integers(3, 10))
            tokens = rng.integers(4, vocab_size, size=n).tolist()
            i = int(rng.integers(0, n - 1))
            changed = list(tokens)
            for j in range(i + 1, n):
                changed[j] = int(rng.integers(4, vocab_size))
            h1 = decoder.encode(tokens).data
            h2 = decoder.encode(changed).data
            if np.array_equal(h1[: i + 1], h2[: i + 1]):
                causal_ok += 1

        witness_ok = 0
        for _ in range(50):
            n = int(rng.integers(3, 10))
            tokens = rng.integers(4, vocab_size, size=n).tolist()
            changed = list(tokens)
            changed[-1] = 4 + (changed[-1] - 4 + 1) % (vocab_size - 4)
            enc_changes = (
                np.abs(encdec.encode(tokens).data[0] - encdec.encode(changed).data[0]).max()
                > 1e-9
            )
            dec_static = np.array_equal(
                decoder.encode(tokens).data[0], decoder.encode(changed).data[0]
            )
            if enc_changes and dec_static:
                witness_ok += 1
        ok = causal_ok == 50 and witness_ok == 50
        report(2, ok, f"causal invariance {causal_ok}/50, cross-attention witness {witness_ok}/50")


class TestCriterion3HeadLaws:
    def test_head_laws(self):
        rng = np.random.default_rng(77)
        d, v = 8, 20
        mlp_cfg = SparseHead(HeadKind.MLP, d, v, rng=rng)
        support_ok = 0
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            tokens = rng.integers(0, v, size=n).tolist()
            vec = mlp_head(Tensor(rng.normal(size=(n, d))), tokens, mlp_cfg)
            if set(vec.entries) <= set(tokens):
                support_ok += 1

        pool_ok = 0
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            emb = Tensor(rng.normal(size=(v, d)))
            cfg = SparseHead(HeadKind.MLM_MULTITOKENS, d, v)
            cfg.b_vocab.data = rng.normal(size=v)
            if mlm_multitoken_equals_positionwise_max(Tensor(rng.normal(size=(m, d))), emb, cfg):
                pool_ok += 1

        # MLP fixture: relu outputs 1 and 3 on the same repeated term.
        cfg7 = SparseHead(HeadKind.MLP, 2, v)
        cfg7.w.data = np.array([[1.0], [0.0]])
        cfg7.b.data = np.array([0.0])
        vec7 = mlp_head(Tensor([[1.0, 0.0], [3.0, 0.0]]), [5, 5], cfg7)
        fix7 = abs(vec7.entries[5] - (math.log(2.0) + math.log(4.0)))

        # MLM fixture: logits 1 and 3 for one term across two positions.
        emb_rows = np.zeros((v, 2))
        emb_rows[3] = [1.0, 0.0]
        cfg8 = SparseHead(HeadKind.MLM_MULTITOKENS, 2, v)
        vec8 = mlm_head(Tensor([[1.0, 0.0], [3.0, 0.0]]), Tensor(emb_rows), cfg8)
        fix8 = abs(vec8.entries[3] - math.log(4.0))

        ok = support_ok == 1000 and pool_ok == 1000 and fix7 < 1e-12 and fix8 < 1e-12
        report(
            3, ok,
            f"MLP support {support_ok}/1000, MT==max(ST) {pool_ok}/1000, "
            f"fixtures {fix7:.1e}/{fix8:.1e}",
        )


class TestCriterion4LossFixtures:
    def test_loss_and_regularizer_fixtures(self):
        m = margin_mse([2.0, 0.0], [1.0, 1.0]).item()
        f = flops_regularizer([[1.0, 0.0], [1.0, 2.0]]).item()
        lam = lambda_schedule(500, 1000, 0.4)
        rng = np.random.default_rng(4)
        scores = rng.normal(2.0, 0.7, size=100)
        ref = ScoreStats(mean=-3.0, std=2.5)
        mapped = affine_transform_scores(scores, ref)
        stats_ok = (
            abs(mapped.mean() - ref.mean) < 1e-9 and abs(mapped.std() - ref.std) < 1e-9
        )
        ranking_ok = bool((np.argsort(scores) == np.argsort(mapped)).all())
        ok = m == 1.0 and f == 2.0 and lam == 0.1 and stats_ok and ranking_ok
        report(
            4, ok,
            f"margin_mse {m}, flops {f}, lambda(T/2) {lam}, affine stats ok={stats_ok}, "
            f"ranking ok={ranking_ok}",
        )


class TestCriterion5RetrievalOracle:
    def test_oracle_equivalence(self, tmp_path):
        start = time.perf_counter()
        rng = np.random.default_rng(501)
        exact = 0
        roundtrip = 0
        corpora = 100
        for case in range(corpora):
            num_docs = 1000 if case == 0 else int(rng.integers(10, 1001))
            vocab_size = 500 if case == 0 else int(rng.integers(20, 501))
            max_terms = 8
            docs = []
            for i in range(num_docs):
                n_terms = int(rng.integers(1, max_terms + 1))
                terms = rng.choice(vocab_size, size=n_terms, replace=False)
                docs.append(
                    (
                        f"d{i:04d}",
                        SparseVector(
                            {int(t): float(rng.integers(1, 25)) / 8.0 for t in terms}
                        ),
                    )
                )
            index = build_index(docs)
            n_q = int(rng.integers(1, 8))
            queries = []
            for t in rng.choice(vocab_size, size=n_q, replace=False):
                queries.append((int(t), float(rng.integers(1, 25)) / 8.0))
            query = SparseVector(dict(queries))
            k = int(rng.integers(1, 20))
            fast = top_k_search(index, query, k)
            slow = brute_force_search(docs, query, k)
            if fast == slow:
                exact += 1
            path = tmp_path / "case.lsrx"
            save_index(index, path)
            loaded = load_index(path)
            if top_k_search(loaded, query, k) == fast:
                roundtrip += 1
        elapsed = time.perf_counter() - start
        ok = exact == corpora and roundtrip == corpora and elapsed < 60.0
        report(
            5, ok,
            f"oracle match {exact}/{corpora}, round-trip match {roundtrip}/{corpora}, "
            f"{elapsed:.0f}s (< 60s)",
        )


class TestCriterion6Metrics:
    def test_metric_fixtures(self):
        run = {"q": [("junk", 2.0), ("rel", 1.0)]}
        qrels = {"q": {"junk": 0, "rel": 1}}
        ndcg_err = abs(ndcg_at_k(run, qrels, 10) - 1.0 / math.log2(3.0))
        mrr_err = abs(mrr_at_k({"q": [("x", 3.0), ("y", 2.0), ("rel", 1.0)]}, {"q": {"rel": 2}}) - 1.0 / 3.0)
        recall_err = abs(
            recall_at_k({"q": [("a", 1.0)]}, {"q": {"a": 1, "b": 1}}, 10) - 0.5
        )
        ok = ndcg_err < 1e-9 and mrr_err < 1e-9 and recall_err < 1e-9
        report(6, ok, f"nDCG err {ndcg_err:.1e}, MRR err {mrr_err:.1e}, recall err {recall_err:.1e}")

    def test_golden_pipeline_byte_for_byte(self, tmp_path):
        produced = toytask.run_pipeline(DATA, tmp_path)["run"].read_bytes()
        golden = (DATA / "golden_run.txt").read_bytes()
        report(6, produced == golden, "golden TREC run reproduced byte-for-byte")


class TestCriterion7SparsityEffect:
    def test_regularization_lowers_density_and_keeps_mrr(self, sparsity_runs):
        base, reg = sparsity_runs[0.0], sparsity_runs[0.1]
        rel = abs(reg["mrr"] - base["mrr"]) / max(base["mrr"], 1e-12)
        ok = (
            reg["density"] < base["density"]
            and rel <= 0.20
            and sparsity_runs["seconds"] < 600.0
        )
        report(
            7, ok,
            f"density {base['density']:.1f} -> {reg['density']:.1f}, "
            f"MRR {base['mrr']:.3f} vs {reg['mrr']:.3f} (rel diff {rel:.3f}), "
            f"{sparsity_runs['seconds']:.0f}s (< 600s)",
        )


class TestCriterion8LearningSmoke:
    def test_all_variants_beat_untrained(self, smoke_runs):
        improvements = {
            variant.value: (r["before"], r["after"]) for variant, r in smoke_runs.items()
        }
        ordering = sorted(improvements.items(), key=lambda kv: -kv[1][1])
        print("\ntrained MRR@10 ordering (logged, not asserted):")
        for name, (before, after) in ordering:
            print(f"  {name}: {before:.3f} -> {after:.3f}")
        ok = all(after > before for before, after in improvements.values())
        detail = ", ".join(
            f"{name} {before:.3f}->{after:.3f}" for name, (before, after) in improvements.items()
        )
        report(8, ok, detail)


class TestCriterion9Determinism:
    def test_training_runs_are_bitwise_reproducible(
        self, toy, sparsity_runs, smoke_runs, tmp_path
    ):
        triplets = toy_triplets(toy, tmp_path)
        reruns = [
            (toy, triplets, Variant.ENCODER_ONLY, HeadKind.MLM_MULTITOKENS, 5000, lam,
             tmp_path / f"repeat_lam{lam}.jsonl")
            for lam in (0.0, 0.1)
        ] + smoke_jobs(toy, triplets, tmp_path, "repeat")
        originals = {f"lambda={lam}": sparsity_runs[lam]["log"] for lam in (0.0, 0.1)}
        originals.update((v.value, smoke_runs[v]["log"]) for v in SMOKE_ORDER)
        mismatches = [
            name for (name, log), rerun in zip(originals.items(), run_jobs(reruns))
            if rerun["log"] != log
        ]
        ok = not mismatches
        report(
            9, ok,
            "all six training runs reproduced bitwise-identical metrics logs"
            if ok
            else f"mismatched logs: {', '.join(mismatches)}",
        )
