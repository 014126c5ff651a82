"""The two benchmark workloads, each a closed loop with one caller.

train-variants  distillation training of all four backbone/head pairings at
                toy scale, then a dev pass: encode, index, search, evaluate.
                A step here is bound by per-op Python overhead, so it loads
                autodiff, backbones, heads and training.
encode-long     forward-only encoding of 16..128-token sequences with the
                encoder-decoder MLM model, per sequence and as packed
                batches. It loads attention and the MLM head.

Every workload builds its inputs from the seed alone and repeats its timed
work ``ctx.passes`` times, with set-ups between passes. Each timed item
is taken in reference seconds (see ``hostclock``) and keeps its fastest
time over passes; the set-up time is the median of the set-ups. Each returns
its end-to-end figures and fills ``ctx.exact`` with values that must
repeat exactly for a given seed; ``*_layers`` turn the spans of a traced
pass into per-layer figures, in measured time.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from lsrkit import autodiff, backbones, evaluation, heads, index, model, text, training
from lsrkit.errors import LsrError

from hostclock import HostClock
from stats import P95_SAMPLES, Outcomes, tail_percentile
from tracer import counts, durations, totals_within


@dataclass
class Context:
    workload: str
    seed: int
    passes: int
    tmpdir: str
    tracer: object = None
    # Set-ups in a run: one before the first pass, the rest spread over
    # the passes (``WORKLOADS``). Runs that only check values set up once.
    setups: int = 1
    clock: HostClock = field(default_factory=HostClock)
    outcomes: Outcomes = field(default_factory=Outcomes)
    # Values that must repeat exactly for a given seed and code.
    exact: dict = field(default_factory=dict)
    # Per-layer values that do not come from spans.
    facts: dict = field(default_factory=dict)
    # Sample count behind each reported percentile or median.
    samples: dict = field(default_factory=dict)

    def tag(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.tag = label

    def path(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Setup:
    """A workload's set-up, run once up front and ``ctx.setups`` times in all.

    The first one also pays for warming up (about twice the time of the
    others on train-variants), so the set-up time is the median of them.
    """

    def __init__(self, ctx: Context, build):
        self.ctx, self.build = ctx, build
        self.spans: list[tuple[float, float]] = []
        self.inputs = self.again()

    def again(self):
        self.ctx.tag("setup")
        # Garbage left by earlier work is not the set-up's to collect.
        gc.collect()
        self.ctx.clock.calibrate()
        start = time.perf_counter()
        inputs = self.build(self.ctx)
        self.spans.append((start, time.perf_counter()))
        self.ctx.clock.calibrate()
        return inputs

    def after_pass(self) -> None:
        for _ in range(math.ceil((self.ctx.setups - 1) / self.ctx.passes)):
            self.again()

    def seconds(self) -> float:
        return median(self.ctx.clock.reference_seconds(*span) for span in self.spans)


def trace_targets():
    """(owner, attribute, span name[, count fn]) at the names callers resolve.

    ``model`` imports the head functions by name, so they are patched in
    ``lsrkit.model``; methods are patched on their class.
    """
    return [
        (text, "tokenize", "text.tokenize"),
        (text, "build_vocab", "text.build_vocab"),
        (autodiff.Tape, "backward", "autodiff.Tape.backward", lambda tape, loss: len(tape)),
        (backbones.Backbone, "encode", "backbones.Backbone.encode"),
        (backbones.Backbone, "encode_batch", "backbones.Backbone.encode_batch"),
        (backbones.MultiHeadAttention, "__call__", "backbones.MultiHeadAttention"),
        (model, "mlp_head", "heads.mlp_head"),
        (model, "mlm_head", "heads.mlm_head"),
        (model, "mlp_batch_activations", "heads.mlp_batch_activations"),
        (model, "mlm_batch_activations", "heads.mlm_batch_activations"),
        (heads.SparseVector, "from_dense", "heads.SparseVector.from_dense"),
        (training, "train", "training.train"),
        (training, "train_step", "training.train_step"),
        (training, "margin_mse", "training.margin_mse"),
        (training, "flops_regularizer", "training.flops_regularizer"),
        (training.Adam, "step", "training.Adam.step"),
        (model.SparseEncoder, "encode", "model.SparseEncoder.encode"),
        (model.SparseEncoder, "batch_activations", "model.SparseEncoder.batch_activations"),
        (model.SparseEncoder, "save", "model.SparseEncoder.save"),
        (model.SparseEncoder, "load", "model.SparseEncoder.load"),
        (index, "build_index", "index.build_index"),
        (index, "top_k_search", "index.top_k_search"),
        (index, "flops_metric", "index.flops_metric"),
        (evaluation, "evaluate", "evaluation.evaluate"),
    ]


class BestOf:
    """Per-item fastest time of ``call`` over passes spread through a run.

    The first pass records each item's result; every later pass must
    return equal results. Interrupts and collector pauses only ever add
    time, so the fastest pass leaves them out.
    """

    def __init__(self, ctx: Context, items, call, tag: str):
        self.ctx, self.items, self.call, self.tag = ctx, items, call, tag
        self.results: list = []
        self.spans: list[list[tuple[float, float]]] = [[] for _ in items]

    def run_pass(self) -> None:
        self.ctx.tag(self.tag)
        first = not self.results
        for i, item in enumerate(self.items):
            self.ctx.clock.tick()
            start = time.perf_counter()
            result = self.call(item)
            self.spans[i].append((start, time.perf_counter()))
            if first:
                self.results.append(result)
                self.ctx.outcomes.ok()
            else:
                self.ctx.outcomes.check(
                    result == self.results[i],
                    f"{self.tag} item {i}: a repeated pass returned another result",
                )

    def seconds(self) -> list[float]:
        """Each item's fastest pass, in reference seconds."""
        clock = self.ctx.clock
        return [min(clock.reference_seconds(*span) for span in spans) for spans in self.spans]


def _ms(seconds_list) -> list[float]:
    return [1000.0 * s for s in seconds_list]


def _p50_ms(seconds_list) -> float:
    return median(_ms(seconds_list)) if seconds_list else 0.0


# ---------------------------------------------------------------- train-variants

# (backbone, head, FLOPs weight). The weight, ramped over half the run,
# leaves the MLM vectors at a few dozen of the 124 vocabulary terms before
# the dev pass, so that pass measures the trained encoders rather than
# dense-vector search. Larger weights drove some seeds' single-token and
# encoder-decoder multi-token models to all-empty vectors, which then stay
# empty; these kept every doc vector set non-empty on seeds 0 to 20.
VARIANTS = (
    ("encoder_only", "mlp", 3.0),
    ("decoder_multitokens", "mlm_multitokens", 3.0),
    ("encdec_singletoken", "mlm_singletoken", 0.01),
    ("encdec_multitokens", "mlm_multitokens", 1.0),
)
TRAIN_SHAPE = dict(num_layers=1, d_model=32, num_heads=2, max_seq_len=16)
TRAIN_STEPS = 200
TRAIN_KW = dict(batch_size=16, learning_rate=3e-3, warmup_steps=20, lambda_ramp_steps=100)
TASK_DOCS = 600
TASK_POOL = 120
TASK_DOC_LEN = 5
TASK_QUERY_LEN = 2
TASK_TRAIN_QUERIES = 1600
TASK_DEV_QUERIES = 100
TEACHER_SCALE = 12.0
DEV_K = 10

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def pseudo_words(count: int, rng: np.random.Generator) -> list[str]:
    words, seen = [], set()
    while len(words) < count:
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(int(rng.integers(2, 4)))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def make_teacher_task(rng: np.random.Generator):
    """A teacher-scored task harder than the acceptance toy task.

    Queries are two words of one source document (their only relevant
    document) and the word pool is much smaller than the corpus, so many
    documents share each query word. Teacher scores are a lexical overlap
    fraction plus noise; half of the negatives share a query word.
    Returns (corpus, train rows, dev queries, qrels).
    """
    pool = pseudo_words(TASK_POOL, rng)
    doc_words, word_to_docs, corpus = [], {}, {}
    for i in range(TASK_DOCS):
        words = [pool[j] for j in rng.choice(TASK_POOL, size=TASK_DOC_LEN, replace=False)]
        doc_words.append(words)
        corpus[f"d{i:04d}"] = " ".join(words)
        for w in words:
            word_to_docs.setdefault(w, []).append(i)

    def sample_query():
        doc = int(rng.integers(TASK_DOCS))
        picks = rng.choice(TASK_DOC_LEN, size=TASK_QUERY_LEN, replace=False)
        return doc, [doc_words[doc][j] for j in picks]

    def teacher(words, doc):
        overlap = len(set(words) & set(doc_words[doc])) / len(words)
        return TEACHER_SCALE * overlap + 0.25 * float(rng.uniform(-1.0, 1.0))

    rows = []
    for t in range(TASK_TRAIN_QUERIES):
        doc, words = sample_query()
        candidates = []
        if t % 2 == 0:
            anchor = words[int(rng.integers(len(words)))]
            candidates = [d for d in word_to_docs[anchor] if d != doc]
        if candidates:
            neg = candidates[int(rng.integers(len(candidates)))]
        else:
            neg = int(rng.integers(TASK_DOCS))
            while neg == doc:
                neg = int(rng.integers(TASK_DOCS))
        rows.append(
            (" ".join(words), corpus[f"d{doc:04d}"], corpus[f"d{neg:04d}"],
             teacher(words, doc), teacher(words, neg))
        )
    dev_queries, qrels = {}, {}
    for q in range(TASK_DEV_QUERIES):
        doc, words = sample_query()
        dev_queries[f"q{q:03d}"] = " ".join(words)
        qrels[f"q{q:03d}"] = {f"d{doc:04d}": 1}
    return corpus, rows, dev_queries, qrels


@dataclass
class TrainInputs:
    vocab_size: int
    triplets: list
    docs: list
    queries: list
    qrels: dict


def _train_setup(ctx: Context) -> TrainInputs:
    rng = np.random.default_rng(ctx.seed)
    corpus, rows, dev_queries, qrels = make_teacher_task(rng)
    vocab = text.build_vocab(corpus)
    max_len = TRAIN_SHAPE["max_seq_len"]

    def tok(s):
        return tuple(text.tokenize(vocab, s, max_len))

    triplets = [
        training.TrainingTriplet(tok(q), tok(p), tok(n), tp, tn) for q, p, n, tp, tn in rows
    ]
    docs = [(name, tok(s)) for name, s in corpus.items()]
    queries = [(qid, tok(s)) for qid, s in dev_queries.items()]
    return TrainInputs(len(vocab), triplets, docs, queries, qrels)


def _build_models(ctx: Context, vocab_size: int) -> list:
    """``ctx.passes`` identically built encoders per pairing."""
    models = []
    for i, (variant, head, _) in enumerate(VARIANTS):
        config = backbones.BackboneConfig(
            backbones.Variant(variant), vocab_size=vocab_size, seed=ctx.seed + i, **TRAIN_SHAPE
        )
        head_kind = heads.HeadKind(head)
        models.append([model.SparseEncoder.build(config, head_kind) for _ in range(ctx.passes)])
    return models


def _dev_pass(ctx: Context, variant: str, encoder, inputs: TrainInputs, search_ms: list) -> None:
    """Encode, index, search and evaluate the dev set with one trained encoder."""
    ctx.tag(f"dev:{variant}")
    doc_vecs = [(name, encoder.encode(toks)) for name, toks in inputs.docs]
    idx = index.build_index(doc_vecs)
    run = {}
    query_vecs = []
    for qid, toks in inputs.queries:
        qvec = encoder.encode(toks)
        query_vecs.append(qvec)
        start = time.perf_counter()
        run[qid] = index.top_k_search(idx, qvec, DEV_K)
        search_ms.append(1000.0 * (time.perf_counter() - start))
    ctx.outcomes.ok(len(doc_vecs) + 2 * len(query_vecs))
    doc_terms = float(np.mean([len(v) for _, v in doc_vecs]))
    ctx.outcomes.check(doc_terms > 0, f"{variant}: every trained doc vector is empty")
    quality = evaluation.evaluate(run, inputs.qrels)
    ctx.exact[f"evaluation.dev_mrr10.{variant}"] = quality["MRR@10"]
    ctx.exact[f"evaluation.dev_ndcg10.{variant}"] = quality["nDCG@10"]
    ctx.exact[f"index.flops.{variant}"] = index.flops_metric(query_vecs, idx)
    ctx.exact[f"heads.doc_terms.{variant}"] = doc_terms


def train_variants(ctx: Context) -> dict:
    setup = Setup(ctx, _train_setup)
    inputs = setup.inputs
    models = _build_models(ctx, inputs.vocab_size)
    # Each pass trains every pairing once from its own identically built
    # model, so the runs of one pairing lie seconds apart. They must agree
    # bit for bit, and each step keeps its fastest time, as in BestOf.
    clock = ctx.clock
    runs = {variant: [] for variant, _, _ in VARIANTS}
    for copy in range(ctx.passes):
        for (variant, _, lam), copies in zip(VARIANTS, models):
            ctx.tag(variant)
            cfg = training.TrainConfig(total_steps=TRAIN_STEPS, seed=ctx.seed, log_every=1,
                                       lambda_q=lam, lambda_d=lam, **TRAIN_KW)
            losses: list[float] = []
            spans: list[tuple[float, float]] = []
            clock.tick()
            begun = [time.perf_counter()]

            def on_report(report):
                spans.append((begun[0], time.perf_counter()))
                losses.append(report.loss)
                clock.tick()
                begun[0] = time.perf_counter()

            try:
                training.train(copies[copy], inputs.triplets, cfg, on_report=on_report)
            except LsrError as exc:
                ctx.outcomes.fail(f"{variant}: training raised {exc!r}")
                continue
            finite = all(math.isfinite(x) for x in losses)
            ctx.outcomes.ok(len(losses) - 1)
            ctx.outcomes.check(finite and len(losses) == TRAIN_STEPS,
                               f"{variant}: {len(losses)} steps, finite losses {finite}")
            runs[variant].append((losses, [clock.reference_seconds(*span) for span in spans]))
        setup.after_pass()

    step_s = np.zeros(TRAIN_STEPS)
    search_ms: list[float] = []
    for (variant, _, _), copies in zip(VARIANTS, models):
        if len(runs[variant]) < ctx.passes:
            continue
        losses = runs[variant][0][0]
        for again, _ in runs[variant][1:]:
            ctx.outcomes.check(again == losses, f"{variant}: a repeated training run diverged")
        step_s += np.min([seconds for _, seconds in runs[variant]], axis=0)
        ctx.exact[f"training.final_loss.{variant}"] = losses[-1]
        _dev_pass(ctx, variant, copies[0], inputs, search_ms)
    for key in ("evaluation.dev_mrr10", "evaluation.dev_ndcg10", "index.flops"):
        values = [ctx.exact[f"{key}.{v}"] for v, _, _ in VARIANTS if f"{key}.{v}" in ctx.exact]
        if values:
            ctx.facts[key] = float(np.mean(values))
    ctx.facts.update(ctx.exact)
    ctx.facts["index.dev_search_ms_p50"] = median(search_ms)
    ctx.facts["index.dev_search_ms_p95"] = tail_percentile(search_ms)
    samples = len(VARIANTS) * TRAIN_STEPS * TRAIN_KW["batch_size"]
    ctx.samples.update({"latency_ms (steps of all four pairings)": len(step_s),
                        "index.dev_search_ms (dev queries, four models)": len(search_ms),
                        "throughput_per_s (triplets)": samples,
                        "setup_s (set-ups)": len(setup.spans)})
    ctx.facts["host.kernel_ms"] = _p50_ms(clock.kernel_seconds)
    step_ms = _ms(step_s.tolist())
    return {
        "setup_s": setup.seconds(),
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms_p50": median(step_ms),
        "latency_ms_p95": tail_percentile(step_ms),
        "throughput_per_s": samples / float(step_s.sum()),
    }


def train_variants_layers(spans, facts) -> dict:
    out = {}
    step = "training.train_step"
    for variant, _, _ in VARIANTS:
        steps = durations(spans, step, variant)
        if not steps:
            continue
        out[f"training.step_ms_p50.{variant}"] = _p50_ms(steps)
        out[f"training.step_ms_p95.{variant}"] = tail_percentile(_ms(steps))
        out[f"training.optimizer_ms_p50.{variant}"] = _p50_ms(
            totals_within(spans, step, "training.Adam.step", variant))
        out[f"autodiff.backward_ms_p50.{variant}"] = _p50_ms(
            totals_within(spans, step, "autodiff.Tape.backward", variant))
        out[f"autodiff.tape_entries.{variant}"] = median(
            counts(spans, "autodiff.Tape.backward", variant))
        out[f"backbones.forward_ms_p50.{variant}"] = _p50_ms(
            totals_within(spans, step, "backbones.Backbone.encode_batch", variant))
        out[f"backbones.attention_ms_p50.{variant}"] = _p50_ms(
            totals_within(spans, step, "backbones.MultiHeadAttention", variant))
        acts = [a + b for a, b in zip(
            totals_within(spans, step, "heads.mlp_batch_activations", variant),
            totals_within(spans, step, "heads.mlm_batch_activations", variant))]
        out[f"heads.activations_ms_p50.{variant}"] = _p50_ms(acts)
    # Each set-up builds the vocabulary once, then tokenizes.
    setups = len(durations(spans, "text.build_vocab", "setup"))
    out["text.tokenize_ms"] = 1000.0 * sum(durations(spans, "text.tokenize", "setup")) / setups
    out.update(facts)
    return out


# ---------------------------------------------------------------- encode-long

ENCODE_CONFIG = dict(num_layers=2, d_model=64, num_heads=4, vocab_size=5000, max_seq_len=128)
ENCODE_LENGTHS = (16, 128)
# A packed batch of 8 holds ~580 tokens. Its N x N attention arrays are a
# quarter of the size they have at 16, and its timing swings far less with
# memory traffic from other processes.
PACKED_BATCH = 8
PACKED_BATCHES = 8
# An untrained MLM head emits ~4,900 of 5,000 terms; this vocabulary bias
# leaves about 100 to 150 terms per document (``heads.doc_terms``).
ENCODE_BIAS = -0.52
PACKED_TOLERANCE = 1e-12


@dataclass
class EncodeInputs:
    encoder: object
    docs: list


def _encode_setup(ctx: Context) -> EncodeInputs:
    config = backbones.BackboneConfig(
        backbones.Variant.ENCDEC_MULTITOKENS, seed=ctx.seed, **ENCODE_CONFIG
    )
    fresh = model.SparseEncoder.build(config, heads.HeadKind.MLM_MULTITOKENS)
    fresh.head.b_vocab.data = np.full(config.vocab_size, ENCODE_BIAS)
    path = ctx.path("encode-long.ckpt")
    fresh.save(path)
    encoder, _ = model.SparseEncoder.load(path)
    rng = np.random.default_rng(ctx.seed)
    docs = [
        rng.integers(text.NUM_SPECIALS, config.vocab_size, size=n).tolist()
        for n in stratified_lengths(rng)
    ]
    return EncodeInputs(encoder, docs)


def stratified_lengths(rng: np.random.Generator) -> np.ndarray:
    """P95_SAMPLES lengths over ENCODE_LENGTHS. Every run of PACKED_BATCH of
    them draws one length from each of PACKED_BATCH equal strata, in
    shuffled order: each packed batch spans the whole range, and batches
    cost about the same."""
    lo, hi = ENCODE_LENGTHS
    edges = np.linspace(lo, hi + 1, PACKED_BATCH + 1)
    batches = []
    for _ in range(P95_SAMPLES // PACKED_BATCH):
        draw = np.floor(rng.uniform(edges[:-1], edges[1:])).astype(int)
        batches.append(rng.permutation(draw))
    return np.concatenate(batches)


def _dense_gap(a: heads.SparseVector, b: heads.SparseVector) -> float:
    terms = a.entries.keys() | b.entries.keys()
    return max((abs(a.entries.get(t, 0.0) - b.entries.get(t, 0.0)) for t in terms), default=0.0)


def encode_long(ctx: Context) -> dict:
    setup = Setup(ctx, _encode_setup)
    encoder, docs = setup.inputs.encoder, setup.inputs.docs
    batches = [docs[i : i + PACKED_BATCH] for i in range(0, len(docs), PACKED_BATCH)]

    def encode_packed(batch):
        acts = encoder.batch_activations(batch)
        return [heads.SparseVector.from_dense(row) for row in acts.data]

    single = BestOf(ctx, docs, encoder.encode, "single")
    packed = BestOf(ctx, batches[:PACKED_BATCHES], encode_packed, "packed")
    # Packed batches are few and memory-bound, so they get two passes to
    # each pass of the per-sequence path.
    for _ in range(ctx.passes):
        packed.run_pass()
        single.run_pass()
        packed.run_pass()
        setup.after_pass()
    encode_ms = _ms(single.seconds())
    batch_rates = [PACKED_BATCH / s for s in packed.seconds()]
    packed_vecs = [vec for batch in packed.results for vec in batch]

    for i, (a, b) in enumerate(zip(single.results, packed_vecs)):
        gap = _dense_gap(a, b)
        ctx.outcomes.check(gap <= PACKED_TOLERANCE, f"doc {i}: packed path differs by {gap:.3g}")
    ctx.exact["heads.doc_terms"] = float(np.mean([len(v) for v in single.results]))
    ctx.facts.update(ctx.exact)
    ctx.samples.update({"latency_ms (docs, per sequence)": len(encode_ms),
                        f"throughput_per_s (batches of {PACKED_BATCH})": len(batch_rates),
                        "setup_s (set-ups)": len(setup.spans)})
    ctx.facts["host.kernel_ms"] = _p50_ms(ctx.clock.kernel_seconds)
    return {
        "setup_s": setup.seconds(),
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms_p50": median(encode_ms),
        "latency_ms_p95": tail_percentile(encode_ms),
        "throughput_per_s": median(batch_rates),
    }


def encode_long_layers(spans, facts) -> dict:
    outer = "model.SparseEncoder.encode"
    out = {
        "backbones.encode_ms_p50": _p50_ms(durations(spans, "backbones.Backbone.encode", "single")),
        "backbones.attention_ms_p50": _p50_ms(
            totals_within(spans, outer, "backbones.MultiHeadAttention", "single")),
        "heads.mlm_head_ms_p50": _p50_ms(durations(spans, "heads.mlm_head", "single")),
        "backbones.batch_forward_ms_p50": _p50_ms(
            durations(spans, "backbones.Backbone.encode_batch", "packed")),
        "heads.batch_activations_ms_p50": _p50_ms(
            durations(spans, "heads.mlm_batch_activations", "packed")),
        "heads.from_dense_ms_p50": _p50_ms(
            _batched_sums(durations(spans, "heads.SparseVector.from_dense", "packed"), PACKED_BATCH)),
        "model.checkpoint_save_s": median(durations(spans, "model.SparseEncoder.save", "setup")),
        "model.checkpoint_load_s": median(durations(spans, "model.SparseEncoder.load", "setup")),
    }
    out.update(facts)
    return out


def _batched_sums(values, size):
    return [sum(values[i : i + size]) for i in range(0, len(values) - size + 1, size)]


# name -> (run, per-layer figures, seconds one pass takes on a 2-CPU x86
# host, set-ups in a run). A run makes max(1, round(--seconds / pass
# seconds)) passes: the work is fixed by --seconds and the seed, never by
# elapsed time, so the sample sets are the same on a fast and a slow run.
# The shorter a set-up, the more of them its median is taken over.
WORKLOADS = {
    "train-variants": (train_variants, train_variants_layers, 10.0, 9),
    "encode-long": (encode_long, encode_long_layers, 8.0, 15),
}
