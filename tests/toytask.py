"""Deterministic synthetic retrieval task shared by CLI and acceptance tests.

Documents are short bags of pseudo-words drawn from a small pool; each
query samples a couple of words from one source document, which is its
single relevant document. Teacher scores separate positives from sampled
negatives by a wide margin.

The committed CLI fixture under tests/data is defined here once: its task
(``FIXTURE_TASK``), its training config (``TOY_CONFIG``) and the pipeline
that produces its golden run (``run_pipeline``).
"""

import pathlib

import numpy as np

from lsrkit.cli import main
from lsrkit.evaluation import mrr_at_k
from lsrkit.heads import SparseVector
from lsrkit.index import build_index, top_k_search
from lsrkit.text import tokenize

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def pseudo_words(count: int, rng: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen = set()
    while len(words) < count:
        n_syll = int(rng.integers(2, 4))
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(n_syll)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def make_toy_task(
    seed: int,
    num_docs: int = 200,
    pool_size: int = 150,
    doc_len: int = 5,
    query_len: int = 3,
    num_train_queries: int = 900,
    num_dev_queries: int = 40,
    teacher_scale: float = 12.0,
):
    """Returns (corpus, train_triplet_rows, dev_queries, qrels).

    corpus: {docname: text}; train rows are the 5 text/score columns of the
    triplet file format; dev_queries: {qid: text}; qrels: {qid: {doc: 1}}.

    Teacher scores come from a lexical matcher, teacher_scale * overlap
    fraction plus slight noise, and half the negatives are hard (share a
    query term), so fitting the margins requires genuine term weighting
    rather than memorized query-document pairings.
    """
    rng = np.random.default_rng(seed)
    pool = pseudo_words(pool_size, rng)
    corpus = {}
    doc_words = []
    word_to_docs: dict[str, list[int]] = {}
    for i in range(num_docs):
        words = [pool[j] for j in rng.choice(pool_size, size=doc_len, replace=False)]
        doc_words.append(words)
        corpus[f"d{i:03d}"] = " ".join(words)
        for w in words:
            word_to_docs.setdefault(w, []).append(i)

    def sample_query():
        doc_idx = int(rng.integers(num_docs))
        picks = rng.choice(doc_len, size=query_len, replace=False)
        return doc_idx, [doc_words[doc_idx][j] for j in picks]

    def teacher(query_words, doc_idx):
        overlap = len(set(query_words) & set(doc_words[doc_idx])) / len(query_words)
        return teacher_scale * overlap + 0.25 * float(rng.uniform(-1.0, 1.0))

    train_rows = []
    for t in range(num_train_queries):
        doc_idx, query_words = sample_query()
        if t % 2 == 0:
            # Hard negative: another document containing one query term.
            anchor = query_words[int(rng.integers(len(query_words)))]
            candidates = [d for d in word_to_docs[anchor] if d != doc_idx]
        else:
            candidates = []
        if candidates:
            neg_idx = int(candidates[int(rng.integers(len(candidates)))])
        else:
            neg_idx = int(rng.integers(num_docs))
            while neg_idx == doc_idx:
                neg_idx = int(rng.integers(num_docs))
        train_rows.append(
            (
                " ".join(query_words),
                corpus[f"d{doc_idx:03d}"],
                corpus[f"d{neg_idx:03d}"],
                teacher(query_words, doc_idx),
                teacher(query_words, neg_idx),
            )
        )

    dev_queries = {}
    qrels = {}
    for q in range(num_dev_queries):
        doc_idx, query_words = sample_query()
        qid = f"q{q:03d}"
        dev_queries[qid] = " ".join(query_words)
        qrels[qid] = {f"d{doc_idx:03d}": 1}
    return corpus, train_rows, dev_queries, qrels


def write_task_files(tmp_path, corpus, train_rows, dev_queries, qrels):
    """Materialize the task in the CLI's file formats; returns the paths."""
    paths = {
        "corpus": tmp_path / "corpus.tsv",
        "triplets": tmp_path / "triplets.tsv",
        "queries": tmp_path / "queries.tsv",
        "qrels": tmp_path / "qrels.txt",
    }
    with open(paths["corpus"], "w") as fh:
        for name, text in corpus.items():
            fh.write(f"{name}\t{text}\n")
    with open(paths["triplets"], "w") as fh:
        for query, pos, neg, tp, tn in train_rows:
            fh.write(f"{query}\t{pos}\t{neg}\t{tp:.4f}\t{tn:.4f}\n")
    with open(paths["queries"], "w") as fh:
        for qid, text in dev_queries.items():
            fh.write(f"{qid}\t{text}\n")
    with open(paths["qrels"], "w") as fh:
        for qid, judged in qrels.items():
            for doc, rel in judged.items():
                fh.write(f"{qid} 0 {doc} {rel}\n")
    return paths


def encode_corpus(model, vocab, corpus) -> list[tuple[str, SparseVector]]:
    max_len = model.backbone.config.max_seq_len
    return [
        (name, model.encode(tokenize(vocab, corpus[name], max_len)))
        for name in sorted(corpus)
    ]


def dev_mrr(model, vocab, corpus, dev_queries, qrels, k: int = 10) -> float:
    """End-to-end toy-dev MRR@k: encode, index, search, evaluate."""
    index = build_index(encode_corpus(model, vocab, corpus))
    max_len = model.backbone.config.max_seq_len
    run = {}
    for qid, text in dev_queries.items():
        qvec = model.encode(tokenize(vocab, text, max_len))
        run[qid] = top_k_search(index, qvec, k)
    return mrr_at_k(run, qrels, k)


def mean_doc_density(model, vocab, corpus) -> float:
    vectors = encode_corpus(model, vocab, corpus)
    return float(np.mean([len(vec) for _, vec in vectors]))


FIXTURE_TASK = dict(
    seed=2024, num_docs=30, pool_size=40, doc_len=5, query_len=3,
    num_train_queries=120, num_dev_queries=8,
)

TOY_CONFIG = """\
[backbone]
variant = encdec_multitokens
num_layers = 1
d_model = 16
num_heads = 2
max_seq_len = 12
seed = 11

[head]
kind = mlm_multitokens

[train]
batch_size = 16
total_steps = 600
warmup_steps = 50
learning_rate = 0.003
lambda_q = 0.02
lambda_d = 0.02
lambda_ramp_steps = 200
seed = 3
log_every = 100

[data]
vocab = tests/data/vocab.txt
triplets = tests/data/triplets.tsv
checkpoint = toy_checkpoint.bin
metrics_log = toy_metrics.jsonl
"""


def write_fixture_inputs(directory) -> None:
    """Write the fixture's corpus, queries, qrels, triplets and toy.ini into ``directory``."""
    directory = pathlib.Path(directory)
    write_task_files(directory, *make_toy_task(**FIXTURE_TASK))
    (directory / "toy.ini").write_text(TOY_CONFIG)


def run_pipeline(data, tmp) -> dict[str, pathlib.Path]:
    """Run the fixture's CLI pipeline on the files in ``data``, writing under
    ``tmp``: train with TOY_CONFIG, encode the corpus and the queries, index
    the doc vectors and search them with ``--k 10 --tag lsrkit-toy``.

    Returns the paths written, by name; a command that exits nonzero raises
    RuntimeError.
    """
    data, tmp = pathlib.Path(data), pathlib.Path(tmp)
    files = [("config", "config.ini"), ("checkpoint", "ckpt.bin"), ("metrics", "metrics.jsonl"),
             ("docs_vec", "docs.vec"), ("queries_vec", "queries.vec"), ("index", "index.lsrx"),
             ("run", "run.txt")]
    paths = {name: tmp / file for name, file in files}
    config = TOY_CONFIG.replace("tests/data/", f"{data}/")
    config = config.replace("toy_checkpoint.bin", str(paths["checkpoint"]))
    paths["config"].write_text(config.replace("toy_metrics.jsonl", str(paths["metrics"])))
    ckpt, vocab = str(paths["checkpoint"]), str(data / "vocab.txt")
    for argv in (
        ["train", "--config", str(paths["config"])],
        ["encode", "--checkpoint", ckpt, "--vocab", vocab, "--input", str(data / "corpus.tsv"),
         "--output", str(paths["docs_vec"]), "--role", "doc"],
        ["encode", "--checkpoint", ckpt, "--vocab", vocab, "--input", str(data / "queries.tsv"),
         "--output", str(paths["queries_vec"]), "--role", "query"],
        ["index", "--vectors", str(paths["docs_vec"]), "--output", str(paths["index"])],
        ["search", "--index", str(paths["index"]), "--queries", str(paths["queries_vec"]),
         "--output", str(paths["run"]), "--k", "10", "--tag", "lsrkit-toy"],
    ):
        if main(argv) != 0:
            raise RuntimeError(f"lsrkit {' '.join(argv)} failed")
    return paths
