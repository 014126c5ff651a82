#!/usr/bin/env python3
"""Print one SHA-256 over the bits that training and encoding produce.

Covers, in a fixed order:
  * a 200-step training run of each of the four benchmarked backbone/head
    pairings on toy tasks of seeds 3 and 5: every step's loss and grad
    norm, the final parameters, the checkpoint bytes, and the contents of an
    index over the trained model's doc vectors, as ``load_index`` reads it
    back after ``save_index``, so the index file's layout is not hashed;
  * the untaped activations of the encoder-decoder multi-token MLM model
    at encode scale (d=64, 2 layers, |V|=5000), for packed batches of 8
    sequences of 16-128 tokens and for each sequence on its own.

A change that claims to keep every bit must leave the printed value as it
is; ``tests/test_bit_digest.py`` pins it. Takes a few seconds.

    PYTHONPATH=src python3 scripts/bit_digest.py
"""

import hashlib
import pathlib
import struct
import sys
import tempfile

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

import toytask  # noqa: E402
from lsrkit.backbones import BackboneConfig, Variant  # noqa: E402
from lsrkit.heads import HeadKind  # noqa: E402
from lsrkit.index import build_index, load_index, save_index  # noqa: E402
from lsrkit.model import SparseEncoder  # noqa: E402
from lsrkit.text import build_vocab, tokenize  # noqa: E402
from lsrkit.training import TrainConfig, TrainingTriplet, train  # noqa: E402

SEEDS = (3, 5)
# (backbone, head, FLOPs weight), as the train-variants benchmark runs them.
PAIRINGS = (
    ("encoder_only", "mlp", 3.0),
    ("decoder_multitokens", "mlm_multitokens", 3.0),
    ("encdec_singletoken", "mlm_singletoken", 0.01),
    ("encdec_multitokens", "mlm_multitokens", 1.0),
)
TRAIN_SHAPE = dict(num_layers=1, d_model=32, num_heads=2, max_seq_len=16)
TRAIN_KW = dict(total_steps=200, batch_size=16, learning_rate=3e-3, warmup_steps=20,
                lambda_ramp_steps=100, log_every=1)
ENCODE_CONFIG = dict(num_layers=2, d_model=64, num_heads=4, vocab_size=5000, max_seq_len=128)
ENCODE_BATCHES, ENCODE_BATCH = 4, 8


def _floats(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def _index(h, index) -> None:
    """Doc count, names, then each term's id, length, doc ids and impacts."""
    h.update(struct.pack("<Q", index.doc_count))
    for name in index.doc_names:
        encoded = name.encode("utf-8")
        h.update(struct.pack("<Q", len(encoded)) + encoded)
    bounds = index.starts.tolist()
    for term, start, end in zip(index.terms.tolist(), bounds, bounds[1:]):
        h.update(struct.pack("<QQ", term, end - start))
        h.update(index.doc_ids[start:end].astype("<i8").tobytes()
                 + index.impacts[start:end].astype("<f4").tobytes())


def _training(h, tmp: pathlib.Path) -> None:
    for seed in SEEDS:
        corpus, rows, _, _ = toytask.make_toy_task(seed)
        vocab = build_vocab(corpus)
        max_len = TRAIN_SHAPE["max_seq_len"]
        triplets = [
            TrainingTriplet(*(tuple(tokenize(vocab, s, max_len)) for s in (q, p, n)), tp, tn)
            for q, p, n, tp, tn in rows
        ]
        for i, (variant, head, lam) in enumerate(PAIRINGS):
            config = BackboneConfig(Variant(variant), vocab_size=len(vocab), seed=seed + i,
                                    **TRAIN_SHAPE)
            model = SparseEncoder.build(config, HeadKind(head))
            cfg = TrainConfig(seed=seed, lambda_q=lam, lambda_d=lam, **TRAIN_KW)
            reports = train(model, triplets, cfg, checkpoint_path=tmp / "model.ckpt")
            h.update(f"train {seed} {variant}/{head}".encode())
            h.update(_floats([(r.loss, r.grad_norm) for r in reports]))
            for name, tensor in model.parameters():
                h.update(name.encode() + _floats(tensor.data))
            h.update((tmp / "model.ckpt").read_bytes())
            docs = [(name, model.encode(tokenize(vocab, text, max_len)))
                    for name, text in corpus.items()]
            save_index(build_index(docs), tmp / "docs.idx")
            _index(h, load_index(tmp / "docs.idx"))


def _encoding(h) -> None:
    config = BackboneConfig(Variant.ENCDEC_MULTITOKENS, seed=7, **ENCODE_CONFIG)
    model = SparseEncoder.build(config, HeadKind.MLM_MULTITOKENS)
    rng = np.random.default_rng(7)
    for b in range(ENCODE_BATCHES):
        batch = [rng.integers(4, config.vocab_size, size=n).tolist()
                 for n in rng.integers(16, 129, size=ENCODE_BATCH)]
        h.update(f"packed {b}".encode() + _floats(model.batch_activations(batch).data))
        for doc in batch:
            h.update(_floats(model.batch_activations([doc]).data))


def digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        _training(h, pathlib.Path(tmp))
    _encoding(h)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
