"""Test oracles and reference implementations that the package itself does not use."""

from itertools import pairwise

import numpy as np

from lsrkit import autodiff as ad
from lsrkit.autodiff import MASK_NEG, Tensor, _accum, _accum_owned, _record, recording
from lsrkit.backbones import Backbone, Variant
from lsrkit.errors import ContractError, DegenerateMaskError, ShapeError
from lsrkit.heads import HeadKind, SparseHead, SparseVector, mlm_head
from lsrkit.text import NUM_SPECIALS, SPECIAL_TOKENS, Vocabulary


def mlm_multitoken_equals_positionwise_max(
    h: Tensor, backbone_embeddings: Tensor, cfg: SparseHead
) -> bool:
    """Oracle: multi-token output == entrywise max of per-position outputs."""
    if cfg.kind != HeadKind.MLM_MULTITOKENS or cfg.pooling != "max":
        raise ContractError("oracle applies to the max-pooled multi-token head")
    multi = mlm_head(h, backbone_embeddings, cfg)
    single_cfg = SparseHead(
        HeadKind.MLM_SINGLETOKEN, h.data.shape[1], cfg.vocab_size
    )
    single_cfg.b_vocab = cfg.b_vocab
    best: dict[int, float] = {}
    for j in range(h.data.shape[0]):
        row = mlm_head(ad.gather_rows(h, [j]), backbone_embeddings, single_cfg)
        for t, w in row.entries.items():
            if w > best.get(t, 0.0):
                best[t] = w
    return multi == SparseVector(best)


def per_sequence_max_logits(
    states: Tensor, starts: np.ndarray, emb: Tensor, cfg: SparseHead
) -> np.ndarray:
    """Oracle for the untaped max-pooled MLM head's pooled logits: each
    sequence's whole-vocabulary [n, d] @ [d, |V|] product, max-pooled into
    its row, plus the vocabulary bias."""
    maxima = np.empty((len(starts) - 1, emb.data.shape[0]))
    for i, (a, b) in enumerate(pairwise(starts.tolist())):
        np.max(states.data[a:b] @ emb.data.T, axis=0, out=maxima[i])
    maxima += cfg.b_vocab.data
    return maxima


def inert_parameter_names(backbone: Backbone) -> set[str]:
    """Parameters that provably cannot affect any output of this variant.

    The single-token variant feeds the decoder exactly one position, so
    its self-attention softmax is the constant 1.0 and the query/key
    projections carry no signal (and can receive no gradient).
    """
    if backbone.config.variant != Variant.ENCDEC_SINGLETOKEN:
        return set()
    names = set()
    for i in range(backbone.config.num_layers):
        for p in ("wq", "wk", "bq", "bk"):
            names.add(f"dec.{i}.attn.{p}")
    return names


def token_of(vocab: Vocabulary, term_id: int) -> str:
    """The token an id stands for: a special token, or a vocabulary line."""
    if 0 <= term_id < NUM_SPECIALS:
        return SPECIAL_TOKENS[term_id]
    return vocab.tokens[term_id - NUM_SPECIALS]


def write_tsv_texts(path, records: dict[str, str]) -> None:
    """Write ``name<TAB>text`` records, the inverse of ``text.read_tsv_texts``."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, text in records.items():
            fh.write(f"{name}\t{text}\n")


# Taped reference ops: fused linear and attention are checked bit for bit
# against compositions of these.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            _accum_owned(a, g @ b.data.T)
        if b.requires_grad:
            _accum_owned(b, a.data.T @ g)

    return _record(out, backward)


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Sum of a rank-2 tensor and a trailing-axis bias."""
    if not (a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]):
        raise ShapeError(f"add_bias shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _record(out, backward)


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax of a rank-2 tensor with an optional additive mask.

    The mask is a constant array of 0 (keep) and :data:`MASK_NEG` (drop);
    a row with every position dropped is an error.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects rank 2, got {x.data.shape}")
    z = x.data
    if mask is not None:
        if mask.shape != z.shape:
            raise ShapeError(f"mask shape {mask.shape} != input shape {z.shape}")
        if float(mask.max(axis=1).min()) <= MASK_NEG:
            raise DegenerateMaskError("softmax row has all positions masked")
        z = z + mask
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p, x.requires_grad)

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        _accum_owned(x, p * (g - dot))

    return _record(out, backward)


def segment_max(x: Tensor, starts: np.ndarray) -> Tensor:
    """Column-wise maxima over contiguous row segments, routed densely.

    The oracle for ``autodiff.segment_max``: it finds the lowest row
    attaining each maximum through [N, |V|] comparison arrays and
    ``np.minimum.reduceat``. A NaN column has no such row, so its backward
    fails; compare only NaN-free inputs.
    """
    data = x.data
    bounds = starts.tolist()
    # One max per segment: exact like np.maximum.reduceat, and several
    # times faster on [N, |V|] rows.
    vals = np.stack([data[a:b].max(axis=0) for a, b in zip(bounds[:-1], bounds[1:])])
    out = Tensor(vals, x.requires_grad)
    if not recording() or not x.requires_grad:
        return out  # no backward will run, so skip the argmax routing
    n_rows, n_cols = data.shape
    n_seg = len(starts) - 1
    cols = np.arange(n_cols)
    seg_of_row = np.repeat(np.arange(n_seg), np.diff(starts))
    # Lowest row attaining each segment max.
    at_max = data == vals[seg_of_row]
    candidates = np.where(at_max, np.arange(n_rows)[:, None], n_rows)
    args = np.minimum.reduceat(candidates, starts[:-1], axis=0)

    def backward(g):
        buf = np.zeros_like(x.data)
        # (args[s, c], c) pairs are unique, so assignment == accumulation.
        buf[args, cols[None, :]] = g
        _accum_owned(x, buf)

    return _record(out, backward)


def sparse_dot(a: SparseVector, b: SparseVector) -> float:
    """Dot product over shared term ids, summed in ascending id order."""
    small, big = (a.entries, b.entries)
    if len(big) < len(small):
        small, big = big, small
    total = 0.0
    for t in sorted(small):
        w = big.get(t)
        if w is not None:
            total += small[t] * w
    return total


def brute_force_search(docs, query: SparseVector, k: int) -> list[tuple[str, float]]:
    """Oracle: score every document with sparse_dot, sort by (-score, doc id)."""
    if k < 0:
        raise ContractError("k must be >= 0")
    scored = []
    for doc_id, (name, vec) in enumerate(docs):
        score = sparse_dot(query, vec)
        if score > 0.0:
            scored.append((score, doc_id, name))
    scored.sort(key=lambda s: (-s[0], s[1]))
    return [(name, score) for score, _, name in scored[:k]]
