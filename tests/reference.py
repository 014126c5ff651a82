"""Test oracles and reference implementations that the package itself does not use."""

from itertools import pairwise

import numpy as np

from lsrkit import autodiff as ad
from lsrkit.autodiff import Tensor, _accum, _accum_owned, _record, recording
from lsrkit.backbones import Backbone, Variant
from lsrkit.errors import ContractError, ShapeError
from lsrkit.heads import HeadKind, SparseHead, SparseVector, mlm_head
from lsrkit.text import NUM_SPECIALS, SPECIAL_TOKENS, Vocabulary

# Additive stand-in for -inf in ``softmax_rows`` masks: a score this far
# below its row's max has exp exactly +0.0.
MASK_NEG = -1e9


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


def mlp_head_per_position(h: Tensor, tokens, cfg: SparseHead) -> SparseVector:
    """Oracle for ``mlp_head``: each position's log-saturated score, added
    into its own token's weight one position at a time."""
    scores = ad.log1p_relu(ad.linear(h, cfg.w, cfg.b))
    weights: dict[int, float] = {}
    for j, t in enumerate(tokens):
        s = float(scores.data[j, 0])
        if s > 0.0:
            weights[int(t)] = weights.get(int(t), 0.0) + s
    return SparseVector(weights)


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


# Taped reference ops: fused linear, log1p_relu and attention are checked
# bit for bit against compositions of these.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        _accum_owned(a, g @ b.data.T)
        _accum_owned(b, a.data.T @ g)

    return _record(out, backward)


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Sum of a rank-2 tensor and a trailing-axis bias."""
    if not (a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]):
        raise ShapeError(f"add_bias shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)

    def backward(g):
        _accum(a, g)
        _accum(b, g.sum(axis=0))

    return _record(out, backward)


def log1p(x: Tensor) -> Tensor:
    """Elementwise log(1 + x), for x > -1."""
    out = Tensor(np.log1p(x.data))

    def backward(g):
        _accum_owned(x, g / (1.0 + x.data))

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
            raise ShapeError("softmax row has all positions masked")
        z = z + mask
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        _accum_owned(x, p * (g - dot))

    return _record(out, backward)


def attention_mask(layout) -> np.ndarray:
    """Oracle for ``~AttentionLayout.visible``, one entry at a time: query row i
    may see key row j (False) when both belong to one sequence and, in a
    causal layout, j's place in that sequence is at most i's."""
    q_starts, kv_starts = layout.q_starts.tolist(), layout.kv_starts.tolist()

    def owners(starts):  # the sequence of each row
        return [s for s in range(len(starts) - 1) for _ in range(starts[s], starts[s + 1])]

    q_owner, kv_owner = owners(q_starts), owners(kv_starts)
    mask = np.ones((q_starts[-1], kv_starts[-1]), dtype=bool)
    for i, s in enumerate(q_owner):
        for j, t in enumerate(kv_owner):
            if s == t and not (layout.causal and j - kv_starts[t] > i - q_starts[s]):
                mask[i, j] = False
    return mask


def attention_mask_blocks(layout) -> np.ndarray:
    """Oracle for ``~AttentionLayout.visible``, one sequence's block at a time:
    every entry hidden, then each sequence's own [n_q, n_kv] block open, or in
    a causal layout hidden above its diagonal only, as ``~np.tri`` hides."""
    mask = np.ones((layout.q_starts[-1], layout.kv_starts[-1]), dtype=bool)
    bounds = (pairwise(np.asarray(s).tolist()) for s in (layout.q_starts, layout.kv_starts))
    for (q0, q1), (k0, k1) in zip(*bounds):
        mask[q0:q1, k0:k1] = ~np.tri(q1 - q0, dtype=bool) if layout.causal else False
    return mask


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
    out = Tensor(vals)
    if not recording():
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
