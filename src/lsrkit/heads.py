"""Sparse representation heads and the SparseVector carrier.

Two head families turn backbone hidden states into vocabulary-sized
sparse vectors:

  MLP   per-position scalar log(1 + ReLU(h_j W + b)) summed into the
        position's own input term; terms absent from the input stay zero.
  MLM   per-position logits against the tied token embedding table,
        log(1 + ReLU(h_j . e_i + b_i)), pooled over positions by
        entrywise max (single-token mode uses the one available state).

The *_batch_activations functions are the one encode path: they score a
packed batch with one matmul per head (the MLM logits are a single
[rows, d] @ [d, |V|] product) and keep the dense pre-sparsification
activations inside the gradient graph. Training calls them directly and
SparseEncoder.encode calls them on a batch of one. The per-position
mlp_head and mlm_head functions are the reference implementations the
head laws and tests compare against; they return a SparseVector.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import ParamRegistry
from .errors import ContractError, FormatError, ShapeError


class SparseVector:
    """Map from vocabulary term id to a strictly positive weight."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, float] | None = None):
        clean: dict[int, float] = {}
        if entries:
            for t, w in entries.items():
                w = float(w)
                if w < 0.0 or not np.isfinite(w):
                    raise ContractError(f"weight for term {t} must be finite and >= 0")
                if w > 0.0:
                    clean[int(t)] = w
        self.entries = clean

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SparseVector({len(self.entries)} terms)"

    def support(self) -> set[int]:
        return set(self.entries)

    def dot(self, other: "SparseVector") -> float:
        return sparse_dot(self, other)

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "SparseVector":
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        (nz,) = np.nonzero(values > 0.0)
        return cls({int(i): float(values[i]) for i in nz})


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


class HeadKind(str, Enum):
    MLP = "mlp"
    MLM_SINGLETOKEN = "mlm_singletoken"
    MLM_MULTITOKENS = "mlm_multitokens"


class SparseHead:
    """Head parameters: a linear scorer for MLP, a vocab bias for MLM.

    The MLM projection matrix is the backbone's token embedding table and
    is deliberately not owned here. ``pooling`` selects max (default) or
    sum aggregation over positions for the multi-token MLM head.
    """

    def __init__(
        self,
        kind: HeadKind,
        d_model: int,
        vocab_size: int,
        rng: np.random.Generator | None = None,
        pooling: str = "max",
    ):
        if pooling not in ("max", "sum"):
            raise ContractError(f"unknown pooling {pooling!r}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.kind = HeadKind(kind)
        self.pooling = pooling
        self.vocab_size = vocab_size
        reg = ParamRegistry()
        self._registry = reg
        if self.kind == HeadKind.MLP:
            self.w = reg.add("w", rng.normal(0.0, 0.02, size=(d_model, 1)))
            self.b = reg.add("b", np.zeros(1))
        else:
            self.b_vocab = reg.add("b_vocab", np.zeros(vocab_size))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return self._registry.items()


def mlp_head(h: Tensor, tokens, cfg: SparseHead) -> SparseVector:
    """Term-weighting head: only input tokens receive weight.

    Repeated occurrences of a term accumulate their log-saturated scores.
    """
    if cfg.kind != HeadKind.MLP:
        raise ContractError("mlp_head requires an MLP head")
    tokens = np.asarray(tokens, dtype=np.intp)
    if h.data.ndim != 2 or h.data.shape[0] != tokens.shape[0]:
        raise ShapeError(
            f"hidden states {h.data.shape} do not align with {tokens.shape[0]} tokens"
        )
    scores = ad.log1p(ad.relu(ad.add(ad.matmul(h, cfg.w), cfg.b)))
    weights: dict[int, float] = {}
    for j, t in enumerate(tokens):
        s = float(scores.data[j, 0])
        if s > 0.0:
            weights[int(t)] = weights.get(int(t), 0.0) + s
    return SparseVector(weights)


def _mlm_position_activations(h_row: Tensor, emb: Tensor, cfg: SparseHead) -> np.ndarray:
    logits = ad.add(ad.matmul(h_row, ad.transpose(emb)), cfg.b_vocab)
    return ad.log1p(ad.relu(logits)).data[0]


def mlm_head(h: Tensor, backbone_embeddings: Tensor, cfg: SparseHead) -> SparseVector:
    """Expansion head: any vocabulary term may receive weight.

    Positions are scored independently and pooled entrywise, so the
    multi-token output equals the exact positionwise max (or sum) of
    single-token outputs.
    """
    if cfg.kind not in (HeadKind.MLM_SINGLETOKEN, HeadKind.MLM_MULTITOKENS):
        raise ContractError("mlm_head requires an MLM head")
    m = h.data.shape[0]
    if cfg.kind == HeadKind.MLM_SINGLETOKEN and m != 1:
        raise ContractError(f"single-token MLM head got {m} hidden states")
    rows = [
        _mlm_position_activations(ad.gather_rows(h, [j]), backbone_embeddings, cfg)
        for j in range(m)
    ]
    if cfg.pooling == "sum" and cfg.kind == HeadKind.MLM_MULTITOKENS:
        dense = np.sum(rows, axis=0)
    else:
        dense = np.maximum.reduce(rows)
    return SparseVector.from_dense(dense)


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


def mlp_batch_activations(
    states: Tensor, starts: np.ndarray, token_ids: np.ndarray, cfg: SparseHead
) -> Tensor:
    """Dense [B, |V|] MLP activations for a packed batch (gradients flow)."""
    if states.data.shape[0] != token_ids.shape[0]:
        raise ContractError("MLP head requires token-aligned hidden states")
    scores = ad.log1p(ad.relu(ad.add(ad.matmul(states, cfg.w), cfg.b)))
    num_seqs = len(starts) - 1
    rows = np.repeat(np.arange(num_seqs), np.diff(starts))
    return ad.scatter_add_pairs(
        ad.reshape(scores, (-1,)), rows, token_ids, (num_seqs, cfg.vocab_size)
    )


def mlm_batch_activations(states: Tensor, starts: np.ndarray, emb: Tensor, cfg: SparseHead) -> Tensor:
    """Dense [B, |V|] MLM activations for a packed batch (gradients flow)."""
    logits = ad.add(ad.matmul(states, ad.transpose(emb)), cfg.b_vocab)
    acts = ad.log1p(ad.relu(logits))
    if len(starts) - 1 == states.data.shape[0]:
        return acts  # one state per sequence; pooling is the identity
    if cfg.pooling == "sum" and cfg.kind == HeadKind.MLM_MULTITOKENS:
        return ad.segment_sum(acts, starts)
    return ad.segment_max(acts, starts)


def format_vector_line(name: str, vec: SparseVector) -> str:
    body = " ".join(f"{t}:{vec.entries[t]:.6f}" for t in sorted(vec.entries))
    return f"{name}\t{body}"


def parse_vector_line(line: str, lineno: int = 0) -> tuple[str, SparseVector]:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: expected 'name<TAB>entries'")
    name, body = parts
    entries: dict[int, float] = {}
    for chunk in body.split():
        term, _, weight = chunk.partition(":")
        try:
            t, w = int(term), float(weight)
        except ValueError:
            raise FormatError(f"line {lineno}: bad entry {chunk!r}") from None
        if t < 0:
            raise FormatError(f"line {lineno}: negative term id {t}")
        if t in entries:
            raise FormatError(f"line {lineno}: duplicate term {t}")
        entries[t] = w
    try:
        return name, SparseVector(entries)
    except ContractError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def write_vectors(path, items) -> None:
    """Write (name, SparseVector) records, one per line, in input order."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, vec in items:
            fh.write(format_vector_line(name, vec) + "\n")


def read_vectors(path) -> list[tuple[str, SparseVector]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                out.append(parse_vector_line(line, lineno))
    return out
