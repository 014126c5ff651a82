"""Sparse representation heads and the SparseVector carrier.

Two head families turn backbone hidden states into vocabulary-sized
sparse vectors:

  MLP   per-position scalar log(1 + ReLU(h_j W + b)) summed into the
        position's own input term; terms absent from the input stay zero.
  MLM   per-position logits against the tied token embedding table,
        log(1 + ReLU(h_j . e_i + b_i)), pooled over positions by
        entrywise max (single-token mode uses the one available state).

The *_batch_activations functions are the one encode path: they score a
packed batch and keep the dense pre-sparsification activations inside the
gradient graph. Training calls them directly and SparseEncoder.encode calls
them on a batch of one. The max-pooled MLM head projects, pools, then
activates: ReLU, log1p and float rounding are monotone, so activating the
pooled logits gives the bits of pooling activated ones, and only [B, |V|]
values pass through the activation and its backward. Sum pooling is not
monotone-compatible and activates every position first. Untaped max pooling
scores fixed vocabulary blocks on all CPUs, or inline in a packed batch's
units. The per-position mlp_head and mlm_head functions are the reference
implementations the head laws and tests compare against; they return a
SparseVector.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import pairwise

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import _normal, _param
from .errors import ContractError, FormatError, ShapeError
from .text import checked_name, is_name, read_records, write_output


class SparseVector:
    """Map from vocabulary term id to a strictly positive weight."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, float] | None = None):
        clean: dict[int, float] = {}
        if entries:
            for t, w in entries.items():
                w = float(w)
                if w < 0.0 or not math.isfinite(w):
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

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "SparseVector":
        """Vector of the strictly positive entries of a dense row.

        Zero and negative entries (-inf too) are dropped; NaN or +inf raises
        ContractError naming the lowest such term, as the constructor does.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        nz = np.flatnonzero(values > 0.0)
        weights = values[nz]
        if np.isnan(values).any() or not np.isfinite(weights).all():
            term = np.flatnonzero(np.isnan(values) | (values == np.inf))[0]
            raise ContractError(f"weight for term {term} must be finite and >= 0")
        vec = cls()
        vec.entries = dict(zip(nz.tolist(), weights.tolist()))
        return vec


class HeadKind(str, Enum):
    MLP = "mlp"
    MLM_SINGLETOKEN = "mlm_singletoken"
    MLM_MULTITOKENS = "mlm_multitokens"


class SparseHead:
    """Head parameters: a linear scorer for MLP, a vocab bias for MLM.

    The MLM projection matrix is the backbone's token embedding table and
    is deliberately not owned here. ``pooling`` selects max (default) or
    sum aggregation over positions; only the multi-token MLM head may sum.
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
        self.kind = HeadKind(kind)
        if pooling == "sum" and self.kind != HeadKind.MLM_MULTITOKENS:
            raise ContractError(f"pooling sum needs kind mlm_multitokens, not {self.kind.value}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.pooling = pooling
        self.vocab_size = vocab_size
        params = self._params = []
        if self.kind == HeadKind.MLP:
            self.w = _param(params, "w", _normal(rng, (d_model, 1)))
            self.b = _param(params, "b", np.zeros(1))
        else:
            self.b_vocab = _param(params, "b_vocab", np.zeros(vocab_size))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params)


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
    scores = ad.log1p(ad.relu(ad.linear(h, cfg.w, cfg.b)))
    weights: dict[int, float] = {}
    for j, t in enumerate(tokens):
        s = float(scores.data[j, 0])
        if s > 0.0:
            weights[int(t)] = weights.get(int(t), 0.0) + s
    return SparseVector(weights)


def _mlm_position_activations(h_row: Tensor, emb: Tensor, cfg: SparseHead) -> np.ndarray:
    logits = ad.linear(h_row, ad.transpose(emb), cfg.b_vocab)
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
    if cfg.pooling == "sum":
        dense = np.sum(rows, axis=0)
    else:
        dense = np.maximum.reduce(rows)
    return SparseVector.from_dense(dense)


def mlp_batch_activations(
    states: Tensor, starts: np.ndarray, token_ids: np.ndarray, cfg: SparseHead
) -> Tensor:
    """Dense [B, |V|] MLP activations for a packed batch (gradients flow)."""
    if states.data.shape[0] != token_ids.shape[0]:
        raise ContractError("MLP head requires token-aligned hidden states")
    scores = ad.log1p(ad.relu(ad.linear(states, cfg.w, cfg.b)))
    num_seqs = len(starts) - 1
    rows = np.repeat(np.arange(num_seqs), np.diff(starts))
    return ad.scatter_add_pairs(scores, rows, token_ids, (num_seqs, cfg.vocab_size))


def mlm_batch_activations(states: Tensor, starts: np.ndarray, emb: Tensor, cfg: SparseHead) -> Tensor:
    """Dense [B, |V|] MLM activations for a packed batch (gradients flow).

    Every max-pooled or single-state batch builds the pooled logits, then
    applies log1p(relu(.)) to those [B, |V|] values only. Under a tape the
    logits are one [N, d] @ [d, |V|] product, max-pooled by ``segment_max``;
    a single-state batch's pooling is the identity. With no tape, each
    sequence's [n, d] @ [d, block] product is max-pooled into its row for
    each of max(1, |V| // 1024) column blocks: each starts on a multiple of
    64 and is 1,024 to 2,111 wide, so OpenBLAS keeps the whole product's bits.
    ``ad.for_each`` spreads the blocks over the CPUs; head memory is one
    block of one sequence's logits per CPU plus the output.
    """
    one_state = len(starts) - 1 == states.data.shape[0]
    sum_pooled = cfg.pooling == "sum" and not one_state
    if ad.recording() or one_state or sum_pooled:
        logits = ad.linear(states, ad.transpose(emb), cfg.b_vocab)
        if sum_pooled:
            return ad.segment_sum(ad.log1p(ad.relu(logits)), starts)
        pooled = logits if one_state else ad.segment_max(logits, starts)
    else:
        vocab = emb.data.shape[0]
        blocks = max(1, vocab // 1024)
        cuts = [64 * (c * vocab // (64 * blocks)) for c in range(blocks)] + [vocab]
        maxima = np.empty((len(starts) - 1, vocab))

        def score(cut):
            for i, (a, b) in enumerate(pairwise(starts.tolist())):
                np.max(states.data[a:b] @ emb.data[cut].T, axis=0, out=maxima[i, cut])

        ad.for_each(score, [slice(c0, c1) for c0, c1 in pairwise(cuts)])
        maxima += cfg.b_vocab.data
        pooled = Tensor(maxima)
    return ad.log1p(ad.relu(pooled))


def format_vector_line(name: str, vec: SparseVector) -> str:
    body = " ".join(f"{t}:{vec.entries[t]:.6f}" for t in sorted(vec.entries))
    return f"{name}\t{body}"


def write_vectors(path, items) -> None:
    """Write (name, SparseVector) records, one per line, in input order; a
    name that is empty or holds whitespace raises ContractError and leaves
    any old file as it was."""
    lines = (format_vector_line(checked_name("vector name", name), vec) for name, vec in items)
    write_output(path, (line.encode("utf-8") + b"\n" for line in lines))


def read_vectors(path) -> list[tuple[str, SparseVector]]:
    """Read (name, SparseVector) records in file order; names are unique and pass ``is_name``."""
    vectors: dict[str, SparseVector] = {}
    for lineno, (name, body) in read_records(path, 2, "'name<TAB>entries'"):
        where = f"{path}:{lineno}"
        if not is_name(name):
            raise FormatError(f"{where}: name {name!r} is empty or holds whitespace")
        if name in vectors:
            raise FormatError(f"{where}: duplicate name {name!r}")
        entries: dict[int, float] = {}
        for chunk in body.split():
            term, _, weight = chunk.partition(":")
            try:
                t, w = int(term), float(weight)
            except ValueError:
                raise FormatError(f"{where}: bad entry {chunk!r}") from None
            if not 0 <= t < 2**32:  # index files store term ids as u32
                raise FormatError(f"{where}: term id {t} outside [0, 2**32)")
            if t in entries:
                raise FormatError(f"{where}: duplicate term {t}")
            entries[t] = w
        try:
            vectors[name] = SparseVector(entries)
        except ContractError as exc:
            raise FormatError(f"{where}: {exc}") from None
    return list(vectors.items())
