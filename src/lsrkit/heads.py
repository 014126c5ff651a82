"""Sparse representation heads and the SparseVector carrier.

Two head families turn backbone hidden states into vocabulary-sized
sparse vectors:

  MLP   per-position scalar log(1 + ReLU(h_j W + b)) summed into the
        position's own input term; terms absent from the input stay zero.
  MLM   per-position logits against the tied token embedding table,
        log(1 + ReLU(h_j . e_i + b_i)), pooled over positions by
        entrywise max (single-token mode uses the one available state).

The *_batch_activations functions are each head's one implementation: they
score a packed batch whose ``starts`` cut the states into non-empty
sequences (1-D integers from 0 to the row count, strictly ascending, else
ShapeError) and keep the dense activations in the gradient graph. Training
and SparseEncoder.encode call them. The max-pooled MLM head projects, pools,
then activates: ReLU, log1p and float rounding are monotone, so activating
the pooled logits gives the bits of pooling activated ones. Sum pooling
activates every position first. Untaped max pooling scores fixed vocabulary
blocks in turn, in the calling thread. mlp_head and mlm_head return one
sequence's SparseVector from these batch heads (the per-position MLP oracle
is in tests/reference.py). mlm_head scores each position as a batch of one:
an n-row logit product differs in the last bit from n one-row products (in
nearly every random draw of n >= 2 rows), and the law that the multi-token
head is the positionwise max of single-token heads is exact only per row.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from itertools import pairwise

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import _constant, _normal, _param, checked_tokens
from .errors import ContractError, EmptyInputError, FormatError, ShapeError
from .text import checked_name, is_name, parse_number, read_records, write_output


class SparseVector:
    """Map from an int term id in [0, 2**32) (``operator.index``, no bool) to a weight > 0."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, float] | None = None):
        clean: dict[int, float] = {}
        if entries:
            for t, w in entries.items():
                if isinstance(t, bool) or not hasattr(type(t), "__index__"):
                    raise ContractError(f"term {t!r} is not an integer id")
                t = operator.index(t)
                if not 0 <= t < 2**32:
                    raise ContractError(f"term id {t} outside [0, 2**32)")
                w = float(w)
                if w < 0.0 or not math.isfinite(w):
                    raise ContractError(f"weight for term {t} must be finite and >= 0")
                if w > 0.0:
                    clean[t] = w
        self.entries = clean

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SparseVector({len(self.entries)} terms)"

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "SparseVector":
        """Vector of the strictly positive entries of one dense row.

        Zero and negative entries (-inf too) are dropped; NaN or +inf raises
        ContractError naming the lowest such term, as the constructor does.
        Any shape but [|V|] raises ShapeError.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError(f"from_dense takes one row, not an array of shape {values.shape}")
        nz = (values > 0.0).nonzero()[0]
        weights = values[nz]
        if np.logical_or.reduce(np.isnan(values)) or not np.logical_and.reduce(np.isfinite(weights)):
            term = (np.isnan(values) | (values == np.inf)).nonzero()[0][0]
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
            self.b = _param(params, "b", _constant(rng, 1, 0.0))
        else:
            self.b_vocab = _param(params, "b_vocab", _constant(rng, vocab_size, 0.0))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params)


def mlp_head(h: Tensor, tokens, cfg: SparseHead) -> SparseVector:
    """Term-weighting head on one sequence: only input tokens receive weight,
    and repeated occurrences of a term add up their log-saturated scores.
    ``tokens`` follow the backbone's token rule (``checked_tokens``)."""
    if cfg.kind != HeadKind.MLP:
        raise ContractError("mlp_head requires an MLP head")
    tokens, _ = checked_tokens([tokens], cfg.vocab_size, math.inf)
    acts = mlp_batch_activations(h, np.array([0, len(tokens)]), tokens, cfg)
    return SparseVector.from_dense(acts.data[0])


def mlm_head(h: Tensor, backbone_embeddings: Tensor, cfg: SparseHead) -> SparseVector:
    """Expansion head on one sequence: any vocabulary term may receive
    weight. Positions are scored one at a time and pooled entrywise, so the
    multi-token output is the exact positionwise max (or sum) of single-token
    outputs."""
    if cfg.kind not in (HeadKind.MLM_SINGLETOKEN, HeadKind.MLM_MULTITOKENS):
        raise ContractError("mlm_head requires an MLM head")
    m = h.data.shape[0]
    if m == 0:
        raise EmptyInputError("mlm_head needs at least one hidden state")
    if cfg.kind == HeadKind.MLM_SINGLETOKEN and m != 1:
        raise ContractError(f"single-token MLM head got {m} hidden states")
    one = np.array([0, 1])
    rows = [mlm_batch_activations(ad.gather_rows(h, [j]), one, backbone_embeddings, cfg).data[0]
            for j in range(m)]
    pool = np.add if cfg.pooling == "sum" else np.maximum
    return SparseVector.from_dense(pool.reduce(rows, 0))


def mlp_batch_activations(
    states: Tensor, starts: np.ndarray, token_ids: np.ndarray, cfg: SparseHead
) -> Tensor:
    """Dense [B, |V|] MLP activations for a packed batch (gradients flow);
    states, token ids and starts that do not align raise ShapeError."""
    bounds = ad._check_offsets(starts, states.data)
    scores = ad.log1p_relu(ad.linear(states, cfg.w, cfg.b))
    num_seqs = len(bounds) - 1
    rows = np.arange(num_seqs).repeat(np.subtract(bounds[1:], bounds[:-1]))
    return ad.scatter_add_pairs(scores, rows, token_ids, (num_seqs, cfg.vocab_size))


def mlm_batch_activations(states: Tensor, starts: np.ndarray, emb: Tensor, cfg: SparseHead) -> Tensor:
    """Dense [B, |V|] MLM activations for a packed batch (gradients flow).

    Every max-pooled or single-state batch builds the pooled logits, then
    applies log1p_relu to those [B, |V|] values only. Under a tape the
    logits are one [N, d] @ [d, |V|] product, max-pooled by ``segment_max``;
    a single-state batch's pooling is the identity. With no tape, each
    sequence's [n, d] @ [d, block] product is max-pooled into its row for
    each of max(1, |V| // 1024) column blocks: each starts on a multiple of
    64 and is 1,024 to 2,111 wide, so OpenBLAS keeps the whole product's bits.
    The blocks run in the calling thread, so head memory is one block of one
    sequence's logits plus the output.
    """
    bounds = ad._check_offsets(starts, states.data)
    one_state = len(bounds) - 1 == states.data.shape[0]
    sum_pooled = cfg.pooling == "sum" and not one_state
    if ad.recording() or one_state or sum_pooled:
        logits = ad.linear(states, ad.transpose(emb), cfg.b_vocab)
        if sum_pooled:
            return ad.segment_sum(ad.log1p_relu(logits), starts)
        pooled = logits if one_state else ad.segment_max(logits, starts)
    else:
        vocab = emb.data.shape[0]
        blocks = max(1, vocab // 1024)
        cuts = [64 * (c * vocab // (64 * blocks)) for c in range(blocks)] + [vocab]
        maxima = np.empty((len(starts) - 1, vocab))
        for c0, c1 in pairwise(cuts):
            block = emb.data[c0:c1].T
            for i, (a, b) in enumerate(pairwise(bounds)):
                np.maximum.reduce(states.data[a:b] @ block, 0, out=maxima[i, c0:c1])
        maxima += cfg.b_vocab.data
        pooled = Tensor(maxima)
    return ad.log1p_relu(pooled)


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
                t, w = parse_number(int, term), parse_number(float, weight)
            except ValueError:
                raise FormatError(f"{where}: bad entry {chunk!r}") from None
            if t in entries:
                raise FormatError(f"{where}: duplicate term {t}")
            entries[t] = w
        try:
            vectors[name] = SparseVector(entries)
        except ContractError as exc:
            raise FormatError(f"{where}: {exc}") from None
    return list(vectors.items())
