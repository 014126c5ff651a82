"""Four transformer backbone variants over one layer stack.

One ``_Stack`` type, built twice, is the encoder and the decoder: token
plus position rows (each an ``autodiff.gather_rows``), pre-layer-norm blocks
and a final layer norm. A variant makes one encoder call, one decoder call
or both; the variants differ only in attention masking, decoder input
wiring, and which hidden states they expose:

  encoder_only          bidirectional stack, one state per input token
  decoder_multitokens   causal stack over [<s>, t_1..t_n], states for t_1..t_n
  encdec_singletoken    encoder memory + a 1-token decoder, single state
  encdec_multitokens    encoder memory + causal decoder over [<s>, t_1..t_n]

Batches are packed: sequences are concatenated row-wise, and an
``autodiff.AttentionLayout`` records which rows belong to which sequence.
Each attention call is three ``linear`` projections, one ``autodiff.attention``
over the layout and the output ``linear``; under a recording Tape that is
five tape entries. ``attention`` keeps sequences apart with the layout's
dense ``visible`` under a tape; without one it loops over sequences.
With no tape, ``SparseEncoder.batch_activations`` spreads a batch over the
process's CPUs as whole units of two sequences, each one packed forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import AttentionLayout, Tensor
from .errors import (
    ContractError,
    EmptyInputError,
    SequenceLengthError,
    VocabError,
)
from .text import NUM_SPECIALS, START_ID


class Variant(str, Enum):
    ENCODER_ONLY = "encoder_only"
    DECODER_MULTITOKENS = "decoder_multitokens"
    ENCDEC_SINGLETOKEN = "encdec_singletoken"
    ENCDEC_MULTITOKENS = "encdec_multitokens"


@dataclass(frozen=True)
class BackboneConfig:
    variant: Variant
    num_layers: int = 2
    d_model: int = 64
    num_heads: int = 4
    vocab_size: int = 0
    max_seq_len: int = 64
    seed: int = 0

    def __post_init__(self):
        if min(self.num_layers, self.d_model, self.num_heads, self.max_seq_len) < 1:
            raise ContractError("num_layers, d_model, num_heads, max_seq_len must be >= 1")
        if self.d_model % self.num_heads != 0:
            raise ContractError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if self.vocab_size < NUM_SPECIALS:
            raise ContractError(f"vocab_size must be >= {NUM_SPECIALS}")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")


def _param(params: list[tuple[str, Tensor]], name: str, data: np.ndarray) -> Tensor:
    """Append ``(name, data)`` to ``params`` as a trainable tensor; return the tensor."""
    t = Tensor(data)
    params.append((name, t))
    return t


class _NoDraws:
    """Random-generator stand-in for building a model that a checkpoint fills.

    Each ``normal`` draw, like each ``_constant`` built with it, is a read-only
    view of the requested shape, so building samples and allocates nothing
    for the arrays the file replaces.
    """

    @staticmethod
    def normal(loc, scale, size):
        return np.broadcast_to(0.0, size)


def _normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(0.0, 0.02, size=shape)


def _constant(rng, shape, value: float) -> np.ndarray:
    return np.broadcast_to(value, shape) if rng is _NoDraws else np.full(shape, value)


class MultiHeadAttention:
    """Projected multi-head attention; q and kv may come from different stacks."""

    def __init__(self, d_model: int, num_heads: int, rng, params: list, prefix: str):
        self.num_heads = num_heads
        self.wq = _param(params, f"{prefix}.wq", _normal(rng, (d_model, d_model)))
        self.wk = _param(params, f"{prefix}.wk", _normal(rng, (d_model, d_model)))
        self.wv = _param(params, f"{prefix}.wv", _normal(rng, (d_model, d_model)))
        self.wo = _param(params, f"{prefix}.wo", _normal(rng, (d_model, d_model)))
        self.bq = _param(params, f"{prefix}.bq", _constant(rng, d_model, 0.0))
        self.bk = _param(params, f"{prefix}.bk", _constant(rng, d_model, 0.0))
        self.bv = _param(params, f"{prefix}.bv", _constant(rng, d_model, 0.0))
        self.bo = _param(params, f"{prefix}.bo", _constant(rng, d_model, 0.0))

    def __call__(self, q: Tensor, kv: Tensor, layout: AttentionLayout) -> Tensor:
        qp = ad.linear(q, self.wq, self.bq)
        kp = ad.linear(kv, self.wk, self.bk)
        vp = ad.linear(kv, self.wv, self.bv)
        ctx = ad.attention(qp, kp, vp, self.num_heads, layout)
        return ad.linear(ctx, self.wo, self.bo)


def _norm(params: list, rng, d_model: int, prefix: str) -> tuple[Tensor, Tensor]:
    """A layer norm's ``{prefix}.gain`` and ``{prefix}.bias``."""
    return (_param(params, f"{prefix}.gain", _constant(rng, d_model, 1.0)),
            _param(params, f"{prefix}.bias", _constant(rng, d_model, 0.0)))


class _Block:
    """Pre-LN transformer block: self-attention, optional cross-attention, FFN."""

    def __init__(self, d_model, num_heads, rng, params, prefix, cross: bool):
        self.ln1 = _norm(params, rng, d_model, f"{prefix}.ln1")
        self.attn = MultiHeadAttention(d_model, num_heads, rng, params, f"{prefix}.attn")
        self.cross_attn = None
        if cross:
            self.ln_cross = _norm(params, rng, d_model, f"{prefix}.ln_cross")
            self.cross_attn = MultiHeadAttention(d_model, num_heads, rng, params, f"{prefix}.cross")
        self.ln2 = _norm(params, rng, d_model, f"{prefix}.ln2")
        d_ff = 4 * d_model
        self.w1 = _param(params, f"{prefix}.ffn.w1", _normal(rng, (d_model, d_ff)))
        self.b1 = _param(params, f"{prefix}.ffn.b1", _constant(rng, d_ff, 0.0))
        self.w2 = _param(params, f"{prefix}.ffn.w2", _normal(rng, (d_ff, d_model)))
        self.b2 = _param(params, f"{prefix}.ffn.b2", _constant(rng, d_model, 0.0))

    def __call__(self, x, self_layout, memory=None, cross_layout=None):
        a = ad.layer_norm(x, *self.ln1)
        x = ad.add(x, self.attn(a, a, self_layout))
        if self.cross_attn is not None:
            c = ad.layer_norm(x, *self.ln_cross)
            x = ad.add(x, self.cross_attn(c, memory, cross_layout))
        h = ad.relu(ad.linear(ad.layer_norm(x, *self.ln2), self.w1, self.b1))
        return ad.add(x, ad.linear(h, self.w2, self.b2))


class _Stack:
    """An encoder or decoder: the position table ``{prefix}_pos``, blocks
    ``{prefix}.{i}`` and the final layer norm ``{prefix}.ln_f``."""

    def __init__(self, config: BackboneConfig, rng, params, prefix, positions, cross: bool):
        d = config.d_model
        self.pos = _param(params, f"{prefix}_pos", _normal(rng, (positions, d)))
        self.blocks = [
            _Block(d, config.num_heads, rng, params, f"{prefix}.{i}", cross)
            for i in range(config.num_layers)
        ]
        self.ln_f = _norm(params, rng, d, f"{prefix}.ln_f")

    def __call__(self, tok_emb, ids, pos, layout, memory=None, cross=None):
        """Embed ``ids`` at positions ``pos``, then run the blocks and ``ln_f``."""
        x = ad.add(ad.gather_rows(tok_emb, ids), ad.gather_rows(self.pos, pos))
        for block in self.blocks:
            x = block(x, layout, memory=memory, cross_layout=cross)
        return ad.layer_norm(x, *self.ln_f)


class Backbone:
    """One of the four variants; owns the shared token embedding table."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator | None = None):
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        params = self._params = []
        self.tok_emb = _param(params, "tok_emb", _normal(rng, (config.vocab_size, config.d_model)))
        self.encoder = self.decoder = None
        if config.variant != Variant.DECODER_MULTITOKENS:
            self.encoder = _Stack(config, rng, params, "enc", config.max_seq_len, cross=False)
        if config.variant != Variant.ENCODER_ONLY:  # row 0 of its position table is the <s> slot
            cross = self.encoder is not None
            self.decoder = _Stack(config, rng, params, "dec", config.max_seq_len + 1, cross)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params)

    def _pack(self, sequences) -> tuple[np.ndarray, np.ndarray]:
        """Packed ids and per-sequence lengths, checked over the whole batch. A
        batch that fails is checked again per sequence: the first bad one
        raises, and sequences that pass only apart (int32 beside uint64) are
        packed from their own checks."""
        sequences = list(sequences)  # iterated more than once
        if not sequences:
            raise EmptyInputError("a batch must hold at least one sequence")
        limits = self.config.vocab_size, self.config.max_seq_len
        try:
            return checked_tokens(sequences, *limits)
        except (EmptyInputError, SequenceLengthError, VocabError):
            parts = [checked_tokens([s], *limits) for s in sequences]
            return tuple(np.concatenate(part) for part in zip(*parts))

    def encode(self, tokens) -> Tensor:
        """Hidden states for one sequence: [n, d] (or [1, d] for single-token)."""
        return self.encode_batch([tokens])[0]

    def encode_batch(self, sequences) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Hidden states for a packed batch.

        Returns (states, starts, ids): sequences are concatenated row-wise,
        ``starts`` holds B+1 offsets delimiting each sequence's rows and
        ``ids`` the packed, validated token ids. For the single-token
        variant there is exactly one state row per sequence.
        """
        ids, lengths = self._pack(sequences)
        starts, pos = _offsets(lengths)
        memory = cross = None
        if self.encoder is not None:
            memory = self.encoder(self.tok_emb, ids, pos, AttentionLayout(starts, starts))
        if self.decoder is None:
            return memory, starts, ids

        # The single-token decoder reads <s> alone; the multi-token one reads
        # <s> before each sequence's tokens, which ``keep`` then selects.
        single = self.config.variant == Variant.ENCDEC_SINGLETOKEN
        d_starts, d_pos = _offsets(np.ones_like(lengths) if single else lengths + 1)
        d_ids = np.full(len(d_pos), START_ID, dtype=np.intp)
        keep = d_pos.nonzero()[0]  # every row but the <s> rows
        if not single:
            d_ids[keep] = ids
        if memory is not None:
            cross = AttentionLayout(d_starts, starts)
        layout = AttentionLayout(d_starts, d_starts, causal=True)
        x = self.decoder(self.tok_emb, d_ids, d_pos, layout, memory, cross)
        if single:
            return x, d_starts, ids
        return ad.gather_rows(x, keep), starts, ids


def checked_tokens(sequences, vocab_size: int, max_seq_len: float) -> tuple[np.ndarray, np.ndarray]:
    """Packed ids and per-sequence lengths of ``sequences``, or the error of
    the first token rule they break: each sequence is a non-empty 1-D run of
    integer, non-bool ids, at most ``max_seq_len`` long and in the vocab."""
    try:
        ids = np.concatenate(sequences)
        lengths = np.array([len(s) for s in sequences], dtype=np.intp)
    except (TypeError, ValueError):  # ragged, 0-d or unconvertible input
        ids = lengths = np.zeros((0, 0))  # fails the first rule, as 2-D input does
    if ids.ndim != 1 or np.minimum.reduce(lengths) < 1:
        raise EmptyInputError("encoder input must contain at least one token")
    if ids.dtype.kind not in "iu":
        raise VocabError(f"token ids must be integers, not {ids.dtype}")
    if any(map(_holds_bool, sequences)):  # numpy would read True as id 1
        raise VocabError("token ids must be integers, not bool")
    longest = np.maximum.reduce(lengths)
    if longest > max_seq_len:
        raise SequenceLengthError(f"sequence of {longest} tokens exceeds max_seq_len {max_seq_len}")
    if np.minimum.reduce(ids) < 0 or np.maximum.reduce(ids) >= vocab_size:
        raise VocabError(f"token id out of range for vocab of size {vocab_size}")
    return ids.astype(np.intp, copy=False), lengths


def _holds_bool(tokens) -> bool:
    if isinstance(tokens, np.ndarray):  # concatenated with ints, a bool array reads as ints
        return tokens.dtype == np.bool_
    return isinstance(tokens, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, tokens))


def _offsets(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The B+1 row offsets of packed sequences and each row's position."""
    starts = np.concatenate([[0], lengths.cumsum()])
    return starts, np.arange(starts[-1]) - starts[:-1].repeat(lengths)
