"""Four transformer backbone variants over one layer stack.

``Backbone._run_stack`` runs every stack: token plus position rows (each an
``autodiff.gather_rows``), pre-layer-norm blocks and a final layer norm; a
variant makes one encoder call, one decoder call or both. The variants
differ only in attention masking, decoder input wiring, and which hidden
states they expose:

  encoder_only          bidirectional stack, one state per input token
  decoder_multitokens   causal stack over [<s>, t_1..t_n], states for t_1..t_n
  encdec_singletoken    encoder memory + a 1-token decoder, single state
  encdec_multitokens    encoder memory + causal decoder over [<s>, t_1..t_n]

Batches are packed: sequences are concatenated row-wise, and an
``autodiff.AttentionLayout`` records which rows belong to which sequence.
Each attention call is three ``linear`` projections, one ``autodiff.attention``
over the layout and the output ``linear``; under a recording Tape that is
five tape entries. ``attention`` keeps sequences apart with the layout's
dense block-diagonal mask under a tape; without one it loops over sequences.
With no tape, ``SparseEncoder.batch_activations`` spreads a batch over the
process's CPUs as whole units of two sequences, each one packed forward.
"""

from __future__ import annotations

import math
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
        if self.d_model % self.num_heads != 0:
            raise ContractError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if self.vocab_size < NUM_SPECIALS:
            raise ContractError(f"vocab_size must be >= {NUM_SPECIALS}")
        if min(self.num_layers, self.d_model, self.num_heads, self.max_seq_len) < 1:
            raise ContractError("num_layers, d_model, num_heads, max_seq_len must be >= 1")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")


class ParamRegistry:
    """Flat, construction-ordered list of named parameter tensors."""

    def __init__(self):
        self._params: list[tuple[str, Tensor]] = []

    def add(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self._params.append((name, t))
        return t

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params)


def _normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(0.0, 0.02, size=shape)


class MultiHeadAttention:
    """Projected multi-head attention; q and k/v may come from different stacks."""

    def __init__(self, d_model: int, num_heads: int, rng, reg: ParamRegistry, prefix: str):
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.wq = reg.add(f"{prefix}.wq", _normal(rng, (d_model, d_model)))
        self.wk = reg.add(f"{prefix}.wk", _normal(rng, (d_model, d_model)))
        self.wv = reg.add(f"{prefix}.wv", _normal(rng, (d_model, d_model)))
        self.wo = reg.add(f"{prefix}.wo", _normal(rng, (d_model, d_model)))
        self.bq = reg.add(f"{prefix}.bq", np.zeros(d_model))
        self.bk = reg.add(f"{prefix}.bk", np.zeros(d_model))
        self.bv = reg.add(f"{prefix}.bv", np.zeros(d_model))
        self.bo = reg.add(f"{prefix}.bo", np.zeros(d_model))

    def __call__(self, q: Tensor, k: Tensor, v: Tensor, layout: AttentionLayout) -> Tensor:
        qp = ad.linear(q, self.wq, self.bq)
        kp = ad.linear(k, self.wk, self.bk)
        vp = ad.linear(v, self.wv, self.bv)
        ctx = ad.attention(qp, kp, vp, self.num_heads, layout, 1.0 / math.sqrt(self.d_head))
        return ad.linear(ctx, self.wo, self.bo)


class _LayerNorm:
    def __init__(self, d_model: int, reg: ParamRegistry, prefix: str):
        self.gain = reg.add(f"{prefix}.gain", np.ones(d_model))
        self.bias = reg.add(f"{prefix}.bias", np.zeros(d_model))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class _FeedForward:
    def __init__(self, d_model: int, rng, reg: ParamRegistry, prefix: str):
        d_ff = 4 * d_model
        self.w1 = reg.add(f"{prefix}.w1", _normal(rng, (d_model, d_ff)))
        self.b1 = reg.add(f"{prefix}.b1", np.zeros(d_ff))
        self.w2 = reg.add(f"{prefix}.w2", _normal(rng, (d_ff, d_model)))
        self.b2 = reg.add(f"{prefix}.b2", np.zeros(d_model))

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.relu(ad.linear(x, self.w1, self.b1))
        return ad.linear(h, self.w2, self.b2)


class _Block:
    """Pre-LN transformer block: self-attention, optional cross-attention, FFN."""

    def __init__(self, d_model, num_heads, rng, reg, prefix, cross: bool):
        self.ln1 = _LayerNorm(d_model, reg, f"{prefix}.ln1")
        self.attn = MultiHeadAttention(d_model, num_heads, rng, reg, f"{prefix}.attn")
        self.cross_attn = None
        if cross:
            self.ln_cross = _LayerNorm(d_model, reg, f"{prefix}.ln_cross")
            self.cross_attn = MultiHeadAttention(
                d_model, num_heads, rng, reg, f"{prefix}.cross"
            )
        self.ln2 = _LayerNorm(d_model, reg, f"{prefix}.ln2")
        self.ffn = _FeedForward(d_model, rng, reg, f"{prefix}.ffn")

    def __call__(self, x, self_layout, memory=None, cross_layout=None):
        a = self.ln1(x)
        x = ad.add(x, self.attn(a, a, a, self_layout))
        if self.cross_attn is not None:
            c = self.ln_cross(x)
            x = ad.add(x, self.cross_attn(c, memory, memory, cross_layout))
        f = self.ln2(x)
        return ad.add(x, self.ffn(f))


class Backbone:
    """One of the four variants; owns the shared token embedding table."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator | None = None):
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        reg = ParamRegistry()
        self._registry = reg
        d = config.d_model
        self.tok_emb = reg.add("tok_emb", _normal(rng, (config.vocab_size, d)))
        self._has_encoder = config.variant != Variant.DECODER_MULTITOKENS
        self._has_decoder = config.variant != Variant.ENCODER_ONLY
        cross = self._has_encoder and self._has_decoder
        if self._has_encoder:
            self.enc_pos = reg.add("enc_pos", _normal(rng, (config.max_seq_len, d)))
            self.enc_blocks = [
                _Block(d, config.num_heads, rng, reg, f"enc.{i}", cross=False)
                for i in range(config.num_layers)
            ]
            self.enc_ln = _LayerNorm(d, reg, "enc.ln_f")
        if self._has_decoder:
            # Row 0 of the decoder table is the <s> slot.
            self.dec_pos = reg.add("dec_pos", _normal(rng, (config.max_seq_len + 1, d)))
            self.dec_blocks = [
                _Block(d, config.num_heads, rng, reg, f"dec.{i}", cross=cross)
                for i in range(config.num_layers)
            ]
            self.dec_ln = _LayerNorm(d, reg, "dec.ln_f")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return self._registry.items()

    def _validate(self, tokens) -> np.ndarray:
        ids = np.asarray(tokens)
        if ids.ndim != 1 or ids.size == 0:
            raise EmptyInputError("encoder input must contain at least one token")
        if ids.dtype.kind not in "iu":
            raise VocabError(f"token ids must be integers, not {ids.dtype}")
        if _holds_bool(tokens):  # numpy would read True as id 1
            raise VocabError("token ids must be integers, not bool")
        ids = ids.astype(np.intp, copy=False)
        if ids.size > self.config.max_seq_len:
            raise SequenceLengthError(
                f"sequence of {ids.size} tokens exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise VocabError(
                f"token id out of range for vocab of size {self.config.vocab_size}"
            )
        return ids

    def _pack(self, sequences) -> tuple[np.ndarray, np.ndarray]:
        """Packed ids and per-sequence lengths, checked over the whole batch. A
        batch that fails is checked again per sequence: the first bad one raises."""
        sequences = list(sequences)  # iterated more than once
        cfg = self.config
        try:
            ids = np.concatenate(sequences)
            lengths = np.array([len(s) for s in sequences], dtype=np.intp)
            ok = ids.dtype.kind in "iu" and ids.ndim == 1 and not any(map(_holds_bool, sequences))
            ok = ok and 0 < lengths.min() and lengths.max() <= cfg.max_seq_len
            ok = ok and 0 <= ids.min() and ids.max() < cfg.vocab_size
        except (TypeError, ValueError):
            ok = False
        if not ok:
            if not sequences:
                raise EmptyInputError("a batch must hold at least one sequence")
            seqs = [self._validate(s) for s in sequences]
            ids = np.concatenate(seqs)
            lengths = np.array([s.size for s in seqs], dtype=np.intp)
        return ids.astype(np.intp, copy=False), lengths

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
        if self._has_encoder:
            layout = AttentionLayout(starts, starts)
            memory = self._run_stack(self.enc_blocks, self.enc_ln, self.enc_pos, ids, pos, layout)
        if not self._has_decoder:
            return memory, starts, ids

        # The single-token decoder reads <s> alone; the multi-token one reads
        # <s> before each sequence's tokens, which ``keep`` then selects.
        single = self.config.variant == Variant.ENCDEC_SINGLETOKEN
        d_starts, d_pos = _offsets(np.ones_like(lengths) if single else lengths + 1)
        d_ids = np.full(len(d_pos), START_ID, dtype=np.intp)
        keep = np.flatnonzero(d_pos)  # every row but the <s> rows
        if not single:
            d_ids[keep] = ids
        if memory is not None:
            cross = AttentionLayout(d_starts, starts)
        layout = AttentionLayout(d_starts, d_starts, causal=True)
        x = self._run_stack(
            self.dec_blocks, self.dec_ln, self.dec_pos, d_ids, d_pos, layout, memory, cross
        )
        if single:
            return x, d_starts, ids
        return ad.gather_rows(x, keep), starts, ids

    def _run_stack(self, blocks, final_ln, pos_table, ids, pos, layout, memory=None, cross=None):
        """Embed ``ids`` at positions ``pos`` and run ``blocks`` then ``final_ln``."""
        x = ad.add(ad.gather_rows(self.tok_emb, ids), ad.gather_rows(pos_table, pos))
        for block in blocks:
            x = block(x, layout, memory=memory, cross_layout=cross)
        return final_ln(x)


def _holds_bool(tokens) -> bool:
    return isinstance(tokens, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, tokens))


def _offsets(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The B+1 row offsets of packed sequences and each row's position."""
    starts = np.concatenate([[0], np.cumsum(lengths)])
    return starts, np.arange(starts[-1]) - np.repeat(starts[:-1], lengths)
