"""Backbone + head composition and checkpoint serialization.

Checkpoint layout (little-endian):
  magic b"LSRC" | u32 format version | u32 header length | header JSON
  | raw float64 bytes of every parameter array, in header order.

The JSON header carries the backbone config, head config, the vocabulary
digest the model was trained against, and per-array shape records, so a
round trip is bit-exact and mismatches fail loudly.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import Backbone, BackboneConfig, Variant
from .errors import ContractError, FormatError
from .heads import (
    HeadKind,
    SparseHead,
    SparseVector,
    mlm_batch_activations,
    mlp_batch_activations,
)
from .heads import mlm_head, mlp_head  # noqa: F401  perfbench's tracer patches these names here

CHECKPOINT_MAGIC = b"LSRC"
CHECKPOINT_VERSION = 1
_INT_FIELDS = ("num_layers", "d_model", "num_heads", "vocab_size", "max_seq_len", "seed")


class SparseEncoder:
    """A trainable sparse text encoder: backbone plus representation head."""

    def __init__(self, backbone: Backbone, head: SparseHead):
        if head.vocab_size != backbone.config.vocab_size:
            raise ContractError("head and backbone vocabulary sizes differ")
        single_state = backbone.config.variant == Variant.ENCDEC_SINGLETOKEN
        if head.kind == HeadKind.MLP and single_state:
            raise ContractError("MLP head requires token-aligned states")
        if head.kind == HeadKind.MLM_SINGLETOKEN and not single_state:
            raise ContractError("single-token MLM head requires one state per sequence")
        self.backbone = backbone
        self.head = head

    @classmethod
    def build(
        cls,
        config: BackboneConfig,
        head_kind: HeadKind,
        pooling: str = "max",
    ) -> "SparseEncoder":
        """Construct with all parameters drawn from one seeded PCG64 stream."""
        rng = np.random.default_rng(config.seed)
        backbone = Backbone(config, rng=rng)
        head = SparseHead(
            head_kind, config.d_model, config.vocab_size, rng=rng, pooling=pooling
        )
        return cls(backbone, head)

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = [(f"backbone.{n}", t) for n, t in self.backbone.parameters()]
        params += [(f"head.{n}", t) for n, t in self.head.parameters()]
        return params

    def encode(self, tokens) -> SparseVector:
        """Encode one token sequence into its sparse representation."""
        return SparseVector.from_dense(self.batch_activations([tokens]).data[0])

    def batch_activations(self, sequences) -> Tensor:
        """Dense [B, |V|] activations for a batch; differentiable under a tape."""
        states, starts = self.backbone.encode_batch(sequences)
        if self.head.kind == HeadKind.MLP:
            token_ids = np.concatenate([np.asarray(s, dtype=np.intp) for s in sequences])
            return mlp_batch_activations(states, starts, token_ids, self.head)
        return mlm_batch_activations(states, starts, self.backbone.tok_emb, self.head)

    def save(self, path, vocab_digest: str = "") -> None:
        arrays = [(name, t.data) for name, t in self.parameters()]
        header = {
            "format_version": CHECKPOINT_VERSION,
            "backbone": {
                "variant": self.backbone.config.variant.value,
                "num_layers": self.backbone.config.num_layers,
                "d_model": self.backbone.config.d_model,
                "num_heads": self.backbone.config.num_heads,
                "vocab_size": self.backbone.config.vocab_size,
                "max_seq_len": self.backbone.config.max_seq_len,
                "seed": self.backbone.config.seed,
            },
            "head": {"kind": self.head.kind.value, "pooling": self.head.pooling},
            "vocab_digest": vocab_digest,
            "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
            fh.write(blob)
            for _, a in arrays:
                fh.write(a.astype("<f8", copy=False).tobytes())

    @classmethod
    def load(cls, path) -> tuple["SparseEncoder", str]:
        """Rebuild a model from a checkpoint; returns (model, vocab_digest)."""
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic at offset 0: {raw[:4]!r}")
        if len(raw) < 12:
            raise FormatError(f"checkpoint truncated at offset {len(raw)}")
        version, header_len = struct.unpack_from("<II", raw, 4)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable checkpoint header: {exc}") from None
        try:
            model, records, digest = cls._from_header(header, len(raw) - 12 - header_len)
        except (KeyError, TypeError, ValueError, ContractError) as exc:
            raise FormatError(f"bad checkpoint header: {type(exc).__name__}: {exc}") from None
        offset = 12 + header_len
        params = model.parameters()
        if [name for name, _ in records] != [name for name, _ in params]:
            raise FormatError("checkpoint parameter list does not match model")
        for (name, shape), (_, tensor) in zip(records, params):
            if tensor.data.shape != shape:
                raise FormatError(
                    f"array {name}: stored shape {shape}, expected {tensor.data.shape}"
                )
            nbytes = tensor.data.size * 8
            if offset + nbytes > len(raw):
                raise FormatError(f"checkpoint truncated at offset {offset}")
            tensor.data = np.frombuffer(
                raw, dtype="<f8", count=tensor.data.size, offset=offset
            ).reshape(shape).copy()
            offset += nbytes
        if offset != len(raw):
            raise FormatError(f"trailing bytes after offset {offset}")
        return model, digest

    @classmethod
    def _from_header(cls, header: dict, payload: int):
        """Model, [(array name, shape)] and vocabulary digest named by a header.

        Raises KeyError, TypeError, ValueError or ContractError on a missing
        field, a mistyped value or an unknown variant, head kind or pooling.
        """
        backbone, head = header["backbone"], header["head"]
        ints = {key: backbone[key] for key in _INT_FIELDS}
        bad = [key for key, value in ints.items() if type(value) is not int]
        if bad:
            raise TypeError(f"backbone fields {bad} must be integers")
        if not isinstance(header["vocab_digest"], str):
            raise TypeError("vocab_digest must be a string")
        records = [(rec["name"], tuple(rec["shape"])) for rec in header["arrays"]]
        config = BackboneConfig(variant=Variant(backbone["variant"]), **ints)
        # Embedding tables plus one d x d matrix per layer: a lower bound on
        # the model's bytes, checked before building allocates them.
        d = config.d_model
        if (config.vocab_size + config.max_seq_len + config.num_layers * d) * d * 8 > payload:
            raise ValueError(f"backbone sizes need more than the {payload} payload bytes")
        model = cls.build(config, HeadKind(head["kind"]), head["pooling"])
        return model, records, header["vocab_digest"]
