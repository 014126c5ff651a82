"""Backbone + head composition and checkpoint serialization.

Checkpoint layout (little-endian):
  magic b"LSRC" | u32 format version | u32 header length | header JSON
  | raw float64 bytes of every parameter array, in header order.

The JSON header carries the backbone config, head config, the vocabulary
digest the model was trained against, and per-array shape records, so a
round trip is bit-exact and mismatches fail loudly. A load reads each array
from the file into the array the model keeps, and a save writes each from
its own memory, so neither holds a second copy of the model.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import os
import struct
import typing
from concurrent.futures import ThreadPoolExecutor
from itertools import chain

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import Backbone, BackboneConfig, Variant, _NoDraws
from .errors import ContractError, FormatError
from .heads import (
    HeadKind,
    SparseHead,
    SparseVector,
    mlm_batch_activations,
    mlp_batch_activations,
)
from .heads import mlm_head, mlp_head  # noqa: F401  perfbench's tracer patches these names here
from .text import ByteReader, write_output


CHECKPOINT_MAGIC = b"LSRC"
CHECKPOINT_VERSION = 1
_INT_FIELDS = tuple(k for k, t in typing.get_type_hints(BackboneConfig).items() if t is int)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class SparseEncoder:
    """A trainable sparse text encoder: backbone plus representation head."""

    def __init__(self, backbone: Backbone, head: SparseHead):
        if head.vocab_size != backbone.config.vocab_size:
            raise ContractError("head and backbone vocabulary sizes differ")
        single_state = backbone.config.variant == Variant.ENCDEC_SINGLETOKEN
        if head.kind == HeadKind.MLP and single_state:
            raise ContractError("MLP head requires token-aligned states")
        if head.kind == HeadKind.MLP and head.w.data.shape[0] != backbone.config.d_model:
            raise ContractError("MLP head width differs from the backbone's d_model")
        if head.kind == HeadKind.MLM_SINGLETOKEN and not single_state:
            raise ContractError("single-token MLM head requires one state per sequence")
        self.backbone = backbone
        self.head = head

    @classmethod
    def build(
        cls,
        config: BackboneConfig,
        kind: HeadKind,
        pooling: str = "max",
    ) -> "SparseEncoder":
        """Construct with all parameters drawn from one seeded PCG64 stream."""
        rng = np.random.default_rng(config.seed)
        backbone = Backbone(config, rng=rng)
        head = SparseHead(
            kind, config.d_model, config.vocab_size, rng=rng, pooling=pooling
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
        """Dense [B, |V|] activations for a batch; differentiable under a tape.

        With no tape a checked batch of three or more runs as pair units (by
        stable length order, the longest with the shortest, and so on inwards)
        cut into one contiguous group per CPU, at most: this thread runs the
        first, an executor opened for this call the others, each in a copy of
        this thread's context. Threads start only for those groups and end
        with the call. Once all are done the earliest failing unit's error is
        raised, and a unit writes only its own rows, so errors and bits depend
        on the batch alone. A unit of at most two sequences never forks."""
        sequences = list(sequences)
        if len(sequences) > 2 and not ad.recording():
            order = np.argsort(self.backbone._pack(sequences)[1], kind="stable").tolist()
            # order[i] and order[-1 - i] are one sequence when i is the middle
            units = [sorted({order[i], order[-1 - i]}) for i in range((len(order) + 1) // 2)]
            rows = np.empty((len(sequences), self.head.vocab_size))

            def run(group):
                for unit in group:
                    rows[unit] = self.batch_activations([sequences[i] for i in unit]).data

            n = min(_CPUS, len(units))
            groups = [units[len(units) * g // n : len(units) * (g + 1) // n] for g in range(n)]
            with ThreadPoolExecutor(max(1, n - 1)) as pool:  # exiting joins every group
                futures = [pool.submit(contextvars.copy_context().run, run, g) for g in groups[1:]]
                run(groups[0])
            for future in futures:
                future.result()
            return Tensor(rows)
        states, starts, token_ids = self.backbone.encode_batch(sequences)
        if self.head.kind == HeadKind.MLP:
            return mlp_batch_activations(states, starts, token_ids, self.head)
        return mlm_batch_activations(states, starts, self.backbone.tok_emb, self.head)

    def save(self, path, vocab_digest: str = "") -> None:
        arrays = [(name, t.data) for name, t in self.parameters()]
        header = {
            "format_version": CHECKPOINT_VERSION,
            "backbone": dataclasses.asdict(self.backbone.config),
            "head": {"kind": self.head.kind.value, "pooling": self.head.pooling},
            "vocab_digest": vocab_digest,
            "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        prefix = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(blob)), blob]
        # Each array's own memory, one at a time: saving holds no copy of the model.
        payload = (np.ascontiguousarray(a, "<f8").data for _, a in arrays)
        write_output(path, chain(prefix, payload))

    @classmethod
    def load(cls, path) -> tuple["SparseEncoder", str]:
        """Rebuild a model from a checkpoint; returns (model, vocab_digest)."""
        with ByteReader(path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as reader:
            (header_len,) = reader.unpack("<I")
            try:  # not UTF-8 or not JSON: ValueError; nested too deep for json: RecursionError
                header = json.loads(str(reader.take(header_len), "utf-8"))
                model, records, digest = cls._from_header(header, reader.remaining())
            except (KeyError, TypeError, ValueError, RecursionError, ContractError) as exc:
                raise FormatError(f"bad checkpoint header: {type(exc).__name__}: {exc}") from None
            params = model.parameters()
            expected = [(name, tensor.data.shape) for name, tensor in params]
            if records != expected:
                raise FormatError(
                    f"checkpoint arrays {records} do not match the model's {expected}")
            for name, tensor in params:
                tensor.data = reader.array("<f8", tensor.data.size).reshape(tensor.data.shape)
                if not np.isfinite(tensor.data).all():
                    raise FormatError(f"array {name} holds a non-finite value")
            reader.finish()
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
        sparse_head = SparseHead(
            HeadKind(head["kind"]), d, config.vocab_size, rng=_NoDraws, pooling=head["pooling"]
        )
        model = cls(Backbone(config, rng=_NoDraws), sparse_head)
        return model, records, header["vocab_digest"]
