"""SparseEncoder composition and checkpoint round-trip tests."""

import hashlib
import json
import struct

import numpy as np
import pytest

from lsrkit.backbones import BackboneConfig, Variant
from lsrkit.errors import ContractError, FormatError
from lsrkit.heads import HeadKind, mlm_head, mlp_head
from lsrkit.model import SparseEncoder


# Every backbone/head pairing SparseEncoder accepts.
VALID_PAIRS = [
    pytest.param(Variant.ENCODER_ONLY, HeadKind.MLP, id="encoder_only-mlp"),
    pytest.param(Variant.ENCODER_ONLY, HeadKind.MLM_MULTITOKENS, id="encoder_only-mlm_multi"),
    pytest.param(Variant.DECODER_MULTITOKENS, HeadKind.MLP, id="decoder_multi-mlp"),
    pytest.param(Variant.DECODER_MULTITOKENS, HeadKind.MLM_MULTITOKENS, id="decoder_multi-mlm_multi"),
    pytest.param(Variant.ENCDEC_SINGLETOKEN, HeadKind.MLM_SINGLETOKEN, id="encdec_single-mlm_single"),
    pytest.param(Variant.ENCDEC_SINGLETOKEN, HeadKind.MLM_MULTITOKENS, id="encdec_single-mlm_multi"),
    pytest.param(Variant.ENCDEC_MULTITOKENS, HeadKind.MLP, id="encdec_multi-mlp"),
    pytest.param(Variant.ENCDEC_MULTITOKENS, HeadKind.MLM_MULTITOKENS, id="encdec_multi-mlm_multi"),
]


def dense(vec, size=16):
    out = np.zeros(size)
    for t, w in vec.entries.items():
        out[t] = w
    return out


def build(variant=Variant.ENCDEC_MULTITOKENS, head=HeadKind.MLM_MULTITOKENS, seed=0):
    cfg = BackboneConfig(
        variant, num_layers=1, d_model=8, num_heads=2, vocab_size=16, max_seq_len=8, seed=seed
    )
    return SparseEncoder.build(cfg, head)


def rewrite_header(path, mutate):
    """Apply ``mutate`` to a checkpoint's JSON header (it may return a new one)."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + length])
    header = mutate(header) or header
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length :])


def set_field(section, key, value):
    def mutate(header):
        (header[section] if section else header)[key] = value

    return mutate


def drop_field(section, key):
    def mutate(header):
        del (header[section] if section else header)[key]

    return mutate


HEADER_MUTATIONS = [
    pytest.param(drop_field("backbone", "seed"), id="missing-seed"),
    pytest.param(drop_field("backbone", "variant"), id="missing-variant"),
    pytest.param(drop_field("head", "pooling"), id="missing-pooling"),
    pytest.param(drop_field(None, "vocab_digest"), id="missing-vocab-digest"),
    pytest.param(drop_field(None, "arrays"), id="missing-arrays"),
    pytest.param(drop_field(None, "head"), id="missing-head"),
    pytest.param(set_field("backbone", "variant", "nope"), id="unknown-variant"),
    pytest.param(set_field("head", "kind", "nope"), id="unknown-head-kind"),
    pytest.param(set_field("head", "pooling", "mean"), id="unknown-pooling"),
    pytest.param(set_field("head", "kind", "mlm_singletoken"), id="head-invalid-for-variant"),
    pytest.param(set_field("backbone", "num_layers", "1"), id="string-int"),
    pytest.param(set_field("backbone", "d_model", 8.0), id="float-int"),
    pytest.param(set_field("backbone", "seed", None), id="null-seed"),
    pytest.param(set_field("backbone", "seed", -1), id="negative-seed"),
    pytest.param(set_field("backbone", "num_layers", True), id="bool-int"),
    pytest.param(set_field("backbone", "num_heads", 3), id="heads-do-not-divide-d-model"),
    pytest.param(set_field("backbone", "vocab_size", 10**9), id="sizes-exceed-payload"),
    pytest.param(set_field(None, "vocab_digest", 7), id="numeric-vocab-digest"),
    pytest.param(set_field(None, "arrays", [5]), id="array-record-not-object"),
    pytest.param(set_field(None, "backbone", []), id="backbone-not-object"),
    pytest.param(lambda header: [header], id="header-not-object"),
]


class TestComposition:
    def test_mlp_rejected_on_singletoken_backbone(self):
        with pytest.raises(ContractError):
            build(Variant.ENCDEC_SINGLETOKEN, HeadKind.MLP)

    def test_encode_returns_sparse_vector(self):
        model = build()
        vec = model.encode([4, 5, 6])
        assert all(w > 0 for w in vec.entries.values())
        assert all(0 <= t < 16 for t in vec.entries)

    def test_mlp_support_is_input_subset(self):
        model = build(Variant.ENCODER_ONLY, HeadKind.MLP)
        vec = model.encode([4, 5, 4])
        assert vec.support() <= {4, 5}

    def test_mlm_singletoken_rejected_on_multistate_backbones(self):
        for variant in set(Variant) - {Variant.ENCDEC_SINGLETOKEN}:
            with pytest.raises(ContractError):
                build(variant, HeadKind.MLM_SINGLETOKEN)

    @pytest.mark.parametrize("variant,head", VALID_PAIRS)
    def test_batch_activations_match_encode(self, variant, head):
        model = build(variant, head)
        if head == HeadKind.MLP:
            model.head.b.data[:] = 1.0  # every position scores > 0
        seqs = [(4, 5, 6, 5), (7, 8), (9,)]
        acts = model.batch_activations(seqs)
        for i, seq in enumerate(seqs):
            single = model.encode(list(seq))
            assert len(single) > 0
            states = model.backbone.encode(list(seq))
            if head == HeadKind.MLP:
                assert single == mlp_head(states, list(seq), model.head)
            else:
                reference = mlm_head(states, model.backbone.tok_emb, model.head)
                assert single.support() == reference.support()
                np.testing.assert_allclose(dense(single), dense(reference), rtol=1e-12, atol=0)
            np.testing.assert_allclose(acts.data[i], dense(single), rtol=1e-12, atol=1e-14)


class TestCheckpoint:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("head", [HeadKind.MLP, HeadKind.MLM_MULTITOKENS])
    def test_round_trip_bit_exact(self, tmp_path, variant, head):
        if variant == Variant.ENCDEC_SINGLETOKEN and head == HeadKind.MLP:
            pytest.skip("invalid combination")
        model = build(variant, head, seed=3)
        path = tmp_path / "model.ckpt"
        model.save(path, vocab_digest="abc123")
        loaded, digest = SparseEncoder.load(path)
        assert digest == "abc123"
        originals = dict(model.parameters())
        for name, tensor in loaded.parameters():
            np.testing.assert_array_equal(tensor.data, originals[name].data)
        # byte-identical re-serialization
        path2 = tmp_path / "again.ckpt"
        loaded.save(path2, vocab_digest="abc123")
        assert path.read_bytes() == path2.read_bytes()

    def test_same_seed_same_checkpoint_digest(self, tmp_path):
        digests = []
        for run in range(2):
            model = build(seed=9)
            path = tmp_path / f"m{run}.ckpt"
            model.save(path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        build().save(path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            SparseEncoder.load(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        build().save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError, match="truncated"):
            SparseEncoder.load(path)

    @pytest.mark.parametrize("mutate", HEADER_MUTATIONS)
    def test_bad_header_raises_format_error(self, tmp_path, mutate):
        path = tmp_path / "model.ckpt"
        build().save(path)
        rewrite_header(path, mutate)
        with pytest.raises(FormatError, match="header"):
            SparseEncoder.load(path)

    def test_header_rewrite_alone_keeps_checkpoint_loadable(self, tmp_path):
        path = tmp_path / "model.ckpt"
        build().save(path, vocab_digest="abc")
        rewrite_header(path, lambda header: None)
        assert SparseEncoder.load(path)[1] == "abc"

    def test_file_shorter_than_fixed_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"LSRC\x01\x00")
        with pytest.raises(FormatError, match="truncated"):
            SparseEncoder.load(path)

    def test_loaded_model_encodes_identically(self, tmp_path):
        model = build(seed=5)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded, _ = SparseEncoder.load(path)
        assert loaded.encode([4, 9, 5]) == model.encode([4, 9, 5])
