"""Backbone architecture contracts: shapes, attention wiring, determinism."""

import numpy as np
import pytest

from reference import inert_parameter_names
from lsrkit import autodiff as ad
from lsrkit.autodiff import Tape, Tensor
from lsrkit.backbones import (
    AttentionLayout,
    Backbone,
    BackboneConfig,
    MultiHeadAttention,
    Variant,
    checked_tokens,
)
from lsrkit.errors import (
    ContractError,
    EmptyInputError,
    LsrError,
    SequenceLengthError,
    VocabError,
)
from lsrkit.heads import HeadKind
from lsrkit.model import SparseEncoder


def small_config(variant, seed=0, **overrides):
    base = dict(num_layers=2, d_model=16, num_heads=2, vocab_size=24, max_seq_len=12)
    base.update(overrides)
    return BackboneConfig(variant, seed=seed, **base)


def parameter_count(backbone):
    return sum(t.data.size for _, t in backbone.parameters())


def random_tokens(rng, n, vocab_size=24):
    return rng.integers(4, vocab_size, size=n).tolist()


class TestConfigValidation:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ContractError):
            small_config(Variant.ENCODER_ONLY, d_model=10, num_heads=3)

    def test_vocab_must_cover_specials(self):
        with pytest.raises(ContractError):
            small_config(Variant.ENCODER_ONLY, vocab_size=3)

    def test_negative_seed_rejected(self):
        # checked here: a model loaded from a checkpoint never seeds an RNG
        with pytest.raises(ContractError, match="seed"):
            small_config(Variant.ENCODER_ONLY, seed=-1)


def layout(rows, kv_rows=None, causal=False):
    """Attention layout of one sequence with ``rows`` queries."""
    kv_rows = rows if kv_rows is None else kv_rows
    return AttentionLayout(np.array([0, rows]), np.array([0, kv_rows]), causal)


class TestAttention:
    def _identity_attention(self, d):
        reg = []
        attn = MultiHeadAttention(d, 1, np.random.default_rng(0), reg, "attn")
        eye = np.eye(d)
        for w in (attn.wq, attn.wk, attn.wv, attn.wo):
            w.data = eye.copy()
        return attn

    @staticmethod
    def _both_paths(attn, q, kv, layout):
        """Outputs of the untaped per-sequence path and the taped masked path."""
        untaped = attn(q, kv, layout)
        with Tape():
            taped = attn(q, kv, layout)
        return untaped.data, taped.data

    def test_single_position_returns_value_row(self):
        attn = self._identity_attention(2)
        q = Tensor([[0.3, -0.4]])
        kv = Tensor([[1.5, 2.5]])
        for out in self._both_paths(attn, q, kv, layout(1)):
            np.testing.assert_allclose(out, [[1.5, 2.5]], atol=1e-12)

    def test_hand_case_bidirectional(self):
        attn = self._identity_attention(1)
        x = Tensor([[0.0], [1.0]])
        for out in self._both_paths(attn, x, x, layout(2)):
            # row 0: softmax(0, 0) . v = 0.5
            np.testing.assert_allclose(out[0], [0.5], atol=1e-12)

    def test_causal_first_position_sees_only_itself(self):
        attn = self._identity_attention(1)
        x = Tensor([[0.7], [9.0]])
        for out in self._both_paths(attn, x, x, layout(2, causal=True)):
            np.testing.assert_allclose(out[0], [0.7], atol=1e-12)

    def test_taped_call_records_five_entries(self):
        reg = []
        attn = MultiHeadAttention(8, 2, np.random.default_rng(0), reg, "attn")
        x = Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        with Tape() as tape:
            attn(x, x, AttentionLayout(np.array([0, 2, 5]), np.array([0, 2, 5])))
        assert len(tape) == 5  # q, k, v projections, attention, output projection

    def test_layout_mask_is_block_diagonal_and_causal(self):
        starts = np.array([0, 2, 3])
        causal = AttentionLayout(starts, starts, causal=True).visible
        np.testing.assert_array_equal(
            causal, [[True, False, False], [True, True, False], [False, False, True]]
        )
        cross = AttentionLayout(np.array([0, 1, 2]), starts).visible
        np.testing.assert_array_equal(cross, [[True, True, False], [False, False, True]])


class TestShapeContracts:
    @pytest.mark.parametrize(
        "variant,rows",
        [
            (Variant.ENCODER_ONLY, 5),
            (Variant.DECODER_MULTITOKENS, 5),
            (Variant.ENCDEC_MULTITOKENS, 5),
            (Variant.ENCDEC_SINGLETOKEN, 1),
        ],
    )
    def test_state_count(self, variant, rows):
        backbone = Backbone(small_config(variant))
        rng = np.random.default_rng(1)
        states = backbone.encode(random_tokens(rng, 5))
        assert states.shape == (rows, 16)

    def test_singletoken_output_shape_independent_of_n(self):
        backbone = Backbone(small_config(Variant.ENCDEC_SINGLETOKEN))
        assert backbone.encode([5]).shape == (1, 16)
        assert backbone.encode([5, 6]).shape == (1, 16)

    def test_empty_input_rejected(self):
        backbone = Backbone(small_config(Variant.ENCODER_ONLY))
        with pytest.raises(EmptyInputError):
            backbone.encode([])

    def test_overlong_input_rejected(self):
        backbone = Backbone(small_config(Variant.ENCODER_ONLY))
        with pytest.raises(SequenceLengthError):
            backbone.encode(list(range(4, 17)))

    def test_out_of_vocab_token_rejected(self):
        backbone = Backbone(small_config(Variant.ENCODER_ONLY))
        with pytest.raises(VocabError):
            backbone.encode([4, 99])


# Each fault with the error and message a lone bad sequence raises
# (small_config: vocab_size 24, max_seq_len 12).
_FAULTS = {
    "empty": ([], EmptyInputError, "encoder input must contain at least one token"),
    "overlong": (
        list(range(4, 17)), SequenceLengthError, "sequence of 13 tokens exceeds max_seq_len 12"
    ),
    "id-past-vocab": ([4, 24], VocabError, "token id out of range for vocab of size 24"),
    "negative-id": ([-1, 4], VocabError, "token id out of range for vocab of size 24"),
    "2-d": ([[4, 5], [6, 7]], EmptyInputError, "encoder input must contain at least one token"),
    "float-ids": ([4.7, 5.2], VocabError, "token ids must be integers, not float64"),
    "string-ids": (["5", "6"], VocabError, "token ids must be integers, not <U1"),
    "ragged": ([[4], [5, 6]], EmptyInputError, "encoder input must contain at least one token"),
    "bool-array": (np.array([True, False]), VocabError, "token ids must be integers, not bool"),
}


def _raised(backbone, batch):
    with pytest.raises(LsrError) as info:
        backbone.encode_batch(batch)
    return type(info.value), str(info.value)


class TestBatchValidation:
    """The batch-wide check raises what a lone bad sequence raises."""

    @pytest.mark.parametrize("fault", list(_FAULTS))
    def test_bad_sequence_at_position_2(self, fault):
        seq, error, message = _FAULTS[fault]
        backbone = Backbone(small_config(Variant.ENCDEC_MULTITOKENS))
        assert _raised(backbone, [seq]) == (error, message)
        assert _raised(backbone, [[4, 5], [6, 7, 8], seq, [9]]) == (error, message)

    def test_every_sequence_2d(self):
        backbone = Backbone(small_config(Variant.ENCODER_ONLY))
        _, error, message = _FAULTS["2-d"]
        assert _raised(backbone, [[[4, 5]], [[6, 7]]]) == (error, message)

    @pytest.mark.parametrize(
        "first,second", [("id-past-vocab", "empty"), ("empty", "id-past-vocab"),
                         ("overlong", "2-d"), ("2-d", "negative-id")]
    )
    def test_earlier_of_two_faults_decides(self, first, second):
        backbone = Backbone(small_config(Variant.DECODER_MULTITOKENS))
        batch = [[4], _FAULTS[first][0], [5, 6], _FAULTS[second][0]]
        assert _raised(backbone, batch) == _FAULTS[first][1:]

    @pytest.mark.parametrize("ids", [[True, False], np.array([True]), np.array([4.0, 5.0])])
    def test_non_integer_dtype_is_a_vocab_error(self, ids):
        backbone = Backbone(small_config(Variant.ENCODER_ONLY))
        error, message = _raised(backbone, [ids])
        assert error is VocabError and message.startswith("token ids must be integers, not ")

    @pytest.mark.parametrize("variant", list(Variant))
    def test_empty_batch_is_a_typed_error(self, variant):
        backbone = Backbone(small_config(variant))
        assert _raised(backbone, []) == (EmptyInputError, "a batch must hold at least one sequence")

    def test_sequences_that_pass_only_apart_are_packed_from_their_own_checks(self):
        backbone = Backbone(small_config(Variant.ENCODER_ONLY))
        seqs = [np.array([4, 5], dtype=np.int32), np.array([6, 7, 8], dtype=np.uint64)]
        with pytest.raises(VocabError):  # together they concatenate to float64
            checked_tokens(seqs, 24, 12)
        ids, lengths = backbone._pack(seqs)
        apart = [checked_tokens([seq], 24, 12) for seq in seqs]
        assert ids.dtype == np.intp and ids.tolist() == [4, 5, 6, 7, 8]
        assert ids.tolist() == np.concatenate([part[0] for part in apart]).tolist()
        assert lengths.tolist() == [2, 3] == np.concatenate([part[1] for part in apart]).tolist()

    def test_returns_packed_ids(self):
        backbone = Backbone(small_config(Variant.ENCDEC_SINGLETOKEN))
        _, starts, ids = backbone.encode_batch([(4, 5), np.array([6]), [7, 8, 9]])
        assert starts.tolist() == [0, 1, 2, 3]
        assert ids.dtype == np.intp and ids.tolist() == [4, 5, 6, 7, 8, 9]


class TestAttentionWiring:
    def test_encoder_is_bidirectional(self):
        backbone = Backbone(small_config(Variant.ENCODER_ONLY))
        rng = np.random.default_rng(2)
        tokens = random_tokens(rng, 6)
        changed = list(tokens)
        changed[-1] = (changed[-1] - 4 + 1) % 20 + 4
        h1 = backbone.encode(tokens).data
        h2 = backbone.encode(changed).data
        assert np.abs(h1[0] - h2[0]).max() > 1e-9

    def test_decoder_is_causal_bitwise(self):
        backbone = Backbone(small_config(Variant.DECODER_MULTITOKENS))
        rng = np.random.default_rng(3)
        for trial in range(10):
            tokens = random_tokens(rng, 6)
            i = int(rng.integers(0, 5))
            changed = list(tokens)
            for j in range(i + 1, 6):
                changed[j] = int(rng.integers(4, 24))
            h1 = backbone.encode(tokens).data
            h2 = backbone.encode(changed).data
            np.testing.assert_array_equal(h1[: i + 1], h2[: i + 1])

    def test_decoder_h1_depends_only_on_first_token(self):
        backbone = Backbone(small_config(Variant.DECODER_MULTITOKENS))
        rng = np.random.default_rng(4)
        tokens = random_tokens(rng, 6)
        changed = [tokens[0]] + random_tokens(rng, 5)
        h1 = backbone.encode(tokens).data
        h2 = backbone.encode(changed).data
        np.testing.assert_array_equal(h1[0], h2[0])

    def test_encdec_multitokens_h1_sees_last_token(self):
        backbone = Backbone(small_config(Variant.ENCDEC_MULTITOKENS))
        rng = np.random.default_rng(5)
        tokens = random_tokens(rng, 6)
        changed = list(tokens)
        changed[-1] = (changed[-1] - 4 + 1) % 20 + 4
        h1 = backbone.encode(tokens).data
        h2 = backbone.encode(changed).data
        assert np.abs(h1[0] - h2[0]).max() > 1e-9

    def test_singletoken_state_depends_on_every_token(self):
        backbone = Backbone(small_config(Variant.ENCDEC_SINGLETOKEN))
        rng = np.random.default_rng(6)
        tokens = random_tokens(rng, 5)
        h = backbone.encode(tokens).data
        for j in range(5):
            changed = list(tokens)
            changed[j] = (changed[j] - 4 + 1) % 20 + 4
            h2 = backbone.encode(changed).data
            assert np.abs(h - h2).max() > 1e-9, f"position {j} had no effect"

    def test_encdec_decoder_stays_causal_when_cross_path_zeroed(self):
        # With the cross-attention output projection zeroed, the encoder
        # memory cannot leak into decoder states, so suffix perturbations
        # leave earlier states bitwise unchanged.
        backbone = Backbone(small_config(Variant.ENCDEC_MULTITOKENS))
        for block in backbone.decoder.blocks:
            block.cross_attn.wo.data = np.zeros_like(block.cross_attn.wo.data)
            block.cross_attn.bo.data = np.zeros_like(block.cross_attn.bo.data)
        rng = np.random.default_rng(60)
        for _ in range(5):
            tokens = random_tokens(rng, 6)
            i = int(rng.integers(0, 5))
            changed = list(tokens)
            for j in range(i + 1, 6):
                changed[j] = int(rng.integers(4, 24))
            h1 = backbone.encode(tokens).data
            h2 = backbone.encode(changed).data
            np.testing.assert_array_equal(h1[: i + 1], h2[: i + 1])


class TestDeterminism:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_same_seed_same_outputs(self, variant):
        rng = np.random.default_rng(7)
        tokens = random_tokens(rng, 5)
        h1 = Backbone(small_config(variant, seed=11)).encode(tokens).data
        h2 = Backbone(small_config(variant, seed=11)).encode(tokens).data
        np.testing.assert_array_equal(h1, h2)

    def test_duplicate_inputs_identical_outputs(self):
        backbone = Backbone(small_config(Variant.ENCODER_ONLY))
        h1 = backbone.encode([5, 6, 7]).data
        h2 = backbone.encode([5, 6, 7]).data
        np.testing.assert_array_equal(h1, h2)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_parameter_count_pure_function_of_config(self, variant):
        c1 = parameter_count(Backbone(small_config(variant, seed=1)))
        c2 = parameter_count(Backbone(small_config(variant, seed=99)))
        assert c1 == c2


class TestBatchPacking:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_packed_states_match_single_encodes(self, variant):
        backbone = Backbone(small_config(variant))
        rng = np.random.default_rng(8)
        seqs = [random_tokens(rng, int(rng.integers(1, 8))) for _ in range(5)]
        packed, starts, _ = backbone.encode_batch(seqs)
        for i, seq in enumerate(seqs):
            single = backbone.encode(seq).data
            block = packed.data[starts[i] : starts[i + 1]]
            np.testing.assert_allclose(block, single, rtol=1e-10, atol=1e-12)


class TestTapedAndUntapedPaths:
    """Untaped attention runs per sequence; taped attention is block-masked."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_single_sequence_bits_equal(self, variant):
        # 2 heads of width 8, and 16 heads of width 1, where numpy's matmul
        # takes other paths for strided head views than for copies
        for num_heads in (2, 16):
            backbone = Backbone(small_config(variant, num_heads=num_heads))
            rng = np.random.default_rng(12)
            for n in (1, 2, 7, 12):
                seq = random_tokens(rng, n)
                untaped, _, _ = backbone.encode_batch([seq])
                with Tape():
                    taped, _, _ = backbone.encode_batch([seq])
                np.testing.assert_array_equal(untaped.data, taped.data)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_packed_states_close(self, variant):
        backbone = Backbone(small_config(variant))
        rng = np.random.default_rng(13)
        seqs = [random_tokens(rng, int(rng.integers(1, 13))) for _ in range(6)]
        untaped, starts, _ = backbone.encode_batch(seqs)
        with Tape():
            taped, taped_starts, _ = backbone.encode_batch(seqs)
        np.testing.assert_array_equal(starts, taped_starts)
        np.testing.assert_allclose(untaped.data, taped.data, rtol=1e-10, atol=1e-12)


class TestGradientFlow:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_no_dead_parameters(self, variant):
        head_kind = (
            HeadKind.MLM_SINGLETOKEN
            if variant == Variant.ENCDEC_SINGLETOKEN
            else HeadKind.MLM_MULTITOKENS
        )
        model = SparseEncoder.build(small_config(variant), head_kind)
        rng = np.random.default_rng(9)
        seqs = [tuple(random_tokens(rng, 6)) for _ in range(4)]
        with Tape() as tape:
            acts = model.batch_activations(seqs)
            tape.backward(ad.sum_all(ad.mul(acts, acts)))
        inert = {f"backbone.{n}" for n in inert_parameter_names(model.backbone)}
        for name, param in model.parameters():
            if name in inert:
                # Structurally unused: a 1-position softmax is constant.
                assert param.grad is None or np.abs(param.grad).max() == 0.0
                continue
            assert param.grad is not None, f"{name} received no gradient"
            assert np.abs(param.grad).max() > 0.0, f"{name} gradient identically zero"
