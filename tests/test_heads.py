"""Sparse head tests: hand fixtures, support laws, pooling decomposition."""

import contextlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reference import (
    mlm_multitoken_equals_positionwise_max,
    mlp_head_per_position,
    per_sequence_max_logits,
    sparse_dot,
)
from lsrkit import autodiff as ad
from lsrkit.autodiff import Tape, Tensor
from lsrkit.errors import ContractError, EmptyInputError, FormatError, ShapeError, VocabError
from lsrkit.heads import (
    HeadKind,
    SparseHead,
    SparseVector,
    format_vector_line,
    mlm_batch_activations,
    mlm_head,
    mlp_batch_activations,
    mlp_head,
    read_vectors,
    write_vectors,
)

V = 12
D = 4


def mlp_cfg(w=None, b=0.0):
    cfg = SparseHead(HeadKind.MLP, D, V, rng=np.random.default_rng(0))
    if w is not None:
        cfg.w.data = np.asarray(w, dtype=np.float64).reshape(D, 1)
    cfg.b.data = np.array([float(b)])
    return cfg


def mlm_cfg(kind=HeadKind.MLM_MULTITOKENS, bias=None, pooling="max"):
    cfg = SparseHead(kind, D, V, pooling=pooling)
    if bias is not None:
        cfg.b_vocab.data = np.asarray(bias, dtype=np.float64)
    return cfg


class TestSparseVector:
    def test_zero_weights_not_stored(self):
        vec = SparseVector({3: 0.0, 5: 1.5})
        assert vec.entries == {5: 1.5}

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractError):
            SparseVector({1: -0.1})

    @pytest.mark.parametrize("term", [3.7, 3.0, True, False, "3", np.float64(2.0), np.True_, None])
    def test_term_id_that_is_no_int_is_refused_by_name(self, term):
        with pytest.raises(ContractError, match=f"term {re.escape(repr(term))} is not an integer id"):
            SparseVector({term: 1.0})

    def test_ids_that_would_collide_as_ints_are_refused(self):
        with pytest.raises(ContractError, match="term 3.2 "):
            SparseVector({3.2: 1.0, 3.7: 2.0})

    def test_python_and_numpy_int_ids_become_python_ints(self):
        vec = SparseVector({3: 1.0, np.int64(5): 2.0, np.uint32(7): 3.0, np.int8(9): 0.0})
        assert vec.entries == {3: 1.0, 5: 2.0, 7: 3.0}
        assert all(type(t) is int for t in vec.entries)

    @pytest.mark.parametrize("term", [2**32, 2**63, 2**70, -1, -(2**64), np.uint64(2**63)])
    def test_term_id_outside_u32_is_refused(self, term):
        with pytest.raises(ContractError, match=rf"^term id {int(term)} outside \[0, 2\*\*32\)$"):
            SparseVector({1: 1.0, term: 1.0})

    def test_u32_edge_ids_are_kept(self):
        assert SparseVector({0: 1.0, 2**32 - 1: 2.0}).entries == {0: 1.0, 2**32 - 1: 2.0}

    @pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 1), ()])
    def test_from_dense_refuses_all_but_one_row(self, shape):
        with pytest.raises(ShapeError, match=re.escape(f"shape {shape}")):
            SparseVector.from_dense(np.ones(shape))

    def test_disjoint_dot_is_zero(self):
        assert sparse_dot(SparseVector({0: 2.0}), SparseVector({1: 3.0})) == 0.0

    def test_dot_hand_case(self):
        a = SparseVector({0: 2.0, 1: 1.0})
        b = SparseVector({0: 3.0})
        assert sparse_dot(a, b) == 6.0
        assert sparse_dot(b, a) == 6.0

    def test_self_dot_nonnegative(self):
        a = SparseVector({2: 1.5, 7: 0.5})
        assert sparse_dot(a, a) == pytest.approx(1.5**2 + 0.5**2)
        assert sparse_dot(SparseVector(), SparseVector()) == 0.0

    def test_from_dense_equals_dict_constructor(self):
        rng = np.random.default_rng(12)
        specials = np.array([0.0, -0.0, -1.5, -np.inf, 5e-324, 2.0])
        for _ in range(20):
            row = rng.normal(size=40)
            row[rng.integers(0, 40, size=15)] = rng.choice(specials, size=15)
            got = SparseVector.from_dense(row)
            want = SparseVector({int(i): float(row[i]) for i in np.nonzero(row > 0.0)[0]})
            assert list(got.entries.items()) == list(want.entries.items())
            assert all(type(t) is int and type(w) is float for t, w in got.entries.items())

    def test_from_dense_rejects_inf_naming_lowest_term(self):
        row = np.array([1.0, -0.0, -np.inf, np.inf, 0.5, np.inf])
        with pytest.raises(ContractError) as want:
            SparseVector({3: np.inf})
        with pytest.raises(ContractError) as got:
            SparseVector.from_dense(row)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "row,term",
        [
            ([1.0, np.nan, -np.inf, np.inf, 0.5, np.inf], 1),
            ([1.0, -np.inf, np.inf, np.nan], 2),
            ([0.0, -1.0, np.nan], 2),
        ],
    )
    def test_from_dense_rejects_nan_naming_lowest_non_finite_term(self, row, term):
        with pytest.raises(ContractError) as want:
            SparseVector({term: np.nan})
        with pytest.raises(ContractError) as got:
            SparseVector.from_dense(np.array(row))
        assert str(got.value) == str(want.value)


class TestMlpHead:
    def test_absent_term_has_no_entry(self):
        # One position, token 5; h.W + b = 1 -> weight log(2) on term 5 only.
        cfg = mlp_cfg(w=[1.0, 0.0, 0.0, 0.0])
        h = Tensor([[1.0, 0.0, 0.0, 0.0]])
        vec = mlp_head(h, [5], cfg)
        assert set(vec.entries) == {5}
        assert vec.entries[5] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_negative_preactivation_clamps_to_absent(self):
        cfg = mlp_cfg(w=[1.0, 0.0, 0.0, 0.0], b=0.0)
        h = Tensor([[-2.0, 0.0, 0.0, 0.0]])
        vec = mlp_head(h, [5], cfg)
        assert len(vec) == 0

    def test_repeated_term_accumulates_log_scores(self):
        # Two positions of the same term with relu outputs 1 and 3:
        # weight = log(2) + log(4)
        cfg = mlp_cfg(w=[1.0, 0.0, 0.0, 0.0])
        h = Tensor([[1.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]])
        vec = mlp_head(h, [7, 7], cfg)
        assert vec.entries[7] == pytest.approx(math.log(2.0) + math.log(4.0), abs=1e-12)

    def test_length_mismatch(self):
        cfg = mlp_cfg()
        with pytest.raises(ShapeError):
            mlp_head(Tensor(np.zeros((2, D))), [5], cfg)

    @pytest.mark.parametrize("kind", [HeadKind.MLM_MULTITOKENS, HeadKind.MLM_SINGLETOKEN])
    def test_mlm_head_config_rejected(self, kind):
        with pytest.raises(ContractError, match="^mlp_head requires an MLP head$"):
            mlp_head(Tensor(np.zeros((1, D))), [5], mlm_cfg(kind))

    @pytest.mark.parametrize(
        "tokens,error,message",
        [
            ([], EmptyInputError, "encoder input must contain at least one token"),
            ([3.7, 1.2], VocabError, "token ids must be integers, not float64"),
            ([30, -1], VocabError, f"token id out of range for vocab of size {V}"),
            ([5, V], VocabError, f"token id out of range for vocab of size {V}"),
            ([True, 5], VocabError, "token ids must be integers, not bool"),
            (np.array([True, False]), VocabError, "token ids must be integers, not bool"),
        ],
        ids=["empty", "floats", "outside-vocab", "vocab-size", "bool-in-list", "bool-array"],
    )
    def test_tokens_follow_the_backbone_token_rule(self, tokens, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            mlp_head(Tensor(np.zeros((len(tokens), D))), tokens, mlp_cfg())

    def test_support_subset_of_input_tokens(self):
        rng = np.random.default_rng(11)
        cfg = SparseHead(HeadKind.MLP, D, V, rng=rng)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            tokens = rng.integers(0, V, size=n).tolist()
            h = Tensor(rng.normal(size=(n, D)))
            vec = mlp_head(h, tokens, cfg)
            assert set(vec.entries) <= set(tokens)


class TestMlmHead:
    def test_zero_state_negative_bias_gives_empty(self):
        cfg = mlm_cfg(bias=np.full(V, -1.0))
        emb = Tensor(np.ones((V, D)))
        vec = mlm_head(Tensor(np.zeros((1, D))), emb, cfg)
        assert len(vec) == 0

    def test_single_state_mt_equals_st(self):
        rng = np.random.default_rng(12)
        emb = Tensor(rng.normal(size=(V, D)))
        h = Tensor(rng.normal(size=(1, D)))
        bias = rng.normal(size=V)
        mt = mlm_head(h, emb, mlm_cfg(HeadKind.MLM_MULTITOKENS, bias))
        st = mlm_head(h, emb, mlm_cfg(HeadKind.MLM_SINGLETOKEN, bias))
        assert mt == st

    def test_two_position_max_of_saturated_logits(self):
        # Logits 1 and 3 for term 0 -> weight log(1 + 3) = log 4.
        emb = Tensor(np.array([[1.0, 0, 0, 0]] + [[0.0] * D] * (V - 1)))
        cfg = mlm_cfg(bias=np.zeros(V))
        h = Tensor([[1.0, 0, 0, 0], [3.0, 0, 0, 0]])
        vec = mlm_head(h, emb, cfg)
        assert vec.entries[0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_mlp_head_config_rejected(self):
        with pytest.raises(ContractError, match="^mlm_head requires an MLM head$"):
            mlm_head(Tensor(np.zeros((1, D))), Tensor(np.zeros((V, D))), mlp_cfg())

    def test_singletoken_rejects_multiple_states(self):
        cfg = mlm_cfg(HeadKind.MLM_SINGLETOKEN)
        with pytest.raises(ContractError):
            mlm_head(Tensor(np.zeros((2, D))), Tensor(np.zeros((V, D))), cfg)

    @pytest.mark.parametrize(
        "kind,pooling",
        [(HeadKind.MLM_MULTITOKENS, "max"), (HeadKind.MLM_MULTITOKENS, "sum"),
         (HeadKind.MLM_SINGLETOKEN, "max")],
    )
    def test_zero_hidden_states_is_an_empty_input_error(self, kind, pooling):
        with pytest.raises(EmptyInputError, match="^mlm_head needs at least one hidden state$"):
            mlm_head(Tensor(np.zeros((0, D))), Tensor(np.ones((V, D))), mlm_cfg(kind, pooling=pooling))

    def test_expansion_beyond_input_terms(self):
        # A term never present in any input still gets weight: constructed
        # embedding row aligned with the hidden state.
        emb_rows = np.zeros((V, D))
        emb_rows[9] = [2.0, 0, 0, 0]
        cfg = mlm_cfg(bias=np.zeros(V))
        vec = mlm_head(Tensor([[1.0, 0, 0, 0]]), Tensor(emb_rows), cfg)
        assert 9 in vec.entries

    def test_multitoken_equals_positionwise_max_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            emb = Tensor(rng.normal(size=(V, D)))
            h = Tensor(rng.normal(size=(m, D)))
            cfg = mlm_cfg(bias=rng.normal(size=V))
            assert mlm_multitoken_equals_positionwise_max(h, emb, cfg)

    def test_multitoken_equals_positionwise_max_adversarial(self):
        # Terms 0 and 1 take their max at different positions.
        emb_rows = np.zeros((V, D))
        emb_rows[0] = [1.0, 0, 0, 0]
        emb_rows[1] = [0.0, 1.0, 0, 0]
        h = Tensor([[5.0, 1.0, 0, 0], [1.0, 5.0, 0, 0]])
        cfg = mlm_cfg(bias=np.zeros(V))
        assert mlm_multitoken_equals_positionwise_max(h, Tensor(emb_rows), cfg)

    def test_saturation_monotone_argmax_matches_preactivation(self):
        rng = np.random.default_rng(14)
        pre = rng.normal(size=6)
        sat = np.log1p(np.maximum(pre, 0.0))
        positive = pre > 0
        if positive.any():
            assert np.argmax(sat) == np.argmax(np.where(positive, pre, -np.inf))

    def test_sum_pooling_flag(self):
        emb_rows = np.zeros((V, D))
        emb_rows[0] = [1.0, 0, 0, 0]
        h = Tensor([[1.0, 0, 0, 0], [3.0, 0, 0, 0]])
        cfg = mlm_cfg(bias=np.zeros(V), pooling="sum")
        vec = mlm_head(h, Tensor(emb_rows), cfg)
        assert vec.entries[0] == pytest.approx(math.log(2.0) + math.log(4.0), abs=1e-12)


class TestBatchActivations:
    def test_mlm_batch_matches_per_sequence_head(self):
        rng = np.random.default_rng(15)
        emb = Tensor(rng.normal(size=(V, D)))
        cfg = mlm_cfg(bias=rng.normal(size=V))
        lengths = [3, 1, 4]
        states = Tensor(rng.normal(size=(sum(lengths), D)))
        starts = np.concatenate([[0], np.cumsum(lengths)])
        batch = mlm_batch_activations(states, starts, emb, cfg)
        for i in range(len(lengths)):
            block = Tensor(states.data[starts[i] : starts[i + 1]])
            single = mlm_head(block, emb, cfg)
            np.testing.assert_allclose(
                batch.data[i],
                _dense(single),
                rtol=1e-12,
                atol=1e-14,
            )

    def test_mlp_batch_matches_per_sequence_head(self):
        rng = np.random.default_rng(16)
        cfg = SparseHead(HeadKind.MLP, D, V, rng=rng)
        seqs = [[5, 7, 5], [2], [9, 1]]
        token_ids = np.concatenate([np.asarray(s) for s in seqs])
        lengths = [len(s) for s in seqs]
        starts = np.concatenate([[0], np.cumsum(lengths)])
        states = Tensor(rng.normal(size=(sum(lengths), D)))
        batch = mlp_batch_activations(states, starts, token_ids, cfg)
        for i, seq in enumerate(seqs):
            block = Tensor(states.data[starts[i] : starts[i + 1]])
            oracle = mlp_head_per_position(block, seq, cfg)
            np.testing.assert_array_equal(batch.data[i], _dense(oracle))
            assert mlp_head(block, seq, cfg) == oracle

    @pytest.mark.parametrize(
        "num_states,num_ids,starts",
        [(3, 2, [0, 2]), (3, 2, [0, 3]), (2, 3, [0, 3]), (3, 3, [0, 2]), (3, 3, [0, 1, 4])],
        ids=["more-states-starts-as-ids", "more-states-starts-as-states", "more-ids",
             "starts-short-of-both", "starts-past-both"],
    )
    def test_mlp_batch_misaligned_shapes_are_a_shape_error(self, num_states, num_ids, starts):
        states = Tensor(np.ones((num_states, D)))
        with pytest.raises(ShapeError):
            mlp_batch_activations(states, np.array(starts), np.arange(num_ids), mlp_cfg())

    @pytest.mark.parametrize("kind", [HeadKind.MLM_MULTITOKENS, HeadKind.MLM_SINGLETOKEN])
    def test_untaped_pool_first_matches_taped_bits(self, kind):
        rng = np.random.default_rng(31)
        emb = Tensor(np.abs(rng.normal(size=(V, D))))
        data = rng.normal(size=(7, D))
        data[2:4] = -np.abs(data[2:4])  # every logit of these rows is negative
        cfg = mlm_cfg(kind, bias=-np.abs(rng.normal(0.0, 0.2, size=V)))
        multi = kind == HeadKind.MLM_MULTITOKENS
        starts = np.array([0, 2, 4, 7]) if multi else np.arange(8)
        states = Tensor(data)
        untaped = mlm_batch_activations(states, starts, emb, cfg)
        with Tape():
            taped = mlm_batch_activations(states, starts, emb, cfg)
        np.testing.assert_array_equal(untaped.data, taped.data)
        dead = untaped.data[1] if multi else untaped.data[2:4]
        assert not dead.any()
        assert untaped.data.any()


# Offsets that do not cut 5 rows into non-empty segments, by the rule they break.
MALFORMED_OFFSETS = {
    "descending": [0, 4, 3, 5],
    "empty-segment": [0, 2, 2, 5],
    "not-from-zero": [1, 3, 5],
    "past-the-rows": [0, 2, 5, 7],
    "short-of-the-rows": [0, 2, 4],
    "two-dimensional": [[0, 2, 5]],
    "not-integers": [0.0, 2.0, 5.0],
}
SEGMENTED = {
    "segment_max": ad.segment_max,
    "segment_sum": ad.segment_sum,
    "mlp": lambda x, starts: mlp_batch_activations(x, starts, np.arange(5), mlp_cfg()),
    "mlm-max": lambda x, starts: mlm_batch_activations(x, starts, Tensor(np.ones((V, D))), mlm_cfg()),
    "mlm-sum": lambda x, starts: mlm_batch_activations(
        x, starts, Tensor(np.ones((V, D))), mlm_cfg(pooling="sum")),
}


class TestMalformedOffsets:
    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("fn", SEGMENTED.values(), ids=SEGMENTED.keys())
    @pytest.mark.parametrize("starts", MALFORMED_OFFSETS.values(), ids=MALFORMED_OFFSETS.keys())
    def test_every_segmented_function_refuses_them(self, starts, fn, taped):
        x = Tensor(np.random.default_rng(32).normal(size=(5, D)))
        with Tape() if taped else contextlib.nullcontext():
            with pytest.raises(ShapeError, match=r"^offsets .* into non-empty segments$"):
                fn(x, np.array(starts))


class TestListOffsets:
    """Offsets given as a Python list cut the rows as the same offsets in an array do."""

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("fn", SEGMENTED.values(), ids=SEGMENTED.keys())
    def test_list_offsets_give_the_bits_of_array_offsets(self, fn, taped):
        data = np.random.default_rng(33).normal(size=(5, D))
        results = []
        for starts in ([0, 2, 3, 5], np.array([0, 2, 3, 5])):
            x = Tensor(data.copy())
            with Tape() if taped else contextlib.nullcontext() as tape:
                out = fn(x, starts)
                if taped:
                    g = np.random.default_rng(34).normal(size=out.data.shape)
                    tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            results.append((out.data.shape, out.data.tobytes(), taped and x.grad.tobytes()))
        assert results[0] == results[1]
        assert results[0][0][0] == 3


def assert_blocked_head_is_oracle(vocab, d):
    """Every sequence length from 1 to 128, in one packed batch and alone."""
    rng = np.random.default_rng(vocab + d)
    emb = Tensor(rng.normal(size=(vocab, d)))
    cfg = SparseHead(HeadKind.MLM_MULTITOKENS, d, vocab)
    cfg.b_vocab.data = rng.normal(-0.5, 1.0, size=vocab)
    starts = np.concatenate([[0], np.cumsum(np.arange(1, 129))])
    states = Tensor(rng.normal(size=(int(starts[-1]), d)))
    want = np.log1p(np.maximum(per_sequence_max_logits(states, starts, emb, cfg), 0.0))
    assert mlm_batch_activations(states, starts, emb, cfg).data.tobytes() == want.tobytes()
    for i, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
        alone = mlm_batch_activations(Tensor(states.data[a:b]), np.array([0, b - a]), emb, cfg)
        assert alone.data.tobytes() == want[i].tobytes(), f"n = {b - a}"


class TestVocabularyBlocks:
    """The untaped max-pooled head scores fixed vocabulary column blocks."""

    @pytest.mark.parametrize(
        "vocab,d", [(2048, 32), (2048, 64), (3000, 8), (5000, 32), (5000, 64), (8000, 8), (8000, 128)]
    )
    def test_blocked_head_equals_whole_vocabulary_oracle_bitwise(self, vocab, d):
        assert_blocked_head_is_oracle(vocab, d)

    def test_bert_sized_vocabulary_equals_oracle_with_one_blas_thread(self):
        """At |V| = 30,522 the whole product's own bits depend on OpenBLAS's
        thread count, so this case runs in a child that has one BLAS thread."""
        script = "import test_heads\ntest_heads.assert_blocked_head_is_oracle(30_522, 8)\n"
        path = os.pathsep.join([str(Path(__file__).parent), str(Path(ad.__file__).parents[1])])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_block_rule(self):
        """max(1, |V| // 1024) blocks cover the vocabulary in order: one below
        |V| = 2,048, else each starts on a multiple of 64 and is 1,024 to
        2,111 columns wide. The blocks are the slices the head takes of the
        embedding table."""
        blocks = []

        class SliceLog(np.ndarray):
            def __getitem__(self, key):
                blocks.append(key)
                return super().__getitem__(key)

        for vocab in [*range(1, 40_000, 61), 2047, 2048, 30_522]:
            blocks.clear()
            cfg = SparseHead(HeadKind.MLM_MULTITOKENS, 2, vocab)
            emb = Tensor(np.ones((vocab, 2)))
            emb.data = emb.data.view(SliceLog)
            mlm_batch_activations(Tensor(np.ones((2, 2))), np.array([0, 2]), emb, cfg)
            assert len(blocks) == max(1, vocab // 1024), vocab
            assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
            assert blocks[-1].stop == vocab
            if vocab >= 2048:
                assert all(b.start % 64 == 0 and 1024 <= b.stop - b.start <= 2111 for b in blocks), vocab


def _taped_head_bits(head, states, starts, emb, cfg, g):
    """Activation and parameter-gradient bytes of ``head`` for output gradient ``g``."""
    params = [Tensor(states), Tensor(emb), cfg.b_vocab]
    cfg.b_vocab.grad = None
    with Tape() as tape:
        acts = head(params[0], starts, params[1], cfg)
        tape.backward(ad.sum_all(ad.mul(acts, Tensor(g))))
    return [acts.data.tobytes()] + [p.grad.tobytes() for p in params]


def _activate_then_pool(states, starts, emb, cfg):
    logits = ad.linear(states, ad.transpose(emb), cfg.b_vocab)
    return ad.segment_max(ad.log1p_relu(logits), starts)


class TestPoolThenActivate:
    """The max-pooled head activates pooled logits: bits of activating first."""

    def test_taped_head_equals_activate_then_pool_bitwise(self):
        """Repeated state rows force exact ties; segments of one row, dead
        columns and gradients of either sign are common."""
        rng = np.random.default_rng(41)
        for case in range(400):
            lengths = rng.integers(1, 6, size=int(rng.integers(1, 6)))
            if (lengths == 1).all():
                lengths[0] += 1
            starts = np.concatenate([[0], np.cumsum(lengths)])
            pool = rng.normal(size=(int(rng.integers(1, 4)), D))
            states = pool[rng.integers(0, len(pool), size=int(starts[-1]))]
            emb = rng.normal(size=(V, D))
            cfg = mlm_cfg(bias=rng.normal(-0.5, 1.0, size=V))
            g = rng.normal(size=(len(lengths), V))
            want = _taped_head_bits(_activate_then_pool, states, starts, emb, cfg, g)
            got = _taped_head_bits(mlm_batch_activations, states, starts, emb, cfg, g)
            assert got == want, f"case {case}"

    @pytest.mark.parametrize("kind, pooling, starts", [
        (HeadKind.MLM_MULTITOKENS, "max", [0, 2, 3, 7]),
        (HeadKind.MLM_MULTITOKENS, "sum", [0, 2, 3, 7]),
        (HeadKind.MLM_SINGLETOKEN, "max", list(range(8))),
    ], ids=["max", "sum", "single-state"])
    def test_taped_pooled_activations_are_c_ordered(self, kind, pooling, starts):
        """The loss and the FLOPs regularizer reduce these [B, |V|] rows in
        memory order: the same values in F order can sum to other bits."""
        rng = np.random.default_rng(43)
        emb = Tensor(rng.normal(size=(V, D)))
        with Tape():
            acts = mlm_batch_activations(Tensor(rng.normal(size=(7, D))), np.array(starts), emb,
                                         mlm_cfg(kind, pooling=pooling))
        assert acts.data.shape == (len(starts) - 1, V) and acts.data.flags.c_contiguous

    def test_taped_memory_is_below_four_logit_arrays(self):
        """Activation and its backward touch [B, |V|] values, not [N, |V|]."""
        vocab, d = 5_000, 64
        rng = np.random.default_rng(42)
        lengths = rng.integers(16, 65, size=8)
        starts = np.concatenate([[0], np.cumsum(lengths)])
        rows = int(starts[-1])
        states = Tensor(rng.normal(size=(rows, d)))
        emb = Tensor(rng.normal(0.0, 0.1, size=(vocab, d)))
        cfg = SparseHead(HeadKind.MLM_MULTITOKENS, d, vocab)
        g = Tensor(rng.normal(size=(len(lengths), vocab)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                acts = mlm_batch_activations(states, starts, emb, cfg)
                tape.backward(ad.sum_all(ad.mul(acts, g)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * rows * vocab * 8


def _dense(vec: SparseVector, size: int = V) -> np.ndarray:
    out = np.zeros(size)
    for t, w in vec.entries.items():
        out[t] = w
    return out


class TestVectorFiles:
    def test_line_format(self):
        vec = SparseVector({7: 1.0, 2: 0.25})
        assert format_vector_line("q1", vec) == "q1\t2:0.250000 7:1.000000"

    def test_round_trip(self, tmp_path):
        items = [
            ("d1", SparseVector({4: 1.25, 9: 0.5})),
            ("d2", SparseVector({})),
            ("d3", SparseVector({0: 2.0})),
        ]
        path = tmp_path / "vecs.tsv"
        write_vectors(path, items)
        loaded = read_vectors(path)
        assert [name for name, _ in loaded] == ["d1", "d2", "d3"]
        for (_, a), (_, b) in zip(items, loaded):
            assert a == b

    @pytest.mark.parametrize("name", ["", "d one", "a\tb", "d1 ", "d\u00a01", "d\n1"])
    def test_name_the_reader_refuses_is_not_written(self, tmp_path, name):
        path = tmp_path / "vecs.tsv"
        items = [("d0", SparseVector({1: 0.5})), (name, SparseVector({2: 0.5}))]
        with pytest.raises(ContractError, match=f"vector name {re.escape(repr(name))} is empty"):
            write_vectors(path, items)
        assert list(tmp_path.iterdir()) == []

    def test_names_the_reader_accepts_round_trip(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        items = [("d\u00e9:1", SparseVector({1: 0.5})), ("q#2", SparseVector())]
        write_vectors(path, items)
        assert read_vectors(path) == items

    def test_malformed_entry_reports_line(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        path.write_text("q0\t1:0.5\n\nq1\t5:notafloat\n")
        with pytest.raises(FormatError, match=r"vecs\.tsv:3: bad entry '5:notafloat'"):
            read_vectors(path)

    @pytest.mark.parametrize(
        "line",
        ["d1\t-3:0.5", "d1\t3:-0.5", "d1\t3:nan", "d1\t3:inf", "d1\t4294967296:1.0",
         "d1\t3:0.5 3:0.25"],
    )
    def test_bad_term_or_weight_is_format_error(self, tmp_path, line):
        path = tmp_path / "vecs.tsv"
        path.write_text("d0\t1:0.5\nd2\t\n\n" + line + "\n")
        with pytest.raises(FormatError, match=r"vecs\.tsv:4: "):
            read_vectors(path)

    @pytest.mark.parametrize(
        "entry", ["1_0:0.5", "3:2_5", "3:0.2_5", "\u0665:1.0", "3:\u0661.5", "\uff13:1.0"],
        ids=["term-separator", "weight-separator", "fraction-separator", "arabic-term",
             "arabic-weight", "fullwidth-term"],
    )
    def test_number_that_is_not_plain_ascii_is_a_bad_entry(self, tmp_path, entry):
        """Python's int and float take "_" separators and non-ASCII digits."""
        path = tmp_path / "vecs.tsv"
        path.write_text(f"d0\t1:0.5\nd1\t2:1.0 {entry}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"vecs\.tsv:2: bad entry {entry!r}"):
            read_vectors(path)

    def test_repeated_name_names_its_line(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        path.write_text("q1\t1:0.5\nq2\t2:0.5\nq1\t3:0.5\n")
        with pytest.raises(FormatError, match=r"vecs\.tsv:3: duplicate name 'q1'"):
            read_vectors(path)

    @pytest.mark.parametrize("name", ["", "q 1", "q1 ", "q\u00a01"])
    def test_name_a_run_file_cannot_hold_names_its_line(self, tmp_path, name):
        path = tmp_path / "vecs.tsv"
        path.write_text(f"q0\t1:0.5\n{name}\t2:0.5\n")
        with pytest.raises(FormatError, match=r"vecs\.tsv:2: name .* is empty or holds whitespace"):
            read_vectors(path)
