"""Loss, regularizer, schedule, and training-loop tests."""

import dataclasses
import json
import math
import os
import re
import sys

import numpy as np
import pytest

from lsrkit.autodiff import Tape, Tensor, finite_difference_check
from lsrkit.backbones import BackboneConfig, Variant
from lsrkit.errors import (
    ContractError, DegenerateDistributionError, FormatError, ShapeError, TapeStateError,
)
from lsrkit.heads import HeadKind
from lsrkit.model import SparseEncoder
from lsrkit.text import Vocabulary
from lsrkit.training import (
    Adam,
    ScoreStats,
    TrainConfig,
    TrainingTriplet,
    affine_transform_scores,
    flops_regularizer,
    lambda_schedule,
    margin_mse,
    normalize_teacher_scores,
    read_triplets,
    train,
    train_step,
    warmup_lr,
)

V = 20


def tiny_model(variant=Variant.ENCODER_ONLY, seed=0):
    cfg = BackboneConfig(
        variant, num_layers=1, d_model=8, num_heads=2, vocab_size=V, max_seq_len=8, seed=seed
    )
    return SparseEncoder.build(cfg, HeadKind.MLM_MULTITOKENS)


def tiny_batch(rng, size=4):
    batch = []
    for _ in range(size):
        batch.append(
            TrainingTriplet(
                tuple(rng.integers(4, V, size=2).tolist()),
                tuple(rng.integers(4, V, size=4).tolist()),
                tuple(rng.integers(4, V, size=4).tolist()),
                float(rng.uniform(6, 9)),
                float(rng.uniform(0, 2)),
            )
        )
    return batch


class TestMarginMse:
    def test_equal_margins_zero(self):
        assert margin_mse([1.0, 2.0], [1.0, 2.0]).item() == 0.0

    def test_hand_case(self):
        assert margin_mse([2.0, 0.0], [1.0, 1.0]).item() == 1.0

    def test_single_pair(self):
        assert margin_mse([3.0], [1.0]).item() == 4.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            margin_mse([], [])

    def test_matrix_of_student_margins_rejected(self):
        with pytest.raises(ContractError, match=r"expected a vector, got shape \(2, 1\)"):
            margin_mse(Tensor(np.ones((2, 1))), [1.0, 2.0])

    def test_gradient_matches_analytic(self):
        teacher = [1.0, -0.5, 2.0]
        x = Tensor([2.0, 0.0, 1.0])
        with Tape() as tape:
            tape.backward(margin_mse(x, teacher))
        expected = 2.0 * (x.data - np.array(teacher)) / 3.0
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12)
        err = finite_difference_check(lambda t: margin_mse(t, teacher), x)
        assert err < 1e-7

    def test_invariant_under_shared_score_shift(self):
        rng = np.random.default_rng(0)
        pos, neg = rng.normal(size=5), rng.normal(size=5)
        teacher = rng.normal(size=5)
        base = margin_mse(pos - neg, teacher).item()
        shifted = margin_mse((pos + 3.7) - (neg + 3.7), teacher).item()
        assert math.isclose(base, shifted, rel_tol=1e-12)


class TestFlopsRegularizer:
    def test_all_zero_batch(self):
        assert flops_regularizer([np.zeros(3), np.zeros(3)]).item() == 0.0

    def test_hand_case(self):
        assert flops_regularizer([[1.0, 0.0], [1.0, 2.0]]).item() == 2.0

    def test_single_vector_is_squared_l2(self):
        assert flops_regularizer([[3.0, 4.0]]).item() == 25.0

    def test_tensor_input_matches_list_input(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(0, 2, size=(4, 6))
        a = flops_regularizer(Tensor(rows)).item()
        b = flops_regularizer(list(rows)).item()
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(2)
        rows = rng.uniform(0, 1, size=(3, 5))
        base = flops_regularizer(Tensor(rows)).item()
        scaled = flops_regularizer(Tensor(4.0 * rows)).item()
        assert math.isclose(scaled, 16.0 * base, rel_tol=1e-12)

    def test_convex_in_batch_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m1 = rng.uniform(0, 2, size=8)
            m2 = rng.uniform(0, 2, size=8)
            mid = flops_regularizer([(m1 + m2) / 2.0]).item()
            avg = (flops_regularizer([m1]).item() + flops_regularizer([m2]).item()) / 2.0
            assert mid <= avg + 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            flops_regularizer([])

    def test_rows_of_different_widths_rejected(self):
        with pytest.raises(ShapeError):
            flops_regularizer([[1.0, 2.0, 3.0], [1.0, 2.0]])


class TestLambdaSchedule:
    def test_zero_at_start(self):
        assert lambda_schedule(0, 100, 0.5) == 0.0

    def test_max_at_ramp_end(self):
        assert lambda_schedule(100, 100, 0.5) == 0.5

    def test_quadratic_midpoint(self):
        assert lambda_schedule(50, 100, 0.1) == pytest.approx(0.025, abs=1e-15)

    def test_nondecreasing_and_continuous(self):
        values = [lambda_schedule(t, 50, 0.2) for t in range(0, 120)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[50] == 0.2
        assert values[119] == 0.2

    def test_bad_ramp(self):
        with pytest.raises(ContractError):
            lambda_schedule(1, 0, 0.1)


class TestAffineTransform:
    def test_identity_when_stats_match(self):
        scores = [0.0, 2.0]
        out = affine_transform_scores(scores, ScoreStats(mean=1.0, std=1.0))
        np.testing.assert_allclose(out, scores, atol=1e-12)

    def test_hand_case(self):
        out = affine_transform_scores([0.0, 2.0], ScoreStats(mean=10.0, std=2.0))
        np.testing.assert_allclose(out, [8.0, 12.0], atol=1e-12)

    @pytest.mark.parametrize(
        "field,value", [("mean", math.nan), ("mean", math.inf), ("std", math.nan), ("std", math.inf)]
    )
    def test_non_finite_stats_rejected_naming_the_key(self, field, value):
        with pytest.raises(ContractError, match=f"^{field} must be finite$"):
            ScoreStats(**{"mean": 0.0, "std": 1.0, field: value})

    def test_negative_std_rejected(self):
        with pytest.raises(ContractError, match="^std must be >= 0$"):
            ScoreStats(mean=0.0, std=-1.0)

    def test_constant_scores_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            affine_transform_scores([5.0, 5.0], ScoreStats(mean=0.0, std=1.0))

    def test_single_score_rejected(self):
        with pytest.raises(ContractError, match="^need at least 2 scores$"):
            affine_transform_scores([5.0], ScoreStats(mean=0.0, std=1.0))

    def test_output_stats_match_reference(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(3.0, 0.2, size=200)
        ref = ScoreStats(mean=-1.5, std=4.0)
        out = affine_transform_scores(scores, ref)
        assert abs(out.mean() - ref.mean) < 1e-9
        assert abs(out.std() - ref.std) < 1e-9

    def test_ranking_preserved_exactly(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=100)
        out = affine_transform_scores(scores, ScoreStats(mean=7.0, std=0.5))
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(out))

    def test_normalize_teacher_scores_preserves_margin_signs(self):
        triplets = [
            TrainingTriplet((4,), (5,), (6,), 9.0, 2.0),
            TrainingTriplet((4,), (5,), (6,), 3.0, 4.0),
        ]
        out = normalize_teacher_scores(triplets, ScoreStats(mean=0.0, std=1.0))
        for before, after in zip(triplets, out):
            sign_before = math.copysign(1, before.teacher_pos - before.teacher_neg)
            sign_after = math.copysign(1, after.teacher_pos - after.teacher_neg)
            assert sign_before == sign_after


class TestWarmup:
    def test_half_warmup_is_half_rate(self):
        assert warmup_lr(50, 100, 2e-3) == pytest.approx(1e-3)

    def test_constant_after_warmup(self):
        assert warmup_lr(150, 100, 2e-3) == 2e-3

    def test_no_warmup(self):
        assert warmup_lr(1, 0, 2e-3) == 2e-3


class TestTrainStep:
    def test_empty_batch_rejected(self):
        model = tiny_model()
        cfg = TrainConfig(total_steps=1, learning_rate=1e-3)
        with pytest.raises(ContractError, match="^batch must be non-empty$"):
            train_step(model, Adam(model.parameters(), cfg), [], cfg, 0)

    def test_zero_loss_when_margins_match_and_no_reg(self):
        # Equal positive and negative docs force student margin 0; teacher
        # margin 0 matches, so the loss and margin-path gradients vanish.
        model = tiny_model()
        rng = np.random.default_rng(6)
        doc = tuple(rng.integers(4, V, size=4).tolist())
        batch = [
            TrainingTriplet(tuple(rng.integers(4, V, size=2).tolist()), doc, doc, 3.0, 3.0)
        ]
        cfg = TrainConfig(total_steps=1, learning_rate=1e-3, batch_size=1)
        opt = Adam(model.parameters(), cfg)
        report = train_step(model, opt, batch, cfg, 0)
        assert report.loss == 0.0
        assert report.margin_loss == 0.0
        assert report.grad_norm == 0.0

    def test_loss_decreases_on_fixed_batch(self):
        model = tiny_model(seed=1)
        rng = np.random.default_rng(7)
        batch = tiny_batch(rng)
        cfg = TrainConfig(
            total_steps=200, learning_rate=5e-3, batch_size=4, warmup_steps=20
        )
        opt = Adam(model.parameters(), cfg)
        first = train_step(model, opt, batch, cfg, 0).loss
        last = None
        for step in range(1, 200):
            last = train_step(model, opt, batch, cfg, step).loss
        assert last < first

    def test_deterministic_reports(self):
        def run():
            model = tiny_model(seed=2)
            rng = np.random.default_rng(8)
            batch = tiny_batch(rng)
            cfg = TrainConfig(
                total_steps=5,
                learning_rate=1e-3,
                batch_size=4,
                lambda_q=0.05,
                lambda_d=0.05,
                lambda_ramp_steps=10,
            )
            opt = Adam(model.parameters(), cfg)
            return [train_step(model, opt, batch, cfg, s) for s in range(5)]

        r1, r2 = run(), run()
        assert [vars(a) for a in r1] == [vars(b) for b in r2]

    @pytest.mark.parametrize(
        "variant,head,entries",
        [
            (Variant.ENCODER_ONLY, HeadKind.MLP, 79),
            (Variant.DECODER_MULTITOKENS, HeadKind.MLM_MULTITOKENS, 85),
            (Variant.ENCDEC_SINGLETOKEN, HeadKind.MLM_SINGLETOKEN, 148),
            (Variant.ENCDEC_MULTITOKENS, HeadKind.MLM_MULTITOKENS, 154),
        ],
    )
    def test_tape_entries_of_one_step(self, monkeypatch, variant, head, entries):
        # d=32, 1 layer, 2 heads, both FLOPs weights on: the shapes of the
        # train-variants benchmark, whose traced tape counts these pin.
        lengths = []
        backward = Tape.backward

        def counting(tape, loss):
            lengths.append(len(tape))
            return backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", counting)
        config = BackboneConfig(
            variant, num_layers=1, d_model=32, num_heads=2, vocab_size=V, max_seq_len=8
        )
        model = SparseEncoder.build(config, head)
        cfg = TrainConfig(total_steps=2, learning_rate=1e-3, batch_size=4, lambda_q=0.5, lambda_d=0.5)
        batch = tiny_batch(np.random.default_rng(9))
        report = train_step(model, Adam(model.parameters(), cfg), batch, cfg, 1)
        assert report.lambda_q > 0.0 and report.lambda_d > 0.0
        assert lengths == [entries]


# numpy's Python-level wrappers around C routines (ndarray.sum's ``_sum``,
# np.diff, np.repeat, np.broadcast_to, np.expand_dims, ...): a taped step
# calls those routines directly, so it enters none of these modules.
NUMPY_WRAPPER_MODULES = tuple(
    os.path.join("numpy", *path.split("/"))
    for path in ("_core/_methods.py", "_core/fromnumeric.py", "lib/_function_base_impl.py",
                 "lib/_stride_tricks_impl.py", "lib/_shape_base_impl.py")
)


@pytest.mark.parametrize(
    "variant,head",
    [
        (Variant.ENCODER_ONLY, HeadKind.MLP),
        (Variant.DECODER_MULTITOKENS, HeadKind.MLM_MULTITOKENS),
        (Variant.ENCDEC_SINGLETOKEN, HeadKind.MLM_SINGLETOKEN),
        (Variant.ENCDEC_MULTITOKENS, HeadKind.MLM_MULTITOKENS),
    ],
)
def test_taped_step_enters_no_numpy_wrapper(variant, head):
    """One step of each benchmarked pairing, both FLOPs weights on."""
    config = BackboneConfig(variant, num_layers=1, d_model=32, num_heads=2, vocab_size=V, max_seq_len=8)
    model = SparseEncoder.build(config, head)
    cfg = TrainConfig(total_steps=2, learning_rate=1e-3, batch_size=4, lambda_q=0.5, lambda_d=0.5)
    optimizer, batch = Adam(model.parameters(), cfg), tiny_batch(np.random.default_rng(9))
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(NUMPY_WRAPPER_MODULES):
            caller = frame.f_back
            entered.append(f"{frame.f_code.co_name} in {frame.f_code.co_filename}, called from "
                           f"{caller.f_code.co_filename}:{caller.f_lineno}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        train_step(model, optimizer, batch, cfg, 1)
    finally:
        sys.setprofile(previous)
    assert not entered, f"{len(entered)} numpy wrapper frames, the first: {entered[0]}"


class LoopAdam:
    """Reference: the per-parameter Adam loop that the flat update replaced."""

    def __init__(self, params, cfg):
        self.params = params
        self.learning_rate = cfg.learning_rate
        self.warmup_steps = cfg.warmup_steps
        self.t = 0
        self._m = [np.zeros_like(t.data) for _, t in params]
        self._v = [np.zeros_like(t.data) for _, t in params]

    def step(self) -> float:
        self.t += 1
        lr = warmup_lr(self.t, self.warmup_steps, self.learning_rate)
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for (_, p), m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
            p.grad = None
        return lr


PAIRINGS = [
    (Variant.ENCODER_ONLY, HeadKind.MLP),
    (Variant.DECODER_MULTITOKENS, HeadKind.MLM_MULTITOKENS),
    (Variant.ENCDEC_SINGLETOKEN, HeadKind.MLM_SINGLETOKEN),
    (Variant.ENCDEC_MULTITOKENS, HeadKind.MLM_MULTITOKENS),
]


def tiny_config(variant):
    return BackboneConfig(
        variant, num_layers=1, d_model=8, num_heads=2, vocab_size=V, max_seq_len=8, seed=5
    )


def builds(variant, head, pooling):
    try:
        SparseEncoder.build(tiny_config(variant), head, pooling=pooling)
    except ContractError:
        return False
    return True


# Every backbone/head/pooling combination SparseEncoder builds.
BUILDABLE = [
    (variant, head, pooling)
    for variant in Variant for head in HeadKind for pooling in ("max", "sum")
    if builds(variant, head, pooling)
]


def run_steps(optimizer_cls, variant, head, steps=20, **settings):
    model = SparseEncoder.build(tiny_config(variant), head)
    cfg = TrainConfig(
        total_steps=20, learning_rate=5e-3, batch_size=4, warmup_steps=5,
        lambda_q=0.05, lambda_d=0.05, lambda_ramp_steps=10,
    )
    cfg = dataclasses.replace(cfg, **settings)
    opt = optimizer_cls(model.parameters(), cfg)
    rng = np.random.default_rng(21)
    reports = [train_step(model, opt, tiny_batch(rng), cfg, s) for s in range(steps)]
    return model, opt, reports


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestAdam:
    @pytest.mark.parametrize("variant,head", PAIRINGS, ids=[v.value for v, _ in PAIRINGS])
    def test_flat_update_equals_per_parameter_loop(self, variant, head):
        model, _, reports = run_steps(Adam, variant, head)
        ref_model, _, ref_reports = run_steps(LoopAdam, variant, head)
        assert [vars(r) for r in reports] == [vars(r) for r in ref_reports]
        for (name, t), (_, ref) in zip(model.parameters(), ref_model.parameters()):
            assert t.data.tobytes() == ref.data.tobytes(), name

    def test_reads_rate_and_warmup_from_the_config(self):
        settings = dict(learning_rate=2e-2, warmup_steps=3)
        model, opt, reports = run_steps(Adam, *PAIRINGS[0], steps=5, **settings)
        ref_model, _, ref_reports = run_steps(LoopAdam, *PAIRINGS[0], steps=5, **settings)
        assert [r.lr for r in reports] == pytest.approx([2e-2 / 3, 4e-2 / 3, 2e-2, 2e-2, 2e-2])
        assert [vars(r) for r in reports] == [vars(r) for r in ref_reports]
        for (name, t), (_, ref) in zip(model.parameters(), ref_model.parameters()):
            assert t.data.tobytes() == ref.data.tobytes(), name

    @pytest.mark.parametrize("lam", [0.0, 1.0], ids=["lambda0", "lambda1"])
    @pytest.mark.parametrize(
        "variant,head,pooling", BUILDABLE, ids=[f"{v.value}-{h.value}-{p}" for v, h, p in BUILDABLE]
    )
    def test_every_parameter_has_a_grad_when_the_step_runs(
        self, monkeypatch, variant, head, pooling, lam
    ):
        missing = []
        step = Adam.step

        def spying(opt):
            missing.extend(name for name, p in opt.params if p.grad is None)
            return step(opt)

        monkeypatch.setattr(Adam, "step", spying)
        model = SparseEncoder.build(tiny_config(variant), head, pooling=pooling)
        cfg = TrainConfig(total_steps=1, learning_rate=1e-3, batch_size=4, lambda_q=lam, lambda_d=lam)
        opt = Adam(model.parameters(), cfg)
        train_step(model, opt, tiny_batch(np.random.default_rng(3)), cfg, 1)
        assert opt.t == 1 and missing == []

    def test_missing_grad_raises_and_changes_nothing(self):
        model, opt, _ = run_steps(Adam, *PAIRINGS[3], steps=2)
        for _, p in opt.params:
            p.grad = np.ones_like(p.data)
        name, dropped = opt.params[7]
        dropped.grad = None

        def state():
            return opt.t, bits(opt._m), bits(opt._v), [bits(p.data) for _, p in opt.params]

        before = state()
        with pytest.raises(TapeStateError, match=f"^parameter {re.escape(name)} has no gradient$"):
            opt.step()
        assert state() == before

    def test_train_step_releases_every_grad(self):
        model, _, _ = run_steps(Adam, Variant.ENCDEC_MULTITOKENS, HeadKind.MLM_MULTITOKENS, 1)
        assert all(t.grad is None for _, t in model.parameters())

    def test_only_arrays_are_the_two_flat_moments(self):
        model, opt, _ = run_steps(Adam, Variant.ENCODER_ONLY, HeadKind.MLP, 2)
        total = sum(t.data.size for _, t in model.parameters())
        arrays = {k: v.shape for k, v in vars(opt).items() if isinstance(v, np.ndarray)}
        assert arrays == {"_m": (total,), "_v": (total,)}


class TestTrainLoop:
    def test_batches_walk_seeded_permutations_in_order(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(
            "lsrkit.training.train_step", lambda model, opt, batch, cfg, step: drawn.extend(batch)
        )
        dataset = list(range(5))
        cfg = TrainConfig(total_steps=4, learning_rate=1e-3, batch_size=3, seed=11)
        train(tiny_model(), dataset, cfg)
        rng = np.random.default_rng(11)
        want = [i for _ in range(3) for i in rng.permutation(5).tolist()]
        assert drawn == want[:12]

    def test_zero_steps_keeps_initialization(self, tmp_path):
        model = tiny_model(seed=3)
        before = {n: t.data.copy() for n, t in model.parameters()}
        dataset = tiny_batch(np.random.default_rng(9))
        cfg = TrainConfig(total_steps=0, learning_rate=1e-3, batch_size=4)
        train(model, dataset, cfg, checkpoint_path=tmp_path / "ckpt.bin")
        for name, tensor in model.parameters():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_metrics_log_fields_and_determinism(self, tmp_path):
        def run(path):
            model = tiny_model(seed=4)
            dataset = tiny_batch(np.random.default_rng(10), size=8)
            cfg = TrainConfig(
                total_steps=12,
                learning_rate=1e-3,
                batch_size=4,
                lambda_q=0.02,
                lambda_d=0.02,
                lambda_ramp_steps=6,
                seed=5,
                log_every=4,
            )
            train(model, dataset, cfg, metrics_path=path)

        run(tmp_path / "a.jsonl")
        run(tmp_path / "b.jsonl")
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        records = [json.loads(line) for line in a.decode().splitlines()]
        assert [r["step"] for r in records] == [0, 4, 8, 11]
        expected_keys = {
            "step", "loss", "margin_loss", "reg_q", "reg_d",
            "density_q", "density_d", "lr", "lambda",
        }
        assert all(set(r) == expected_keys for r in records)

    def test_empty_dataset_rejected(self):
        cfg = TrainConfig(total_steps=1, learning_rate=1e-3)
        with pytest.raises(ContractError):
            train(tiny_model(), [], cfg)

    @pytest.mark.parametrize("bad", [{"total_steps": -1}, {"log_every": 0}])
    def test_negative_steps_and_zero_log_interval_rejected(self, bad):
        with pytest.raises(ContractError):
            TrainConfig(**{"total_steps": 1, "learning_rate": 1e-3, **bad})

    def test_warmup_longer_than_training_rejected(self):
        with pytest.raises(ContractError, match="^warmup_steps must be <= total_steps$"):
            TrainConfig(total_steps=3, learning_rate=1e-3, warmup_steps=4)

    def test_on_report_gets_the_returned_reports_in_order(self):
        seen = []
        dataset = tiny_batch(np.random.default_rng(6))
        cfg = TrainConfig(total_steps=8, learning_rate=1e-3, batch_size=2, log_every=3)
        reports = train(tiny_model(), dataset, cfg, on_report=seen.append)
        assert [r.step for r in reports] == [0, 3, 6, 7]
        assert len(seen) == len(reports) and all(a is b for a, b in zip(seen, reports))


class TestTripletFile:
    def test_parse_and_tokenize(self, tmp_path):
        vocab = Vocabulary(["red", "blue", "green"])
        path = tmp_path / "triplets.tsv"
        path.write_text("red\tred blue\tgreen\t8.5\t1.25\n")
        triplets = read_triplets(path, vocab, max_seq_len=8)
        assert len(triplets) == 1
        t = triplets[0]
        assert t.query_tokens == (vocab.id_of("red"),)
        assert t.pos_tokens == (vocab.id_of("red"), vocab.id_of("blue"))
        assert t.teacher_pos == 8.5
        assert t.teacher_neg == 1.25

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "triplets.tsv"
        path.write_text("a\tb\tc\t1.0\n")
        with pytest.raises(FormatError, match=":1"):
            read_triplets(path, Vocabulary(["a"]), 8)

    @pytest.mark.parametrize("scores", ["high\t0.0", "1.0\tlow"])
    def test_unparsable_teacher_score_names_its_line(self, tmp_path, scores):
        path = tmp_path / "triplets.tsv"
        path.write_text(f"a\ta\ta\t1.0\t0.0\na\ta\ta\t{scores}\n")
        with pytest.raises(FormatError, match=r"triplets\.tsv:2: bad teacher scores"):
            read_triplets(path, Vocabulary(["a"]), 8)

    @pytest.mark.parametrize("scores", ["1_0\t0.0", "1.0\t0.2_5", "\u0661.0\t0.0", "1.0\t\uff10"])
    def test_teacher_score_that_is_not_plain_ascii_names_its_line(self, tmp_path, scores):
        """Python's float takes "_" separators and non-ASCII digits."""
        path = tmp_path / "triplets.tsv"
        path.write_text(f"a\ta\ta\t1.0\t0.0\na\ta\ta\t{scores}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"triplets\.tsv:2: bad teacher scores"):
            read_triplets(path, Vocabulary(["a"]), 8)

    def test_empty_tokenization_rejected(self, tmp_path):
        path = tmp_path / "triplets.tsv"
        path.write_text("...\tdoc text\tother\t1.0\t0.0\n")
        with pytest.raises(FormatError):
            read_triplets(path, Vocabulary(["doc", "text", "other"]), 8)
