"""Tensor-core tests: forward fixtures, gradient oracles, tape semantics."""

import math

import numpy as np
import pytest

from lsrkit import autodiff as ad
from lsrkit.autodiff import Tape, Tensor, finite_difference_check
from lsrkit.errors import (
    DegenerateMaskError,
    DomainError,
    ShapeError,
    TapeStateError,
    VocabError,
)

GRADCHECK_TOL = 1e-5
EPS = 1e-6


def rand_tensor(rng, shape, low=0.2, high=1.5):
    """Random values bounded away from the relu kink at 0."""
    mag = rng.uniform(low, high, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return Tensor(mag * sign, requires_grad=True)


class TestForwardFixtures:
    def test_matmul_identity(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_matmul_hand_case(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_all_negative_zero_gradient(self):
        x = Tensor([-1.0, -2.0], requires_grad=True)
        with Tape() as tape:
            out = ad.sum_all(ad.relu(x))
            tape.backward(out)
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_log1p_values(self):
        np.testing.assert_allclose(ad.log1p(Tensor([0.0])).data, [0.0])
        np.testing.assert_allclose(
            ad.log1p(Tensor([math.e - 1.0])).data, [1.0], rtol=1e-15
        )

    def test_log1p_domain(self):
        with pytest.raises(DomainError):
            ad.log1p(Tensor([-1.0]))

    def test_softmax_symmetry(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_analytic(self):
        out = ad.softmax_rows(Tensor([[math.log(1.0), math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_softmax_mask_hides_column(self):
        mask = np.array([[0.0, ad.MASK_NEG]])
        out = ad.softmax_rows(Tensor([[5.0, 100.0]]), mask)
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_softmax_fully_masked_row(self):
        mask = np.full((1, 2), ad.MASK_NEG)
        with pytest.raises(DegenerateMaskError):
            ad.softmax_rows(Tensor([[1.0, 2.0]]), mask)

    def test_max_over_axis_hand_case(self):
        vals, args = ad.max_over_axis(Tensor([[1.0, 5.0], [3.0, 2.0]]), axis=0)
        np.testing.assert_array_equal(vals.data, [3.0, 5.0])
        np.testing.assert_array_equal(args, [1, 0])

    def test_max_over_axis_single_row_identity(self):
        vals, _ = ad.max_over_axis(Tensor([[1.0, 7.0, -2.0]]), axis=0)
        np.testing.assert_array_equal(vals.data, [1.0, 7.0, -2.0])

    def test_max_over_axis_tie_routes_to_lowest_index(self):
        x = Tensor([[2.0], [2.0]], requires_grad=True)
        with Tape() as tape:
            vals, args = ad.max_over_axis(x, axis=0)
            tape.backward(ad.sum_all(vals))
        np.testing.assert_array_equal(args, [0])
        np.testing.assert_array_equal(x.grad, [[1.0], [0.0]])

    def test_max_over_axis_bad_axis(self):
        with pytest.raises(ShapeError):
            ad.max_over_axis(Tensor([[1.0]]), axis=2)

    def test_embedding_lookup_first_row(self):
        table = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = ad.embedding_lookup(table, np.array([0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_embedding_lookup_empty_ids(self):
        table = Tensor(np.ones((2, 3)))
        out = ad.embedding_lookup(table, np.array([], dtype=np.intp))
        assert out.data.shape == (0, 3)

    def test_embedding_lookup_out_of_range(self):
        with pytest.raises(VocabError):
            ad.embedding_lookup(Tensor(np.ones((2, 3))), np.array([2]))

    def test_embedding_repeated_ids_accumulate(self):
        table = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            out = ad.embedding_lookup(table, np.array([1, 1]))
            tape.backward(ad.sum_all(out))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0, 5.0], [3.0, 4.0, 5.0]])
        np.testing.assert_array_equal(table.grad, [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_relu_square_chain(self):
        # d/dx sum(relu(x)^2) = 2x for x > 0, 0 for x < 0
        x = Tensor([2.0, -1.0], requires_grad=True)
        with Tape() as tape:
            r = ad.relu(x)
            tape.backward(ad.sum_all(ad.mul(r, r)))
        np.testing.assert_array_equal(x.grad, [4.0, 0.0])

    def test_matmul_gradient_hand_case(self):
        a = Tensor([[1.0, 1.0]], requires_grad=True)
        b = Tensor([[2.0], [5.0]])
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.matmul(a, b)))
        np.testing.assert_array_equal(a.grad, [[2.0, 5.0]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = ad.relu(x)
            with pytest.raises(ShapeError):
                tape.backward(out)

    def test_double_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            out = ad.sum_all(x)
            tape.backward(out)
            with pytest.raises(TapeStateError):
                tape.backward(out)

    def test_empty_tape_rejected(self):
        with Tape() as tape:
            with pytest.raises(TapeStateError):
                tape.backward(Tensor(1.0))

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            y = ad.add(ad.mul(x, x), x)  # x^2 + x
            tape.backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_nested_tapes_are_independent(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as outer:
            a = ad.mul(x, x)
            with Tape() as inner:
                y = Tensor([5.0], requires_grad=True)
                inner.backward(ad.sum_all(ad.mul(y, y)))
            np.testing.assert_allclose(y.grad, [10.0])
            outer.backward(ad.sum_all(a))
        np.testing.assert_allclose(x.grad, [4.0])


class TestFiniteDifferenceOracle:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        err = finite_difference_check(lambda t: ad.sum_all(ad.mul(t, t)), x, eps=EPS)
        assert err < 1e-7

    def test_constant_function(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        err = finite_difference_check(lambda t: ad.sum_all(ad.mul(t, 0.0)), x, eps=EPS)
        assert err == 0.0

    def test_log1p_relu_composite(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(0.5, 2.0, size=5), requires_grad=True)
        err = finite_difference_check(
            lambda t: ad.sum_all(ad.log1p(ad.relu(t))), x, eps=EPS
        )
        assert err < GRADCHECK_TOL


def _op_cases(rng):
    """(name, scalar-valued fn, input) for every differentiable operation."""
    d = rng.normal(size=(3, 4))
    w34 = Tensor(rng.normal(size=(3, 4)))
    w4 = Tensor(rng.normal(size=4))
    w8 = Tensor(rng.normal(size=(3, 8)))
    b = Tensor(rng.normal(size=(4, 5)))
    w45 = Tensor(rng.normal(size=(4, 5)))
    w23 = Tensor(rng.normal(size=(2, 3)))
    w24 = Tensor(rng.normal(size=(2, 4)))
    gain = Tensor(rng.uniform(0.5, 1.5, size=4))
    bias = Tensor(rng.normal(size=4))
    ids = np.array([0, 2, 2, 1])
    starts = np.array([0, 2, 5])
    return [
        ("matmul", lambda x: ad.sum_all(ad.matmul(x, b)), rand_tensor(rng, (3, 4))),
        ("add", lambda x: ad.sum_all(ad.mul(ad.add(x, w34), w34)), rand_tensor(rng, (3, 4))),
        ("add_bias", lambda x: ad.sum_all(ad.mul(ad.add(x, w4), w34)), rand_tensor(rng, (3, 4))),
        ("sub", lambda x: ad.sum_all(ad.mul(ad.sub(x, w34), w34)), rand_tensor(rng, (3, 4))),
        ("mul", lambda x: ad.sum_all(ad.mul(x, w34)), rand_tensor(rng, (3, 4))),
        ("scale", lambda x: ad.sum_all(ad.scale(x, 2.5)), rand_tensor(rng, (3, 4))),
        ("relu", lambda x: ad.sum_all(ad.relu(x)), rand_tensor(rng, (3, 4))),
        (
            "log1p",
            lambda x: ad.sum_all(ad.log1p(x)),
            Tensor(rng.uniform(-0.5, 2.0, size=(3, 4)), requires_grad=True),
        ),
        (
            "softmax_rows",
            lambda x: ad.sum_all(ad.mul(ad.softmax_rows(x), w34)),
            Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        ),
        (
            "max_over_axis",
            lambda x: ad.sum_all(ad.mul(ad.max_over_axis(x, 0)[0], w4)),
            Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        ),
        (
            "embedding_lookup",
            lambda x: ad.sum_all(ad.mul(ad.embedding_lookup(x, ids), w45)),
            rand_tensor(rng, (3, 5)),
        ),
        ("gather_rows", lambda x: ad.sum_all(ad.mul(ad.gather_rows(x, ids), Tensor(d[:1].repeat(4, 0)))), rand_tensor(rng, (3, 4))),
        ("transpose", lambda x: ad.sum_all(ad.mul(ad.transpose(x), Tensor(d.T.copy()))), rand_tensor(rng, (3, 4))),
        ("reshape", lambda x: ad.sum_all(ad.mul(ad.reshape(x, (2, 6)), Tensor(d.reshape(2, 6)))), rand_tensor(rng, (3, 4))),
        ("slice_cols", lambda x: ad.sum_all(ad.mul(ad.slice_cols(x, 1, 3), Tensor(d[:, 1:3].copy()))), rand_tensor(rng, (3, 4))),
        (
            "concat_cols",
            lambda x: ad.sum_all(ad.mul(ad.concat_cols([x, x]), w8)),
            rand_tensor(rng, (3, 4)),
        ),
        (
            "concat_rows",
            lambda x: ad.sum_all(ad.mul(ad.concat_rows([x, x]), Tensor(np.vstack([d, d])))),
            rand_tensor(rng, (3, 4)),
        ),
        ("sum_all", lambda x: ad.sum_all(ad.mul(ad.sum_all(x), 1.5)), rand_tensor(rng, (3, 4))),
        (
            "sum_over_axis",
            lambda x: ad.sum_all(ad.mul(ad.sum_over_axis(x, 1), Tensor(d[:, 0].copy()))),
            rand_tensor(rng, (3, 4)),
        ),
        (
            "layer_norm_x",
            lambda x: ad.sum_all(ad.mul(ad.layer_norm(x, gain, bias), w34)),
            Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        ),
        (
            "layer_norm_gain",
            lambda g: ad.sum_all(ad.mul(ad.layer_norm(w34, g, bias), w34)),
            Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True),
        ),
        (
            "scatter_add_pairs",
            lambda x: ad.sum_all(
                ad.mul(ad.scatter_add_pairs(x, np.array([0, 1, 1, 0]), ids, (2, 3)), w23)
            ),
            rand_tensor(rng, (4,)),
        ),
        (
            "segment_max",
            lambda x: ad.sum_all(ad.mul(ad.segment_max(x, starts), w24)),
            Tensor(rng.normal(size=(5, 4)), requires_grad=True),
        ),
        (
            "segment_sum",
            lambda x: ad.sum_all(ad.mul(ad.segment_sum(x, starts), w24)),
            rand_tensor(rng, (5, 4)),
        ),
    ]


class TestGradientSuite:
    def test_every_op_at_seeded_points(self):
        for point in range(10):
            rng = np.random.default_rng(1000 + point)
            for name, fn, x in _op_cases(rng):
                err = finite_difference_check(fn, x, eps=EPS)
                assert err < GRADCHECK_TOL, f"{name} seed {point}: rel err {err:.2e}"


class TestInvariants:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = Tensor(rng.normal(scale=4.0, size=(5, 7)))
            out = ad.softmax_rows(x).data
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_max_backward_conserves_gradient_mass(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            g_in = rng.uniform(0.5, 1.5, size=6)
            with Tape() as tape:
                vals, _ = ad.max_over_axis(x, axis=0)
                tape.backward(ad.sum_all(ad.mul(vals, Tensor(g_in))))
            assert math.isclose(x.grad.sum(), g_in.sum(), rel_tol=1e-12)

    def test_segment_max_outside_tape_matches_taped_and_records_nothing(self):
        rng = np.random.default_rng(7)
        # small integers, so every segment has ties for the argmax rule
        x = Tensor(rng.integers(-3, 4, size=(9, 6)).astype(float), requires_grad=True)
        starts = np.array([0, 4, 5, 9])
        untaped = ad.segment_max(x, starts)
        with Tape() as tape:
            taped = ad.segment_max(x, starts)
            assert len(tape) == 1
            frozen = ad.segment_max(Tensor(x.data), starts)
            assert len(tape) == 1
        np.testing.assert_array_equal(untaped.data, taped.data)
        np.testing.assert_array_equal(frozen.data, taped.data)
        assert untaped.requires_grad and x.grad is None

    def test_tape_replay_is_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            with Tape() as tape:
                out = ad.sum_all(ad.relu(ad.matmul(x, w)))
                tape.backward(out)
            return out.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)

    def test_forward_outputs_finite(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(6, 6)))
        w = Tensor(rng.normal(size=(6, 6)))
        out = ad.softmax_rows(ad.matmul(ad.relu(x), w))
        assert np.isfinite(out.data).all()
