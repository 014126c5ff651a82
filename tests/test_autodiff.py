"""Tensor-core tests: forward fixtures, gradient oracles, tape semantics."""

import ast
import contextlib
import inspect
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import reference
from reference import add_bias, matmul, softmax_rows
from lsrkit import autodiff as ad
from lsrkit.autodiff import AttentionLayout, Tape, Tensor, finite_difference_check
from lsrkit.cli import _gradcheck_cases
from lsrkit.errors import (
    DegenerateMaskError,
    DomainError,
    FormatError,
    ShapeError,
    TapeStateError,
)

GRADCHECK_TOL = 1e-5
EPS = 1e-6


def _op_cases(rng):
    """The CLI's gradcheck cases, then those of the taped reference ops;
    acceptance imports this from here."""
    cases = _gradcheck_cases(rng)
    w45, w4 = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=4))
    for name, op in [
        ("matmul", lambda x: matmul(x, w45)),
        ("add_bias", lambda x: add_bias(x, w4)),
        ("softmax_rows", softmax_rows),
    ]:
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=op(x).shape))
        cases.append((name, lambda t, op=op, w=w: ad.sum_all(ad.mul(op(t), w)), x))
    return cases


def _taped_ops(module) -> list[str]:
    """Public functions defined in ``module`` that record on the tape."""
    return [
        name
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and "_record(" in inspect.getsource(fn)
        and not name.startswith("_")
    ]


def _autodiff_calls() -> set[str]:
    """Names of the ``lsrkit.autodiff`` functions that ``src/lsrkit`` calls,
    outside the CLI's gradcheck table."""
    called = set()
    for file in sorted(Path(ad.__file__).parent.glob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        skipped, modules, names = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (file.name, node.name) == ("cli.py", "_gradcheck_cases"):
                skipped = {id(n) for n in ast.walk(node)}
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module == "autodiff":  # from .autodiff import op
                        names.add(alias.asname or alias.name)
                    elif node.module is None and alias.name == "autodiff":  # from . import autodiff
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in skipped:
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id in modules:
                    called.add(func.attr)
            elif isinstance(func, ast.Name) and (func.id in names or file.name == "autodiff.py"):
                called.add(func.id)
    return called


class TestForwardFixtures:
    def test_matmul_identity(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_matmul_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

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
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_analytic(self):
        out = softmax_rows(Tensor([[math.log(1.0), math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_softmax_mask_hides_column(self):
        mask = np.array([[0.0, ad.MASK_NEG]])
        out = softmax_rows(Tensor([[5.0, 100.0]]), mask)
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_softmax_fully_masked_row(self):
        mask = np.full((1, 2), ad.MASK_NEG)
        with pytest.raises(DegenerateMaskError):
            softmax_rows(Tensor([[1.0, 2.0]]), mask)

    def test_segment_max_hand_case(self):
        out = ad.segment_max(Tensor([[1.0, 5.0], [3.0, 2.0], [4.0, 0.0]]), np.array([0, 2, 3]))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0], [4.0, 0.0]])

    def test_segment_max_single_row_identity(self):
        out = ad.segment_max(Tensor([[1.0, 7.0, -2.0]]), np.array([0, 1]))
        np.testing.assert_array_equal(out.data, [[1.0, 7.0, -2.0]])

    def test_segment_max_tie_routes_to_lowest_row(self):
        x = Tensor([[2.0], [2.0], [1.0], [1.0]], requires_grad=True)
        with Tape() as tape:
            vals = ad.segment_max(x, np.array([0, 2, 4]))
            tape.backward(ad.sum_all(vals))
        np.testing.assert_array_equal(vals.data, [[2.0], [1.0]])
        np.testing.assert_array_equal(x.grad, [[1.0], [0.0], [1.0], [0.0]])

    # Backbone looks embeddings up with gather_rows over its tables.
    def test_embedding_lookup_first_row(self):
        table = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = ad.gather_rows(table, np.array([0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_embedding_lookup_empty_ids(self):
        table = Tensor(np.ones((2, 3)))
        out = ad.gather_rows(table, np.array([], dtype=np.intp))
        assert out.data.shape == (0, 3)

    def test_embedding_repeated_ids_accumulate(self):
        table = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            out = ad.gather_rows(table, np.array([1, 1]))
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
            tape.backward(ad.sum_all(matmul(a, b)))
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
        err = finite_difference_check(lambda t: ad.sum_all(ad.scale(t, 0.0)), x, eps=EPS)
        assert err == 0.0

    def test_log1p_relu_composite(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(0.5, 2.0, size=5), requires_grad=True)
        err = finite_difference_check(
            lambda t: ad.sum_all(ad.log1p(ad.relu(t))), x, eps=EPS
        )
        assert err < GRADCHECK_TOL


class TestGradientSuite:
    def test_every_op_at_seeded_points(self):
        for point in range(10):
            rng = np.random.default_rng(1000 + point)
            for name, fn, x in _op_cases(rng):
                err = finite_difference_check(fn, x, eps=EPS)
                assert err < GRADCHECK_TOL, f"{name} seed {point}: rel err {err:.2e}"

    def test_every_taped_op_has_a_case(self):
        names = [name for name, _, _ in _op_cases(np.random.default_rng(0))]
        taped = _taped_ops(ad) + _taped_ops(reference)
        assert {"linear", "attention", "segment_max", "matmul"} <= set(taped)
        missing = [op for op in taped if not any(n == op or n.startswith(op + "_") for n in names)]
        assert not missing, f"ops without a gradcheck case: {missing}"

    def test_every_taped_op_has_a_caller_in_the_program(self):
        """An op that only tests and the gradcheck table call is a test
        oracle: it belongs in tests/reference.py, not in lsrkit.autodiff."""
        called = _autodiff_calls()
        assert {"linear", "attention", "gather_rows"} <= called
        unused = [op for op in _taped_ops(ad) if op not in called]
        assert not unused, f"taped ops that only tests call: {unused}"


def _per_head_attention(q, k, v, num_heads, mask, scale, g):
    """Reference for ``attention``: one head at a time with rank-2 taped ops.

    Returns the context and the q, k, v gradients for output gradient g,
    each with the heads' columns side by side.
    """
    dh = q.shape[1] // num_heads
    results = [[], [], [], []]
    for lo in range(0, q.shape[1], dh):
        qh, kh, vh = (Tensor(a[:, lo:lo + dh].copy(), requires_grad=True) for a in (q, k, v))
        with Tape() as tape:
            weights = softmax_rows(ad.scale(matmul(qh, ad.transpose(kh)), scale), mask)
            out = matmul(weights, vh)
            tape.backward(ad.sum_all(ad.mul(out, Tensor(g[:, lo:lo + dh].copy()))))
        for acc, part in zip(results, (out.data, qh.grad, kh.grad, vh.grad)):
            acc.append(part)
    return [np.concatenate(parts, axis=1) for parts in results]


# Long enough that with d_head 1 numpy's matmul takes other paths for
# strided head views than for copied column slices.
_TWO_SEQS = np.array([0, 13, 30])
_LAYOUTS = {
    "packed": AttentionLayout(_TWO_SEQS, _TWO_SEQS),
    "causal": AttentionLayout(_TWO_SEQS, _TWO_SEQS, causal=True),
    "cross": AttentionLayout(np.array([0, 7, 22]), np.array([0, 20, 36])),
}


class TestFusedOps:
    @pytest.mark.parametrize("num_heads", [1, 2, 8])
    @pytest.mark.parametrize("name", sorted(_LAYOUTS))
    def test_attention_equals_per_head_composition_bitwise(self, name, num_heads):
        layout = _LAYOUTS[name]
        nq, nkv = layout.q_starts[-1], layout.kv_starts[-1]
        rng = np.random.default_rng(num_heads)
        for _ in range(5):
            q, k, v = rng.normal(size=(nq, 8)), rng.normal(size=(nkv, 8)), rng.normal(size=(nkv, 8))
            g = rng.normal(size=(nq, 8))
            scale = 1.0 / math.sqrt(8 // num_heads)
            ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            with Tape() as tape:
                out = ad.attention(*ts, num_heads, layout, scale)
                tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            expected = _per_head_attention(q, k, v, num_heads, layout.mask, scale, g)
            for got, want in zip([out.data] + [t.grad for t in ts], expected):
                np.testing.assert_array_equal(got, want)
                # bias gradients sum these over rows, in another order if not C-ordered
                assert got.flags.c_contiguous

    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_untaped_causal_segments_equal_tri_mask_reference(self, num_heads):
        starts = np.array([0, 5, 17, 18, 30])
        layout = AttentionLayout(starts, starts, causal=True)
        rng = np.random.default_rng(21)
        q, k, v = (rng.normal(size=(30, 4)) for _ in range(3))
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), num_heads, layout, 0.5)
        for a, b in zip(starts[:-1], starts[1:]):
            mask = np.where(np.tri(b - a, dtype=bool), 0.0, ad.MASK_NEG)
            want, *_ = _per_head_attention(
                q[a:b], k[a:b], v[a:b], num_heads, mask, 0.5, np.zeros((b - a, 4))
            )
            np.testing.assert_array_equal(out.data[a:b], want)

    def test_attention_fully_masked_row(self):
        # the second sequence has a query row but no key rows
        x = Tensor(np.ones((2, 4)))
        layout = AttentionLayout(np.array([0, 1, 2]), np.array([0, 2, 2]))
        for taped in (False, True):
            with Tape() if taped else contextlib.nullcontext():
                with pytest.raises(DegenerateMaskError):
                    ad.attention(x, x, x, 2, layout, 1.0)

    def test_attention_empty_sequence_same_with_and_without_tape(self):
        # the first sequence has no query rows and no key rows
        layout = AttentionLayout(np.array([0, 0, 2]), np.array([0, 0, 2]))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)))
        contexts = []
        for taped in (False, True):
            with Tape() if taped else contextlib.nullcontext():
                contexts.append(ad.attention(x, x, x, 2, layout, 0.5).data)
        np.testing.assert_array_equal(*contexts)

    def test_attention_shape_contracts(self):
        x = Tensor(np.ones((2, 4)))
        one_seq = AttentionLayout(np.array([0, 2]), np.array([0, 2]))
        for taped in (False, True):
            with Tape() if taped else contextlib.nullcontext():
                with pytest.raises(ShapeError):
                    ad.attention(x, x, x, 3, one_seq, 1.0)
                with pytest.raises(ShapeError):  # offsets total 3 key rows, not 2
                    ad.attention(x, x, x, 2, AttentionLayout(np.array([0, 2]), np.array([0, 3])), 1.0)
                with pytest.raises(ShapeError):  # offsets total 1 query row, not 2
                    ad.attention(x, x, x, 2, AttentionLayout(np.array([0, 1]), np.array([0, 2])), 1.0)
                with pytest.raises(ShapeError):  # 2 query sequences, 1 key sequence
                    ad.attention(x, x, x, 2, AttentionLayout(np.array([0, 1, 2]), np.array([0, 2])), 1.0)
                with pytest.raises(ShapeError):
                    ad.attention(x, Tensor(np.ones((2, 2))), x, 2, one_seq, 1.0)

    def test_linear_equals_matmul_plus_bias_bitwise(self):
        rng = np.random.default_rng(8)
        x, w, b, g = (rng.normal(size=s) for s in ((7, 5), (5, 3), (3,), (7, 3)))
        results = []
        for fused in (True, False):
            ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
            with Tape() as tape:
                out = ad.linear(*ts) if fused else add_bias(matmul(ts[0], ts[1]), ts[2])
                assert len(tape) == (1 if fused else 2)
                tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            results.append([out.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


def _layer_norm_by_mean(x, gain, bias, g, eps=1e-5):
    """Layer norm's forward and backward written with ndarray.mean."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = g * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    return xhat * gain + bias, inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=0), g.sum(axis=0)


class TestLayerNormBits:
    @pytest.mark.parametrize("case", ["hand", "random"])
    def test_forward_and_backward_equal_mean_reference(self, case):
        if case == "hand":
            x = np.array([[1.0, 2.0, 3.0, 4.0, 10.0], [0.1, -0.7, 1e3, 3.3, -2.0 / 3.0]])
            gain = np.array([1.0, 0.5, -2.0, 3.0, 0.1])
            bias = np.array([0.0, 0.25, -1.0, 1.0 / 3.0, 7.0])
            g = np.array([[1.0, -1.0, 0.5, 2.0, 0.3], [0.7, 0.0, -3.0, 1.0 / 7.0, 9.0]])
        else:
            rng = np.random.default_rng(17)
            x = rng.normal(3.0, 5.0, size=(9, 48))
            gain, bias = rng.normal(size=48), rng.normal(size=48)
            g = rng.normal(size=(9, 48))
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
        with Tape() as tape:
            out = ad.layer_norm(xt, gt, bt)
            tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        want = _layer_norm_by_mean(x, gain, bias, g)
        for got, ref in zip((out.data, xt.grad, gt.grad, bt.grad), want):
            assert got.tobytes() == ref.tobytes()


class TestScatterBits:
    """gather_rows' backward and scatter_add_pairs sum into zeros exactly as
    np.add.at does: repeated ids, -0.0 and magnitudes from 1e-8 to 1e8."""

    @staticmethod
    def weights(rng, shape):
        w = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
        w[rng.random(shape) < 0.1] = -0.0
        return w

    @pytest.mark.parametrize("seed", range(50))
    def test_gather_rows_backward_equals_add_at(self, seed):
        rng = np.random.default_rng(seed)
        rows, width, n = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(0, 30))
        ids = rng.integers(-rows, rows, n)  # negative ids read rows from the end
        g = self.weights(rng, (n, width))
        table = Tensor(np.zeros((rows, width)), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.mul(ad.gather_rows(table, ids), Tensor(g))))
        want = np.zeros((rows, width))
        np.add.at(want, ids, g)
        assert table.grad.dtype == np.float64 and table.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(50))
    def test_scatter_add_pairs_equals_add_at(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        n = int(rng.integers(0, 30))
        rows, cols = rng.integers(0, shape[0], n), rng.integers(0, shape[1], n)
        values = self.weights(rng, n)
        got = ad.scatter_add_pairs(Tensor(values), rows, cols, shape).data
        want = np.zeros(shape)
        np.add.at(want, (rows, cols), values)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def _segment_max_bits(op, x, starts, g):
    """Forward and gradient bytes of ``op`` on ``x`` for output gradient ``g``."""
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        vals = op(t, starts)
        tape.backward(ad.sum_all(ad.mul(vals, Tensor(g))))
    return vals.data.tobytes(), t.grad.tobytes()


class TestSegmentMax:
    """segment_max takes each segment's first argmax row, forward and backward."""

    def test_nan_column_routes_to_its_nan_row(self):
        x = Tensor([[1.0, np.nan], [2.0, 0.5], [0.0, 3.0]], requires_grad=True)
        with Tape() as tape:
            vals = ad.segment_max(x, np.array([0, 2, 3]))
            tape.backward(ad.sum_all(ad.mul(vals, Tensor([[10.0, 20.0], [30.0, 40.0]]))))
        np.testing.assert_array_equal(vals.data, [[2.0, np.nan], [0.0, 3.0]])
        np.testing.assert_array_equal(x.grad, [[0.0, 20.0], [10.0, 0.0], [30.0, 40.0]])

    def test_equals_dense_routing_oracle_bitwise(self):
        """Small value sets make ties common; -inf and 0.0 are among them."""
        rng = np.random.default_rng(17)
        values = np.array([-np.inf, -1.5, 0.0, 0.25, 2.0])
        for case in range(200):
            lengths = rng.integers(1, 8, size=int(rng.integers(2, 7)))
            if (lengths == lengths[0]).all():
                lengths[0] += 1
            starts = np.concatenate([[0], np.cumsum(lengths)])
            x = rng.choice(values, size=(int(starts[-1]), int(rng.integers(1, 7))))
            g = rng.uniform(0.5, 2.0, size=(len(lengths), x.shape[1]))  # -inf * g stays -inf
            want = _segment_max_bits(reference.segment_max, x, starts, g)
            assert _segment_max_bits(ad.segment_max, x, starts, g) == want, f"case {case}"

    def test_taped_forward_memory_is_per_segment(self):
        """Routing the gradient holds no [N, |V|] array beside the input."""
        vocab, rows = 20_000, 8 * 32
        x = Tensor(np.random.default_rng(5).normal(size=(rows, vocab)), requires_grad=True)
        starts = np.arange(0, rows + 1, 32)
        with Tape():
            tracemalloc.start()
            try:
                ad.segment_max(x, starts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < rows * vocab * 8 / 2

    def test_only_four_functions_fork_on_tape_state(self):
        """Every other op runs the same code with and without a tape."""
        callers = set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "recording":
                        callers.add(".".join(scope))
                visit(child, scope)

        for file in sorted(Path(ad.__file__).parent.glob("*.py")):
            visit(ast.parse(file.read_text(encoding="utf-8")), [file.stem])
        assert callers == {
            "autodiff.AttentionLayout.__post_init__",
            "autodiff.attention",
            "heads.mlm_batch_activations",
            "model.SparseEncoder.batch_activations",
        }


class TestInvariants:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = Tensor(rng.normal(scale=4.0, size=(5, 7)))
            out = softmax_rows(x).data
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_max_backward_conserves_gradient_mass(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            g_in = rng.uniform(0.5, 1.5, size=6)
            with Tape() as tape:
                vals = ad.segment_max(x, np.array([0, 4]))
                tape.backward(ad.sum_all(ad.mul(vals, Tensor(g_in[None, :]))))
            assert math.isclose(x.grad.sum(), g_in.sum(), rel_tol=1e-12)

    def test_recording_follows_the_active_tape(self):
        assert not ad.recording()
        with Tape():
            assert ad.recording()
            with Tape():
                assert ad.recording()
            assert ad.recording()
        assert not ad.recording()

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
                out = ad.sum_all(ad.relu(matmul(x, w)))
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
        out = softmax_rows(matmul(ad.relu(x), w))
        assert np.isfinite(out.data).all()


@pytest.fixture
def pool_of_three(monkeypatch):
    """Make ``ad.for_each`` cut work into three groups, whatever the host has."""
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(ad, "_CPUS", 3)
        monkeypatch.setattr(ad, "_POOL", pool)
        yield


class TestForEach:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 17])
    def test_every_item_runs_exactly_once(self, pool_of_three, count):
        seen, threads = [], set()

        def visit(item):
            seen.append(item)
            threads.add(threading.get_ident())

        ad.for_each(visit, list(range(count)))
        assert sorted(seen) == list(range(count))
        assert (len(threads) > 1) == (count > 1)

    def test_serial_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(ad, "_POOL", None)
        seen = []
        ad.for_each(lambda item: seen.append((item, threading.get_ident())), list(range(5)))
        assert seen == [(i, threading.get_ident()) for i in range(5)]

    def test_worker_error_reaches_the_caller_unchanged(self, pool_of_three):
        error = FormatError("bad item 7")
        done = []

        def visit(item):
            if item == 7:  # in the last group, which a pool thread runs
                assert threading.current_thread() is not threading.main_thread()
                raise error
            done.append(item)

        with pytest.raises(FormatError) as caught:
            ad.for_each(visit, list(range(9)))
        assert caught.value is error
        # the other two groups ran to the end before the error was raised
        assert sorted(done) == [0, 1, 2, 3, 4, 5, 6]

    def test_many_groups_under_fast_thread_switching(self, monkeypatch):
        """More groups than cores, switching threads every microsecond: each
        item is still visited exactly once per call."""
        hits = np.zeros(500, dtype=np.int64)

        def visit(i):
            hits[i] += 1

        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(7) as pool:
            monkeypatch.setattr(ad, "_CPUS", 8)
            monkeypatch.setattr(ad, "_POOL", pool)
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(20):
                    ad.for_each(visit, range(500))
            finally:
                sys.setswitchinterval(interval)
        assert (hits == 20).all()

    def test_call_inside_an_item_runs_inline(self, monkeypatch):
        """Items of a nested call run in the thread of the item that made it.
        The pool has a thread for every group of both levels, so a broken
        rule fails the assertions instead of waiting forever."""
        outer, inner = {}, {}

        def visit(item):
            outer[item] = threading.get_ident()
            ad.for_each(lambda j: inner.setdefault(item, set()).add(threading.get_ident()), range(4))

        with ThreadPoolExecutor(8) as pool:
            monkeypatch.setattr(ad, "_CPUS", 3)
            monkeypatch.setattr(ad, "_POOL", pool)
            ad.for_each(visit, range(3))
        assert len(set(outer.values())) > 1
        assert inner == {item: {thread} for item, thread in outer.items()}

    def test_a_failed_call_leaves_this_thread_spreading_work(self, pool_of_three):
        def fail(item):
            raise FormatError(f"bad item {item}")

        with pytest.raises(FormatError, match="bad item 0"):
            ad.for_each(fail, range(3))
        threads = set()
        ad.for_each(lambda item: threads.add(threading.get_ident()), range(3))
        assert len(threads) > 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_pool_of_its_own(self, pool_of_three):
        # Slow enough that each group gets a thread of its own; then both
        # threads wait, idle, for work.
        ad.for_each(lambda item: time.sleep(0.05), range(3))
        time.sleep(0.2)
        pid = os.fork()
        if pid == 0:
            # A group that no thread runs would keep the child waiting forever.
            signal.alarm(10)
            seen, code = [], 1
            try:
                ad.for_each(seen.append, range(6))
                code = 0 if sorted(seen) == list(range(6)) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_import_and_one_sequence_encode_start_no_thread(self):
        script = (
            "import threading\n"
            "before = threading.active_count()\n"
            "import lsrkit\n"
            "from lsrkit.backbones import BackboneConfig, Variant\n"
            "from lsrkit.heads import HeadKind\n"
            "imported = threading.active_count()\n"
            "cfg = BackboneConfig(Variant.ENCDEC_MULTITOKENS, num_layers=1, d_model=8,"
            " num_heads=2, vocab_size=16, max_seq_len=8)\n"
            "model = lsrkit.SparseEncoder.build(cfg, HeadKind.MLM_MULTITOKENS)\n"
            "model.encode([4, 5, 6, 7])\n"
            "print(before, imported, threading.active_count())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        before, imported, encoded = map(int, proc.stdout.split())
        assert before == imported == encoded
