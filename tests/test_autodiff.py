"""Tensor-core tests: forward fixtures, gradient oracles, tape semantics."""

import ast
import contextlib
import inspect
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import add_bias, log1p, matmul, softmax_rows
from lsrkit import autodiff as ad
from lsrkit.autodiff import AttentionLayout, Tape, Tensor, finite_difference_check
from lsrkit.cli import _gradcheck_cases
from lsrkit.errors import ShapeError, TapeStateError

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
        ("log1p", lambda x: log1p(ad.relu(x))),  # log1p's domain is x > -1
    ]:
        x = Tensor(rng.normal(size=(3, 4)))
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

    @pytest.mark.parametrize(
        "op, args, message",
        [
            (ad.add, [(2, 3), (3, 2)], r"^add shape mismatch: \(2, 3\) \+ \(3, 2\)$"),
            (ad.sub, [(2, 3), (2,)], r"^sub shape mismatch: \(2, 3\) - \(2,\)$"),
            (ad.mul, [(2, 3), (2, 1)], r"^mul shape mismatch: \(2, 3\) \* \(2, 1\)$"),
            (ad.transpose, [(2, 3, 4)], r"^transpose expects rank 2, got \(2, 3, 4\)$"),
            (lambda x: ad.sum_over_axis(x, 2), [(2, 3)], r"^axis 2 out of range for shape \(2, 3\)$"),
            (ad.layer_norm, [(2, 3), (2,), (3,)], r"^layer_norm shapes: x \(2, 3\), gain \(2,\)$"),
        ],
        ids=["add", "sub", "mul", "transpose", "sum_over_axis", "layer_norm"],
    )
    def test_shape_contracts(self, op, args, message):
        with pytest.raises(ShapeError, match=message):
            op(*(Tensor(np.ones(shape)) for shape in args))

    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_all_negative_zero_gradient(self):
        x = Tensor([-1.0, -2.0])
        with Tape() as tape:
            out = ad.sum_all(ad.relu(x))
            tape.backward(out)
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_log1p_relu_values(self):
        out = ad.log1p_relu(Tensor([0.0, math.e - 1.0, -3.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0, 0.0], rtol=1e-15)

    def test_softmax_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_analytic(self):
        out = softmax_rows(Tensor([[math.log(1.0), math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_softmax_mask_hides_column(self):
        mask = np.array([[0.0, reference.MASK_NEG]])
        out = softmax_rows(Tensor([[5.0, 100.0]]), mask)
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_softmax_fully_masked_row(self):
        mask = np.full((1, 2), reference.MASK_NEG)
        with pytest.raises(ShapeError):
            softmax_rows(Tensor([[1.0, 2.0]]), mask)

    def test_segment_max_hand_case(self):
        out = ad.segment_max(Tensor([[1.0, 5.0], [3.0, 2.0], [4.0, 0.0]]), np.array([0, 2, 3]))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0], [4.0, 0.0]])

    def test_segment_max_single_row_identity(self):
        out = ad.segment_max(Tensor([[1.0, 7.0, -2.0]]), np.array([0, 1]))
        np.testing.assert_array_equal(out.data, [[1.0, 7.0, -2.0]])

    def test_segment_max_tie_routes_to_lowest_row(self):
        x = Tensor([[2.0], [2.0], [1.0], [1.0]])
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
        table = Tensor(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            out = ad.gather_rows(table, np.array([1, 1]))
            tape.backward(ad.sum_all(out))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0, 5.0], [3.0, 4.0, 5.0]])
        np.testing.assert_array_equal(table.grad, [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0])
        with Tape() as tape:
            tape.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_relu_square_chain(self):
        # d/dx sum(relu(x)^2) = 2x for x > 0, 0 for x < 0
        x = Tensor([2.0, -1.0])
        with Tape() as tape:
            r = ad.relu(x)
            tape.backward(ad.sum_all(ad.mul(r, r)))
        np.testing.assert_array_equal(x.grad, [4.0, 0.0])

    def test_matmul_gradient_hand_case(self):
        a = Tensor([[1.0, 1.0]])
        b = Tensor([[2.0], [5.0]])
        with Tape() as tape:
            tape.backward(ad.sum_all(matmul(a, b)))
        np.testing.assert_array_equal(a.grad, [[2.0, 5.0]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            out = ad.relu(x)
            with pytest.raises(ShapeError):
                tape.backward(out)

    def test_double_backward_rejected(self):
        x = Tensor([1.0])
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
        x = Tensor([3.0])
        with Tape() as tape:
            y = ad.add(ad.mul(x, x), x)  # x^2 + x
            tape.backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_nested_tapes_are_independent(self):
        x = Tensor([2.0])
        with Tape() as outer:
            a = ad.mul(x, x)
            with Tape() as inner:
                y = Tensor([5.0])
                inner.backward(ad.sum_all(ad.mul(y, y)))
            np.testing.assert_allclose(y.grad, [10.0])
            outer.backward(ad.sum_all(a))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_every_tensor_a_taped_op_reads_gets_a_gradient(self):
        a, b = Tensor([1.0, 2.0]), Tensor([5.0, -3.0])
        g = np.array([0.5, -4.0])
        with Tape() as tape:
            diff = ad.sub(a, b)
            assert len(tape) == 1
            tape.backward(ad.sum_all(ad.mul(diff, Tensor(g))))
        np.testing.assert_array_equal(a.grad, g)
        np.testing.assert_array_equal(b.grad, -g)

    def test_op_on_constants_only_records_its_entry(self):
        with Tape() as tape:
            ad.relu(Tensor([1.0, -1.0]))
        assert len(tape) == 1


class TestFiniteDifferenceOracle:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0])
        err = finite_difference_check(lambda t: ad.sum_all(ad.mul(t, t)), x, eps=EPS)
        assert err < 1e-7

    def test_constant_function(self):
        x = Tensor([1.0, 2.0])
        err = finite_difference_check(lambda t: ad.sum_all(ad.scale(t, 0.0)), x, eps=EPS)
        assert err == 0.0

    def test_strided_view_is_perturbed_in_place(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(size=(3, 4)))
        view = rng.normal(size=(4, 3)).T  # not C-contiguous: reshape(-1) copies it
        before, strided = view.copy(), Tensor(view)
        errors = [
            finite_difference_check(lambda t: ad.sum_all(ad.mul(t, w)), x, eps=EPS)
            for x in (strided, Tensor(view.copy()))
        ]
        assert errors[0] == errors[1] < GRADCHECK_TOL
        assert strided.data is view
        np.testing.assert_array_equal(view, before)

    def test_log1p_relu_composite(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(0.5, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5))
        err = finite_difference_check(lambda t: ad.sum_all(ad.log1p_relu(t)), x, eps=EPS)
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


def _additive(mask):
    """The ``softmax_rows`` mask that hides what a boolean layout mask hides."""
    return np.where(mask, reference.MASK_NEG, 0.0)


def _per_head_attention(q, k, v, num_heads, mask, scale, g):
    """Reference for ``attention``: one head at a time with rank-2 taped ops.

    Returns the context and the q, k, v gradients for output gradient g,
    each with the heads' columns side by side.
    """
    dh = q.shape[1] // num_heads
    results = [[], [], [], []]
    for lo in range(0, q.shape[1], dh):
        qh, kh, vh = (Tensor(a[:, lo:lo + dh].copy()) for a in (q, k, v))
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


@st.composite
def attention_layouts(draw):
    """Self, causal or cross layouts of 1-16 sequences of 1-16 key rows. A
    cross layout's queries are one row per sequence (the single-token
    decoder's), n + 1 rows (the multi-token decoder's) or 1-16 rows."""
    lengths = draw(st.lists(st.integers(1, 16), min_size=1, max_size=16))
    starts = np.concatenate([[0], np.cumsum(lengths)])
    kind = draw(st.sampled_from(["self", "causal", "cross"]))
    if kind != "cross":
        return AttentionLayout(starts, starts, causal=kind == "causal")
    any_rows = st.lists(st.integers(1, 16), min_size=len(lengths), max_size=len(lengths))
    q_lengths = draw(st.sampled_from([[1] * len(lengths), [n + 1 for n in lengths]]) | any_rows)
    return AttentionLayout(np.concatenate([[0], np.cumsum(q_lengths)]), starts)


@st.composite
def mask_layouts(draw):
    """Open, causal or cross layouts of 1-40 sequences of 1-6 rows, one-row
    segments common; a cross layout's query lengths are drawn on their own."""
    count = draw(st.sampled_from([1, 40]) | st.integers(1, 40))
    rows = st.lists(st.integers(1, 6), min_size=count, max_size=count)
    starts = np.concatenate([[0], np.cumsum(draw(rows))])
    kind = draw(st.sampled_from(["open", "causal", "cross"]))
    if kind != "cross":
        return AttentionLayout(starts, starts, causal=kind == "causal")
    return AttentionLayout(np.concatenate([[0], np.cumsum(draw(rows))]), starts)


def _assert_mask_is_block_oracle(layout):
    mask, want = layout.mask, reference.attention_mask_blocks(layout)
    assert mask.dtype == bool and mask.flags.c_contiguous
    assert mask.shape == want.shape and mask.tobytes() == want.tobytes()
    assert layout.visible.tobytes() == (~want).tobytes()
    assert layout.visible is layout.visible  # built once


class TestFusedOps:
    @settings(max_examples=60, deadline=None)
    @given(attention_layouts())
    def test_attention_mask_equals_elementwise_oracle(self, layout):
        mask, want = layout.mask, reference.attention_mask(layout)
        assert mask.dtype == want.dtype == bool and mask.shape == want.shape
        assert mask.tobytes() == want.tobytes()

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(mask_layouts())
    def test_attention_mask_equals_block_oracle(self, layout):
        _assert_mask_is_block_oracle(layout)

    @pytest.mark.parametrize("kind", ["open", "causal", "cross"])
    @pytest.mark.parametrize(
        "lengths", [[1], [7], [1] * 40, [3, 1] * 20], ids=["1x1", "1x7", "40x1", "40-mixed"])
    def test_attention_mask_edge_layouts_equal_block_oracle(self, lengths, kind):
        starts = np.concatenate([[0], np.cumsum(lengths)])
        if kind == "cross":  # one more query row than key rows per sequence
            _assert_mask_is_block_oracle(AttentionLayout(starts + np.arange(len(starts)), starts))
        else:
            _assert_mask_is_block_oracle(AttentionLayout(starts, starts, causal=kind == "causal"))

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
            ts = [Tensor(a) for a in (q, k, v)]
            with Tape() as tape:
                out = ad.attention(*ts, num_heads, layout)
                tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            expected = _per_head_attention(q, k, v, num_heads, _additive(layout.mask), scale, g)
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
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), num_heads, layout)
        scale = 1.0 / math.sqrt(4 // num_heads)
        for a, b in zip(starts[:-1], starts[1:]):
            mask = _additive(~np.tri(b - a, dtype=bool))
            want, *_ = _per_head_attention(
                q[a:b], k[a:b], v[a:b], num_heads, mask, scale, np.zeros((b - a, 4))
            )
            np.testing.assert_array_equal(out.data[a:b], want)

    @pytest.mark.parametrize(
        "q_starts, kv_starts, causal",
        [
            pytest.param([0, 1, 2], [0, 2, 2], False, id="query-row-sees-no-key"),
            pytest.param([0, 0, 2], [0, 0, 2], False, id="empty-sequence"),
            pytest.param([0, 0, 2], [0, 1, 2], False, id="empty-query-segment"),
            pytest.param([1, 2, 4], [0, 2, 4], False, id="query-offsets-not-from-0"),
            pytest.param([0, 3, 2, 4], [0, 1, 3, 4], False, id="descending-query-offsets"),
            pytest.param([0, 1, 3], [0, 2, 4], True, id="causal-unequal-offsets"),
        ],
    )
    def test_attention_refuses_malformed_layout(self, q_starts, kv_starts, causal):
        q = Tensor(np.ones((q_starts[-1], 4)))
        kv = Tensor(np.ones((kv_starts[-1], 4)))
        layout = AttentionLayout(np.array(q_starts), np.array(kv_starts), causal)
        for taped in (False, True):
            with Tape() if taped else contextlib.nullcontext():
                with pytest.raises(ShapeError):
                    ad.attention(q, kv, kv, 2, layout)

    def test_attention_shape_contracts(self):
        x = Tensor(np.ones((2, 4)))
        one_seq = AttentionLayout(np.array([0, 2]), np.array([0, 2]))
        for taped in (False, True):
            with Tape() if taped else contextlib.nullcontext():
                with pytest.raises(ShapeError):
                    ad.attention(x, x, x, 3, one_seq)
                with pytest.raises(ShapeError):  # offsets total 3 key rows, not 2
                    ad.attention(x, x, x, 2, AttentionLayout(np.array([0, 2]), np.array([0, 3])))
                with pytest.raises(ShapeError):  # offsets total 1 query row, not 2
                    ad.attention(x, x, x, 2, AttentionLayout(np.array([0, 1]), np.array([0, 2])))
                with pytest.raises(ShapeError):  # 2 query sequences, 1 key sequence
                    ad.attention(x, x, x, 2, AttentionLayout(np.array([0, 1, 2]), np.array([0, 2])))
                with pytest.raises(ShapeError):
                    ad.attention(x, Tensor(np.ones((2, 2))), x, 2, one_seq)

    def test_linear_equals_matmul_plus_bias_bitwise(self):
        rng = np.random.default_rng(8)
        x, w, b, g = (rng.normal(size=s) for s in ((7, 5), (5, 3), (3,), (7, 3)))
        results = []
        for fused in (True, False):
            ts = [Tensor(a) for a in (x, w, b)]
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

    def test_log1p_relu_equals_log1p_of_relu_bitwise(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([
            [-0.0, 0.0, -1.0, -1e300, np.inf, -np.inf, np.nan, 1e300, np.nextafter(1e300, 0.0)],
            rng.normal(size=27),
        ]).reshape(4, 9)
        g = rng.normal(size=x.shape)
        results = []
        for fused in (True, False):
            t = Tensor(x.copy())
            with Tape() as tape:
                out = ad.log1p_relu(t) if fused else log1p(ad.relu(t))
                assert len(tape) == (1 if fused else 2)
                tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            results.append((out.data.tobytes(), t.grad.tobytes()))
        assert results[0] == results[1]


# A score this far below its row's max has exp exactly +0.0 (np.exp
# underflows below about -745.13): a hidden score at least this far down gets
# weight +0.0 from the additive composition, as from the boolean mask.
_EXP_CUT = -1000.0


def _skip_cases(rng, shape, name):
    """Score arrays [H, N, N] for the masked softmax. The near-cut and
    subnormal draws put 0.0 on the diagonal, which every layout leaves open,
    so each row's max is 0.0 and exp sees the drawn values themselves."""
    z = rng.normal(scale=3.0, size=shape)
    cut = _EXP_CUT
    near_cut = np.array([cut, np.nextafter(cut, 0.0), np.nextafter(cut, -np.inf),
                         cut + 1e-9, cut - 1e-9, cut + 0.5, cut - 0.5, -745.13, -745.14])
    spots = rng.random(shape)
    if name == "nan":
        z[spots < 0.02] = np.nan
    elif name == "inf":
        z[spots < 0.03] = np.inf
        z[spots > 0.97] = -np.inf
    elif name == "shifted":  # scores already pushed out by an additive mask
        z[spots < 0.5] += reference.MASK_NEG
    elif name == "near_cut":
        z = rng.choice(near_cut, size=shape)
    elif name == "subnormal":  # exp of these is subnormal, or near it
        z = rng.uniform(-745.0, -708.0, size=shape)
    if name in ("near_cut", "subnormal"):
        z[:, np.arange(shape[1]), np.arange(shape[1])] = 0.0
    return z


def _hidden_may_count(z, mask):
    """Rows of scaled scores ``z`` [H, N, N] where the additive composition
    may weight a hidden key: the hidden entries' max, shifted by the mask,
    is NaN or within ``_EXP_CUT`` of the visible entries' max, so its exp
    need not be +0.0."""
    hidden_max = np.where(mask, z + reference.MASK_NEG, -np.inf).max(axis=-1)
    visible_max = np.where(mask, -np.inf, z).max(axis=-1)
    return np.isnan(hidden_max) | (hidden_max >= visible_max + _EXP_CUT)


class TestSoftmaxSkip:
    """``attention``'s softmax hides masked entries without calling exp on
    them; these hold it to the full-exp additive composition where no hidden
    entry can reach a row's max, and to the hiding rule where one can."""

    @pytest.mark.parametrize("scale", [1.0, 0.125])
    @pytest.mark.parametrize("mask", ["none", "packed", "causal"])
    @pytest.mark.parametrize("name", ["nan", "inf", "shifted", "near_cut", "subnormal"])
    def test_weights_equal_full_exp_composition_bitwise(self, name, mask, scale):
        mask = None if mask == "none" else _LAYOUTS[mask].mask
        additive = None if mask is None else _additive(mask)
        rng = np.random.default_rng(sum(map(ord, name)))
        for _ in range(5):
            z = _skip_cases(rng, (3, 30, 30), name) / scale  # a power of two: exact
            with np.errstate(invalid="ignore"):  # inf - inf, in both
                got = ad._softmax(z.copy(), scale, mask)
                want = np.stack([softmax_rows(Tensor(zh * scale), additive).data for zh in z])
            if mask is not None:  # hidden weights are +0.0; a NaN row's too
                assert not got[:, mask].any() and not np.signbit(got[:, mask]).any()
                leaky = _hidden_may_count(z * scale, mask)
                assert name in ("nan", "inf", "shifted") or not leaky.any()
                got, want = got[~leaky], np.where(mask, 0.0, want)[~leaky]
            np.testing.assert_array_equal(got, want)  # NaN where NaN, bit for bit elsewhere
            assert got.tobytes() == np.where(np.isnan(want), got, want).tobytes()

    def test_exp_is_exactly_plus_zero_below_the_cut(self):
        """The platform assumption behind hiding entries as +0.0: if this
        numpy's exp returned -0.0 or a subnormal far below a row's max, the
        additive composition would not give hidden keys weight +0.0."""
        cut = _EXP_CUT
        x = np.concatenate([
            cut - np.linspace(0.0, 1000.0, 100_001),
            -np.geomspace(-cut, 1e300, 100_001),
            [np.nextafter(cut, -np.inf), reference.MASK_NEG, -1e300, -np.inf],
        ])
        for sweep in (x, x[::3], x[::-1]):  # contiguous and strided loops
            y = np.exp(sweep)
            assert not y.any() and not np.signbit(y).any()

    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_nan_key_of_another_sequence_stays_in_its_sequence_taped(self, num_heads):
        """A NaN key row of the second sequence leaves the first sequence's
        context rows and q, k, v gradient rows as a finite key row leaves
        them, bit for bit, and numpy warns of nothing on the way."""
        layout = _LAYOUTS["packed"]
        rng = np.random.default_rng(31)
        q, k, v, g = (rng.normal(size=(30, 4)) for _ in range(4))
        results = []
        for key in (k[20].copy(), np.nan):
            k[20] = key  # a key row of the second sequence
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ts = [Tensor(a) for a in (q, k, v)]
                with Tape() as tape:
                    out = ad.attention(*ts, num_heads, layout)
                    tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            results.append([out.data] + [t.grad for t in ts])
        for clean, got in zip(*results):
            assert np.isfinite(got[:13]).all()
            assert clean[:13].tobytes() == got[:13].tobytes()
        assert np.isnan(results[1][0][13:]).all()  # every row that sees the NaN key

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_nan_key_at_a_later_causal_position_hides_from_earlier_rows(self, num_heads, taped):
        starts = np.array([0, 5, 17, 30])
        layout = AttentionLayout(starts, starts, causal=True)
        rng = np.random.default_rng(32)
        q, k, v = (rng.normal(size=(30, 4)) for _ in range(3))
        k[10] = np.nan  # a later position of the second sequence
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() if taped else contextlib.nullcontext():
                out = ad.attention(Tensor(q), Tensor(k), Tensor(v), num_heads, layout)
        sees_nan = (np.arange(30) >= 10) & (np.arange(30) < 17)
        np.testing.assert_array_equal(np.isnan(out.data).any(axis=1), sees_nan)
        assert np.isnan(out.data[sees_nan]).all()

    @pytest.mark.parametrize("taped", [False, True])
    def test_own_scores_far_below_another_sequences_key_give_it_weight_0(self, taped):
        """Query row 0 scores -2e9 against each of its own 13 keys and 0.0
        against the second sequence's: under the additive mask that hidden
        0.0 - 1e9 was its row's max and took all the weight."""
        layout = _LAYOUTS["packed"]
        z = np.zeros((1, 30, 30))
        z[0, 0, :13] = -2e9
        p = ad._softmax(z, 1.0, layout.mask)
        np.testing.assert_array_equal(p[0, 0], [1.0 / 13] * 13 + [0.0] * 17)
        q, k, v = np.zeros((30, 4)), np.zeros((30, 4)), np.random.default_rng(33).normal(size=(30, 4))
        q[0, 0], k[:13, 0] = -4e9, 1.0  # scale 1/2 with one head of width 4
        with Tape() if taped else contextlib.nullcontext():
            out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 1, layout)
        np.testing.assert_allclose(out.data[0], v[:13].mean(axis=0), rtol=1e-12)


def _layer_norm_by_mean(x, gain, bias, g):
    """Layer norm's forward and backward written with ndarray.mean."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
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
        xt, gt, bt = (Tensor(a) for a in (x, gain, bias))
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
        table = Tensor(np.zeros((rows, width)))
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
        # One value per pair as a [P, 1] column: same sums, gradient in its shape.
        column = Tensor(values[:, None])
        g = self.weights(rng, shape)
        with Tape() as tape:
            got = ad.scatter_add_pairs(column, rows, cols, shape)
            tape.backward(ad.sum_all(ad.mul(got, Tensor(g))))
        assert got.data.tobytes() == want.tobytes()
        assert column.grad.tobytes() == g[rows, cols][:, None].tobytes()


def _segment_max_bits(op, x, starts, g):
    """Forward and gradient bytes of ``op`` on ``x`` for output gradient ``g``."""
    t = Tensor(x)
    with Tape() as tape:
        vals = op(t, starts)
        tape.backward(ad.sum_all(ad.mul(vals, Tensor(g))))
    return vals.data.tobytes(), t.grad.tobytes()


class TestSegmentMax:
    """segment_max takes each segment's first argmax row, forward and backward."""

    def test_nan_column_routes_to_its_nan_row(self):
        x = Tensor([[1.0, np.nan], [2.0, 0.5], [0.0, 3.0]])
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
        x = Tensor(np.random.default_rng(5).normal(size=(rows, vocab)))
        starts = np.arange(0, rows + 1, 32)
        with Tape():
            tracemalloc.start()
            try:
                ad.segment_max(x, starts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < rows * vocab * 8 / 2

    def test_only_three_functions_fork_on_tape_state(self):
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
            x = Tensor(rng.normal(size=(4, 6)))
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
        x = Tensor(rng.integers(-3, 4, size=(9, 6)).astype(float))
        starts = np.array([0, 4, 5, 9])
        untaped = ad.segment_max(x, starts)
        with Tape() as tape:
            taped = ad.segment_max(x, starts)
            assert len(tape) == 1
        np.testing.assert_array_equal(untaped.data, taped.data)
        assert x.grad is None

    def test_tape_replay_is_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            x = Tensor(rng.normal(size=(4, 3)))
            w = Tensor(rng.normal(size=(3, 2)))
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
