"""Dense float64 tensors with a reverse-mode gradient tape.

Everything trains in float64 so finite-difference gradient checks stay
tight. Under an active :class:`Tape` every operation records one backward
rule, and backward accumulates a gradient into every :class:`Tensor` the
operation read: nothing is frozen, so a constant input gets ``.grad`` too.
With no active tape operations run as plain numpy forward passes.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError, TapeStateError

_TAPE: ContextVar["Tape | None"] = ContextVar("lsrkit_tape", default=None)


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of differentiable operations for one backward pass.

    Use as a context manager; operations executed inside record their
    backward rules in order. ``backward`` replays them strictly in
    reverse. A tape can run backward once; build a new tape per step.
    The active tape is a context variable: each thread, and each context,
    records only into the tape it opened itself.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._done = False

    def __enter__(self) -> "Tape":
        self._token = _TAPE.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE.reset(self._token)
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Reverse-accumulate gradients of a scalar loss into ``.grad`` buffers."""
        if self._done:
            raise TapeStateError("backward already ran on this tape; build a new tape")
        if loss.data.shape != ():
            raise ShapeError(f"loss must be a scalar, got shape {loss.data.shape}")
        if not self._entries:
            raise TapeStateError("tape is empty; no operations were recorded")
        self._done = True
        loss.grad = np.ones((), dtype=np.float64)
        for out, backward in reversed(self._entries):
            g = out.grad
            if g is not None:
                backward(g)


def recording() -> bool:
    """Whether a :class:`Tape` is active, so operations may record backward rules."""
    return _TAPE.get() is not None


def _record(out: Tensor, backward: Callable[[np.ndarray], None]) -> Tensor:
    tape = _TAPE.get()
    if tape is not None:
        tape._entries.append((out, backward))
    return out


def _accum(t: Tensor, g) -> None:
    """Accumulate a gradient the tensor must not take ownership of."""
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _accum_owned(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a freshly allocated gradient; adopted without copying."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of a rank-2 input, recorded as one tape entry.

    Forward and backward do the arithmetic of the two taped reference ops
    ``add_bias(matmul(x, w), b)`` in ``tests/reference.py``.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise ShapeError(f"linear shape mismatch: {xd.shape} x {wd.shape} + {b.data.shape}")
    y = xd @ wd
    y += b.data
    out = Tensor(y)

    def backward(g):
        _accum_owned(b, np.add.reduce(g, 0))
        _accum_owned(x, g @ wd.T)
        _accum_owned(w, xd.T @ g)

    return _record(out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same shapes."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _record(out, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference of same shapes."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shape mismatch: {a.data.shape} - {b.data.shape}")
    out = Tensor(a.data - b.data)

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same shapes."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data)

    def backward(g):
        _accum_owned(a, g * b.data)
        _accum_owned(b, g * a.data)

    return _record(out, backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)
    out = Tensor(x.data * c)

    def backward(g):
        _accum_owned(x, g * c)

    return _record(out, backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(g):
        _accum_owned(x, g * (x.data > 0.0))

    return _record(out, backward)


def log1p_relu(x: Tensor) -> Tensor:
    """Elementwise log(1 + max(0, x)), the heads' saturation, as one tape
    entry; subgradient at 0 is 0. Forward and backward do the arithmetic of
    ``log1p(relu(x))`` with the taped reference ``log1p`` in ``tests/reference.py``."""
    r = np.maximum(x.data, 0.0)
    out = Tensor(np.log1p(r))

    def backward(g):
        _accum_owned(x, g / (1.0 + r) * (x.data > 0.0))

    return _record(out, backward)


@dataclass(frozen=True)
class AttentionLayout:
    """Which key rows each query row of a packed batch may attend to.

    Sequence s owns query rows ``q_starts[s]:q_starts[s + 1]`` and key/value
    rows ``kv_starts[s]:kv_starts[s + 1]``; a causal layout (self-attention,
    so both offsets are equal) also hides each row's later positions. The
    first taped ``attention`` call builds its dense ``visible``.
    """

    q_starts: np.ndarray
    kv_starts: np.ndarray
    causal: bool = False

    @cached_property
    def visible(self) -> np.ndarray:
        """[Nq, Nkv], True where a query row sees a key row: a row of its own
        sequence and, if causal, not a later one (a sequence's rows run in position order)."""
        q, kv = (np.arange(len(s) - 1).repeat(np.subtract(s[1:], s[:-1]))  # each row's sequence
                 for s in (self.q_starts, self.kv_starts))
        visible = q[:, None] == kv
        if self.causal:
            visible &= np.arange(len(q))[:, None] >= np.arange(len(q))
        return visible

    @cached_property
    def causal_visible(self) -> np.ndarray:
        """Causal ``visible`` of the longest sequence, True on and below the
        diagonal; a sequence of n rows takes its top-left [n, n] block."""
        s = self.q_starts
        rows = np.arange(np.maximum.reduce(np.subtract(s[1:], s[:-1])))
        return rows[:, None] >= rows


def _softmax(z: np.ndarray, scale: float, visible=True) -> np.ndarray:
    """Softmax over the last axis of ``z * scale``, computed in ``z``. Where
    ``visible`` (broadcast against ``z``) is False an entry is hidden: it takes
    no part in its row's max and gets weight +0.0 without a call to exp.
    ``True``, every entry visible, runs numpy's unmasked loops."""
    z *= scale
    z -= np.maximum.reduce(z, -1, keepdims=True, where=visible, initial=-np.inf)
    np.exp(z, out=z, where=visible)
    if visible is not True:  # in place: a second [H, N, N] buffer costs more than this pass
        np.copyto(z, 0.0, where=~visible)
    return np.divide(z, np.add.reduce(z, -1, keepdims=True), out=z, where=visible)


def attention(
    qp: Tensor, kp: Tensor, vp: Tensor, num_heads: int, layout: AttentionLayout
) -> Tensor:
    """Multi-head attention context [Nq, d] of a packed batch.

    ``qp`` is [Nq, d] and ``kp``/``vp`` are [Nkv, d]; head h owns columns
    ``h*d_head:(h+1)*d_head``, and ``layout`` says which key rows each query
    row sees: both offsets cut their rows as ``segment_max`` cuts, into equally
    many sequences, and are equal in a causal layout. Per head this is
    ``softmax_rows(scale(qh @ kh.T, 1/sqrt(d_head)), -1e9 where hidden) @ vh``
    (reference ops in ``tests/reference.py``), with heads stacked as C-ordered
    [H, N, d_head] arrays for one np.matmul per product: each head's operands
    keep the layout of a copied column slice, so numpy picks the same BLAS
    calls and the bits equal that composition where no hidden score nears
    its row's max.

    Under a tape it runs once over the whole batch with ``layout.visible`` and
    records one entry with a hand-written backward. With no tape it loops
    over the sequences, masking only causal segments, and builds no N x N
    array; on one sequence both paths give the same bits. A hidden key gets
    weight +0.0 and no gradient: a NaN key row reaches only rows that see it.
    """
    if (
        qp.data.ndim != 2 or kp.data.ndim != 2 or vp.data.shape != kp.data.shape
        or kp.data.shape[1] != qp.data.shape[1]
    ):
        raise ShapeError(
            f"attention shapes: q {qp.data.shape}, k {kp.data.shape}, v {vp.data.shape}"
        )
    nq, d = qp.data.shape
    if num_heads < 1 or d % num_heads:
        raise ShapeError(f"width {d} does not split into {num_heads} heads")
    q_bounds = _check_offsets(layout.q_starts, qp.data)
    kv_bounds = _check_offsets(layout.kv_starts, kp.data)
    if len(q_bounds) != len(kv_bounds) or (layout.causal and q_bounds != kv_bounds):
        raise ShapeError(f"layout offsets {q_bounds} x {kv_bounds} do not pair sequences")
    dh = d // num_heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):  # [N, d] -> [H, N, d_head]
        return np.ascontiguousarray(a.reshape(len(a), num_heads, dh).transpose(1, 0, 2))

    def merge(a):  # [H, N, d_head] -> [N, d] in C order, as bias-gradient row sums need
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], d)

    def weights(q, k, visible):  # softmax over keys of the scaled, masked scores
        return _softmax(np.matmul(q, k.transpose(0, 2, 1)), scale, visible)

    if not recording():
        ctx = np.empty((nq, d))
        for (q0, q1), (k0, k1) in zip(pairwise(q_bounds), pairwise(kv_bounds)):
            visible = layout.causal_visible[: q1 - q0, : q1 - q0] if layout.causal else True
            p = weights(split(qp.data[q0:q1]), split(kp.data[k0:k1]), visible)
            ctx[q0:q1] = merge(np.matmul(p, split(vp.data[k0:k1])))
        return Tensor(ctx)

    q, k, v = split(qp.data), split(kp.data), split(vp.data)
    p = weights(q, k, layout.visible)
    out = Tensor(merge(np.matmul(p, v)))

    def backward(g):
        g = split(g)
        _accum_owned(vp, merge(np.matmul(p.transpose(0, 2, 1), g)))
        dp = np.matmul(g, v.transpose(0, 2, 1))
        dp -= np.add.reduce(dp * p, 2, keepdims=True)
        ds = np.multiply(p, dp, out=np.zeros(p.shape), where=layout.visible)  # +0.0 if hidden
        ds *= scale
        # (q.T @ ds).T: the product the per-head graph computes for k
        _accum_owned(kp, merge(np.matmul(q.transpose(0, 2, 1), ds).transpose(0, 2, 1)))
        # a NaN key row is NaN in every row that sees it anyway
        _accum_owned(qp, merge(np.matmul(ds, np.where(np.isnan(k), 0.0, k))))

    return _record(out, backward)


def _scatter_sum(flat_ids: np.ndarray, weights: np.ndarray, shape) -> np.ndarray:
    """Zeros of ``shape`` plus each weight at its flat index, added left to
    right as ``np.add.at`` adds them: the same bits at a third of the cost."""
    out = np.bincount(flat_ids.ravel(), weights.ravel(), math.prod(shape))
    return out.astype(np.float64, copy=False).reshape(shape)  # int64 when empty


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows by index (duplicates allowed); backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[idx])

    def backward(g):
        rows = idx.reshape(-1, 1) % len(x.data)  # negative ids: the rows x.data[idx] read
        width = math.prod(x.data.shape[1:])
        _accum_owned(x, _scatter_sum(rows * width + np.arange(width), g, x.data.shape))

    return _record(out, backward)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects rank 2, got {x.data.shape}")
    out = Tensor(x.data.T)

    def backward(g):
        _accum(x, g.T)

    return _record(out, backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    bounds = [0, *accumulate(p.data.shape[0] for p in parts)]

    def backward(g):
        for p, a, b in zip(parts, bounds, bounds[1:]):
            _accum(p, g[a:b])

    return _record(out, backward)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.add.reduce(x.data, None))

    def backward(g):
        _accum_owned(x, np.full(x.data.shape, g))

    return _record(out, backward)


def sum_over_axis(x: Tensor, axis: int) -> Tensor:
    if not 0 <= axis < x.data.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.data.shape}")
    out = Tensor(np.add.reduce(x.data, axis))

    def backward(g):
        _accum_owned(x, np.full(x.data.shape, g.reshape(g.shape[:axis] + (1,) + g.shape[axis:])))

    return _record(out, backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Row-wise layer normalization with learned gain and bias, eps 1e-5."""
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],):
        raise ShapeError(
            f"layer_norm shapes: x {x.data.shape}, gain {gain.data.shape}"
        )
    # sum / n is numpy's own mean arithmetic, without its Python wrapper.
    n = x.data.shape[1]
    mu = np.add.reduce(x.data, 1, keepdims=True) / n
    xc = x.data - mu
    var = np.add.reduce(xc * xc, 1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)

    def backward(g):
        _accum_owned(gain, np.add.reduce(g * xhat, 0))
        _accum_owned(bias, np.add.reduce(g, 0))
        dxhat = g * gain.data
        m1 = np.add.reduce(dxhat, 1, keepdims=True) / n
        m2 = np.add.reduce(dxhat * xhat, 1, keepdims=True) / n
        _accum_owned(x, inv * (dxhat - m1 - xhat * m2))

    return _record(out, backward)


def scatter_add_pairs(values: Tensor, rows, cols, shape: tuple[int, int]) -> Tensor:
    """Sum one value per (row, col) pair into a matrix of ``shape``; ``values``
    is [P] or [P, 1] for P pairs, and repeated pairs add up."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    pairs = rows.shape
    if rows.ndim != 1 or cols.shape != pairs or values.data.shape not in (pairs, pairs + (1,)):
        raise ShapeError("scatter_add_pairs: rows, cols must be [P] and values [P] or [P, 1]")
    flat = np.ravel_multi_index((rows, cols), shape)
    out = Tensor(_scatter_sum(flat, values.data, shape))

    def backward(g):
        _accum_owned(values, g[rows, cols].reshape(values.data.shape))

    return _record(out, backward)


def _check_offsets(starts: np.ndarray, x: np.ndarray) -> list[int]:
    """``starts`` as Python ints; ShapeError unless they cut the rows of ``x``
    into S >= 1 non-empty segments: 1-D integers from 0 to the row count, strictly ascending."""
    s = np.asarray(starts)
    bounds = s.tolist()  # a few Python ints check faster than numpy ops on them
    if not (s.ndim == 1 and s.dtype.kind in "iu" and len(bounds) > 1 and bounds[0] == 0
            and x.shape[:1] == (bounds[-1],) and bounds == sorted(set(bounds))):
        raise ShapeError(f"offsets {bounds} do not cut rows of {x.shape} into non-empty segments")
    return bounds


def segment_max(x: Tensor, starts: np.ndarray) -> Tensor:
    """Column-wise maxima over contiguous row segments.

    ``starts`` has S+1 offsets delimiting S non-empty segments covering all
    rows of ``x``; others raise ShapeError. Each maximum is taken at
    ``np.argmax``'s first occurrence in its segment: the lowest row attaining
    the maximum, or the first NaN of a column holding one. The backward pass
    sends each output gradient to that row.
    """
    bounds = _check_offsets(starts, x.data)
    data = x.data
    rows = np.array([data[a:b].argmax(axis=0) + a for a, b in pairwise(bounds)])
    cols = np.arange(data.shape[1])
    out = Tensor(data[rows, cols])

    def backward(g):
        buf = np.zeros(data.shape)
        # (rows[s, c], c) pairs are unique, so assignment == accumulation.
        buf[rows, cols] = g
        _accum_owned(x, buf)

    return _record(out, backward)


def segment_sum(x: Tensor, starts: np.ndarray) -> Tensor:
    """Column-wise sums over contiguous row segments, cut as ``segment_max`` cuts."""
    bounds = _check_offsets(starts, x.data)
    counts = np.subtract(bounds[1:], bounds[:-1])
    out = Tensor(np.add.reduceat(x.data, bounds[:-1], axis=0))

    def backward(g):
        _accum_owned(x, g.repeat(counts, axis=0))

    return _record(out, backward)


def finite_difference_check(
    f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-6
) -> float:
    """Compare the taped gradient of a scalar function against central differences.

    Returns the max over coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    x.grad = None
    try:
        with Tape() as tape:
            out = f(x)
            if tape._entries:
                tape.backward(out)
        analytic = (
            np.zeros_like(x.data) if x.grad is None else np.array(x.grad, copy=True)
        )
    finally:
        x.grad = None

    worst = 0.0
    data = x.data  # perturbed in place by index: a reshape of a strided view is a copy
    for i in np.ndindex(data.shape):
        orig = data[i]
        data[i] = orig + eps
        fp = f(x).item()
        data[i] = orig - eps
        fm = f(x).item()
        data[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError("non-finite value during finite-difference evaluation")
        numeric = (fp - fm) / (2.0 * eps)
        a = float(analytic[i])
        err = abs(a - numeric) / max(1.0, abs(a))
        if err > worst:
            worst = err
    return worst
