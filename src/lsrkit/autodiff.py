"""Dense float64 tensors with a reverse-mode gradient tape.

Everything trains in float64 so finite-difference gradient checks stay
tight. Operations record a backward rule on the active :class:`Tape`;
with no active tape they run as plain numpy forward passes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateMaskError,
    DomainError,
    NumericError,
    ShapeError,
    TapeStateError,
    VocabError,
)

# Additive stand-in for -inf in attention masks; exp(x - 1e9) underflows
# to exactly 0.0, so masked positions contribute nothing, bitwise.
MASK_NEG = -1e9

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars and same/broadcastable shapes only.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


class Tape:
    """Ordered record of differentiable operations for one backward pass.

    Use as a context manager; operations executed inside record their
    backward rules in order. ``backward`` replays them strictly in
    reverse. A tape can run backward once; build a new tape per step.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._done = False
        self._prev: Tape | None = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> bool:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
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


def _record(out: Tensor, backward: Callable[[np.ndarray], None]) -> Tensor:
    tape = _ACTIVE_TAPE
    if tape is not None and out.requires_grad:
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            _accum_owned(a, g @ b.data.T)
        if b.requires_grad:
            _accum_owned(b, a.data.T @ g)

    return _record(out, backward)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; supports same shapes, a trailing-axis bias, or a scalar."""
    if not isinstance(b, Tensor):
        out = Tensor(a.data + float(b), a.requires_grad)

        def backward_c(g):
            _accum(a, g)

        return _record(out, backward_c)

    if a.data.shape == b.data.shape:
        out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

        def backward(g):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g)

        return _record(out, backward)

    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

        def backward_b(g):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g.sum(axis=0))

        return _record(out, backward_b)

    raise ShapeError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")


def sub(a: Tensor, b) -> Tensor:
    """Elementwise difference; same shapes or a scalar subtrahend."""
    if not isinstance(b, Tensor):
        return add(a, -float(b))
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shape mismatch: {a.data.shape} - {b.data.shape}")
    out = Tensor(a.data - b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, -g)

    return _record(out, backward)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; same shapes or a scalar factor."""
    if not isinstance(b, Tensor):
        return scale(a, float(b))
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            _accum_owned(a, g * b.data)
        if b.requires_grad:
            _accum_owned(b, g * a.data)

    return _record(out, backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)
    out = Tensor(x.data * c, x.requires_grad)

    def backward(g):
        _accum_owned(x, g * c)

    return _record(out, backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    out = Tensor(np.maximum(x.data, 0.0), x.requires_grad)

    def backward(g):
        _accum_owned(x, g * (x.data > 0.0))

    return _record(out, backward)


def log1p(x: Tensor) -> Tensor:
    """Elementwise log(1 + x); defined for x > -1."""
    if x.data.size and np.min(x.data) <= -1.0:
        raise DomainError("log1p requires all elements > -1")
    out = Tensor(np.log1p(x.data), x.requires_grad)

    def backward(g):
        _accum_owned(x, g / (1.0 + x.data))

    return _record(out, backward)


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax of a rank-2 tensor with an optional additive mask.

    The mask is a constant array of 0 (keep) and :data:`MASK_NEG` (drop);
    a row with every position dropped is an error.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects rank 2, got {x.data.shape}")
    z = x.data
    if mask is not None:
        if mask.shape != z.shape:
            raise ShapeError(f"mask shape {mask.shape} != input shape {z.shape}")
        if float(mask.max(axis=1).min()) <= MASK_NEG:
            raise DegenerateMaskError("softmax row has all positions masked")
        z = z + mask
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p, x.requires_grad)

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        _accum_owned(x, p * (g - dot))

    return _record(out, backward)


def max_over_axis(x: Tensor, axis: int) -> tuple[Tensor, np.ndarray]:
    """Maxima along one axis plus the argmax indices used for routing.

    Ties route to the lowest index; the backward pass sends each output
    gradient only to its recorded argmax position.
    """
    if not 0 <= axis < x.data.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.data.shape}")
    args = np.argmax(x.data, axis=axis)
    vals = np.take_along_axis(x.data, np.expand_dims(args, axis), axis).squeeze(axis)
    out = Tensor(vals, x.requires_grad)

    def backward(g):
        buf = np.zeros_like(x.data)
        np.put_along_axis(buf, np.expand_dims(args, axis), np.expand_dims(g, axis), axis)
        _accum_owned(x, buf)

    return _record(out, backward), args


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of an embedding table; gradients scatter-add back."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ShapeError(f"ids must be rank 1, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise VocabError(
            f"id out of range for table with {table.data.shape[0]} rows"
        )
    out = Tensor(table.data[ids], table.requires_grad)

    def backward(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        _accum_owned(table, buf)

    return _record(out, backward)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows by index (duplicates allowed); backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[idx], x.requires_grad)

    def backward(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        _accum_owned(x, buf)

    return _record(out, backward)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects rank 2, got {x.data.shape}")
    out = Tensor(x.data.T, x.requires_grad)

    def backward(g):
        _accum(x, g.T)

    return _record(out, backward)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape), x.requires_grad)

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return _record(out, backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(np.ascontiguousarray(x.data[:, start:stop]), x.requires_grad)

    def backward(g):
        buf = np.zeros_like(x.data)
        buf[:, start:stop] = g
        _accum_owned(x, buf)

    return _record(out, backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    out = Tensor(
        np.concatenate([p.data for p in parts], axis=1),
        any(p.requires_grad for p in parts),
    )
    splits = np.cumsum([p.data.shape[1] for p in parts])[:-1]

    def backward(g):
        for p, piece in zip(parts, np.split(g, splits, axis=1)):
            if p.requires_grad:
                _accum(p, piece)

    return _record(out, backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    out = Tensor(
        np.concatenate([p.data for p in parts], axis=0),
        any(p.requires_grad for p in parts),
    )
    splits = np.cumsum([p.data.shape[0] for p in parts])[:-1]

    def backward(g):
        for p, piece in zip(parts, np.split(g, splits, axis=0)):
            if p.requires_grad:
                _accum(p, piece)

    return _record(out, backward)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(), x.requires_grad)

    def backward(g):
        _accum(x, np.broadcast_to(g, x.data.shape))

    return _record(out, backward)


def sum_over_axis(x: Tensor, axis: int) -> Tensor:
    if not 0 <= axis < x.data.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.data.shape}")
    out = Tensor(x.data.sum(axis=axis), x.requires_grad)

    def backward(g):
        _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return _record(out, backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization with learned gain and bias."""
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],):
        raise ShapeError(
            f"layer_norm shapes: x {x.data.shape}, gain {gain.data.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(
        xhat * gain.data + bias.data,
        x.requires_grad or gain.requires_grad or bias.requires_grad,
    )

    def backward(g):
        if gain.requires_grad:
            _accum(gain, (g * xhat).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            _accum_owned(x, inv * (dxhat - m1 - xhat * m2))

    return _record(out, backward)


def scatter_add_pairs(values: Tensor, rows, cols, shape: tuple[int, int]) -> Tensor:
    """Accumulate a vector of values into a matrix at (row, col) positions."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if values.data.ndim != 1 or values.data.shape[0] != rows.shape[0] != cols.shape[0]:
        raise ShapeError("scatter_add_pairs: values, rows, cols must be equal-length vectors")
    buf = np.zeros(shape, dtype=np.float64)
    np.add.at(buf, (rows, cols), values.data)
    out = Tensor(buf, values.requires_grad)

    def backward(g):
        _accum_owned(values, g[rows, cols])

    return _record(out, backward)


def segment_max(x: Tensor, starts: np.ndarray) -> Tensor:
    """Column-wise maxima over contiguous row segments.

    ``starts`` has S+1 monotone offsets delimiting S segments covering all
    rows of ``x``. Ties route to the lowest row, matching max_over_axis.
    """
    data = x.data
    vals = np.maximum.reduceat(data, starts[:-1], axis=0)
    out = Tensor(vals, x.requires_grad)
    if _ACTIVE_TAPE is None or not x.requires_grad:
        return out  # no backward will run, so skip the argmax routing
    n_rows, n_cols = data.shape
    n_seg = len(starts) - 1
    cols = np.arange(n_cols)
    seg_of_row = np.repeat(np.arange(n_seg), np.diff(starts))
    # Lowest row attaining each segment max (the tie rule of max_over_axis).
    at_max = data == vals[seg_of_row]
    candidates = np.where(at_max, np.arange(n_rows)[:, None], n_rows)
    args = np.minimum.reduceat(candidates, starts[:-1], axis=0)

    def backward(g):
        buf = np.zeros_like(x.data)
        # (args[s, c], c) pairs are unique, so assignment == accumulation.
        buf[args, cols[None, :]] = g
        _accum_owned(x, buf)

    return _record(out, backward)


def segment_sum(x: Tensor, starts: np.ndarray) -> Tensor:
    """Column-wise sums over contiguous row segments."""
    counts = np.diff(starts)
    out = Tensor(np.add.reduceat(x.data, starts[:-1], axis=0), x.requires_grad)

    def backward(g):
        _accum_owned(x, np.repeat(g, counts, axis=0))

    return _record(out, backward)


def finite_difference_check(
    f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-6
) -> float:
    """Compare the taped gradient of a scalar function against central differences.

    Returns the max over coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    x.grad = None
    prev_rg = x.requires_grad
    x.requires_grad = True
    try:
        with Tape() as tape:
            out = f(x)
            if tape._entries:
                tape.backward(out)
        analytic = (
            np.zeros_like(x.data) if x.grad is None else np.array(x.grad, copy=True)
        )
    finally:
        x.requires_grad = prev_rg
        x.grad = None

    worst = 0.0
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).item()
        flat[i] = orig - eps
        fm = f(x).item()
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError("non-finite value during finite-difference evaluation")
        numeric = (fp - fm) / (2.0 * eps)
        a = float(analytic.reshape(-1)[i])
        err = abs(a - numeric) / max(1.0, abs(a))
        if err > worst:
            worst = err
    return worst
