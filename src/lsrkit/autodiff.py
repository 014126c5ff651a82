"""Dense float64 tensors with a reverse-mode gradient tape.

Everything trains in float64 so finite-difference gradient checks stay
tight. Operations record a backward rule on the active :class:`Tape`;
with no active tape they run as plain numpy forward passes.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateMaskError,
    DomainError,
    NumericError,
    ShapeError,
    TapeStateError,
)

# Additive stand-in for -inf in attention masks; exp(x - 1e9) underflows
# to exactly 0.0, so masked positions contribute nothing, bitwise.
MASK_NEG = -1e9

_ACTIVE_TAPE: "Tape | None" = None

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_IN_ITEM = threading.local()  # .active: this thread runs for_each items


def _new_pool() -> None:  # threads start on first use: importing lsrkit starts none
    global _POOL
    _POOL = ThreadPoolExecutor(_CPUS - 1) if _CPUS > 1 else None


_new_pool()
if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but no thread of it
    os.register_at_fork(after_in_child=_new_pool)


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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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


def recording() -> bool:
    """Whether a :class:`Tape` is active, so operations may record backward rules."""
    return _ACTIVE_TAPE is not None


def for_each(fn: Callable, items: Sequence) -> None:
    """Call ``fn(item)`` for every item, in one contiguous group of items per
    CPU the process may use: this thread runs the first group, the pool the
    others. Returns when all are done, re-raising the first exception. A call
    that writes only its own rows gets the bits of a plain loop. A call made
    inside an item runs inline, so no pool thread waits on its own pool."""
    nested = getattr(_IN_ITEM, "active", False)
    groups = max(1, min(_CPUS, len(items))) if _POOL is not None and not nested else 1

    def run(g):
        _IN_ITEM.active = True  # stays set in a pool thread, which runs only groups
        for item in items[len(items) * g // groups : len(items) * (g + 1) // groups]:
            fn(item)

    futures = [_POOL.submit(run, g) for g in range(1, groups)]
    try:
        run(0)
    finally:
        _IN_ITEM.active = nested
        wait(futures)
    for future in futures:
        future.result()


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
    out = Tensor(y, x.requires_grad or w.requires_grad or b.requires_grad)

    def backward(g):
        if b.requires_grad:
            _accum_owned(b, g.sum(axis=0))
        if x.requires_grad:
            _accum_owned(x, g @ wd.T)
        if w.requires_grad:
            _accum_owned(w, xd.T @ g)

    return _record(out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same shapes."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _record(out, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference of same shapes."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shape mismatch: {a.data.shape} - {b.data.shape}")
    out = Tensor(a.data - b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, -g)

    return _record(out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same shapes."""
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


@dataclass(frozen=True)
class AttentionLayout:
    """Which key rows each query row of a packed batch may attend to.

    Sequence s owns query rows ``q_starts[s]:q_starts[s + 1]`` and key/value
    rows ``kv_starts[s]:kv_starts[s + 1]``; a causal layout (self-attention,
    so both offsets are equal) also hides each row's later positions.
    """

    q_starts: np.ndarray
    kv_starts: np.ndarray
    causal: bool = False

    def __post_init__(self):
        if recording():
            # Build the taped mask now, before the blocks allocate their
            # activations. Built lazily inside the first attention call,
            # taped train steps measured about 4% slower.
            self.mask

    def segments(self):
        """(q0, q1, kv0, kv1) row bounds of each sequence, as Python ints."""
        return zip(
            self.q_starts[:-1].tolist(), self.q_starts[1:].tolist(),
            self.kv_starts[:-1].tolist(), self.kv_starts[1:].tolist(),
        )

    @cached_property
    def mask(self) -> np.ndarray:
        """Dense [Nq, Nkv] additive block-diagonal mask, built once per layout."""
        rows = np.arange(self.q_starts[-1])
        # Segment ids, offset by one alike for queries and keys.
        seg_q = np.searchsorted(self.q_starts, rows, side="right")
        seg_kv = seg_q
        if self.kv_starts is not self.q_starts:
            seg_kv = np.searchsorted(self.kv_starts, np.arange(self.kv_starts[-1]), side="right")
        allowed = seg_q[:, None] == seg_kv[None, :]
        if self.causal:
            # Within one sequence, row j precedes row i exactly when j <= i.
            allowed &= rows[None, :] <= rows[:, None]
        return np.where(allowed, 0.0, MASK_NEG)

    @cached_property
    def causal_block(self) -> np.ndarray:
        """Additive causal mask of the longest sequence; a sequence of n rows
        takes its top-left [n, n] block."""
        longest = int(np.diff(self.q_starts).max())
        return np.where(np.tri(longest, dtype=bool), 0.0, MASK_NEG)


def attention(
    qp: Tensor, kp: Tensor, vp: Tensor, num_heads: int, layout: AttentionLayout, scale: float
) -> Tensor:
    """Multi-head attention context [Nq, d] of a packed batch.

    ``qp`` is [Nq, d] and ``kp``/``vp`` are [Nkv, d]; head h owns columns
    ``h*d_head:(h+1)*d_head``, and ``layout`` says which key rows each query
    row sees. A query row that sees no key row is an error. Per head this is
    the arithmetic of ``softmax_rows(scale(qh @ kh.T), mask) @ vh`` (reference
    ops in ``tests/reference.py``), with heads stacked as C-ordered
    [H, N, d_head] arrays for one np.matmul per product: each head's operands
    keep the layout of a copied column slice, so numpy picks the same BLAS
    calls and the bits equal that per-head composition.

    Under a tape it runs once over the whole batch with ``layout.mask`` and
    records one entry with a hand-written backward. With no tape it loops
    over the sequences, masking only causal segments, and builds no N x N
    array; masked scores become 0 after exp either way, so on one sequence
    both paths give the same bits.
    """
    if (
        qp.data.ndim != 2 or kp.data.ndim != 2 or vp.data.shape != kp.data.shape
        or kp.data.shape[1] != qp.data.shape[1]
    ):
        raise ShapeError(
            f"attention shapes: q {qp.data.shape}, k {kp.data.shape}, v {vp.data.shape}"
        )
    (nq, d), nkv = qp.data.shape, kp.data.shape[0]
    if num_heads < 1 or d % num_heads:
        raise ShapeError(f"width {d} does not split into {num_heads} heads")
    q_starts, kv_starts = layout.q_starts, layout.kv_starts
    if len(q_starts) != len(kv_starts) or (q_starts[-1], kv_starts[-1]) != (nq, nkv):
        raise ShapeError(
            f"layout offsets {q_starts.tolist()} x {kv_starts.tolist()} "
            f"do not cover scores shape {(nq, nkv)}"
        )
    if np.any((np.diff(q_starts) > 0) & (np.diff(kv_starts) == 0)):
        raise DegenerateMaskError("softmax row has all positions masked")
    scale = float(scale)
    dh = d // num_heads
    requires_grad = qp.requires_grad or kp.requires_grad or vp.requires_grad

    def split(a):  # [N, d] -> [H, N, d_head]
        return np.ascontiguousarray(a.reshape(len(a), num_heads, dh).transpose(1, 0, 2))

    def merge(a):  # [H, N, d_head] -> [N, d] in C order, as bias-gradient row sums need
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], d)

    def weights(q, k, mask):  # softmax over keys of the scaled, masked scores
        z = np.matmul(q, k.transpose(0, 2, 1))
        z *= scale
        if mask is not None:
            z += mask
        z -= z.max(axis=2, keepdims=True)
        p = np.exp(z, out=z)
        p /= p.sum(axis=2, keepdims=True)
        return p

    if not recording():
        ctx = np.empty((nq, d))
        for q0, q1, k0, k1 in layout.segments():
            if q0 == q1:  # no query rows: nothing to attend from
                continue
            mask = layout.causal_block[: q1 - q0, : q1 - q0] if layout.causal else None
            p = weights(split(qp.data[q0:q1]), split(kp.data[k0:k1]), mask)
            ctx[q0:q1] = merge(np.matmul(p, split(vp.data[k0:k1])))
        return Tensor(ctx, requires_grad)

    q, k, v = split(qp.data), split(kp.data), split(vp.data)
    p = weights(q, k, layout.mask)
    out = Tensor(merge(np.matmul(p, v)), requires_grad)

    def backward(g):
        g = split(g)
        if vp.requires_grad:
            _accum_owned(vp, merge(np.matmul(p.transpose(0, 2, 1), g)))
        if not (qp.requires_grad or kp.requires_grad):
            return
        dp = np.matmul(g, v.transpose(0, 2, 1))
        ds = p * (dp - (dp * p).sum(axis=2, keepdims=True))
        ds *= scale
        if kp.requires_grad:
            # (q.T @ ds).T: the product the per-head graph computes for k
            _accum_owned(kp, merge(np.matmul(q.transpose(0, 2, 1), ds).transpose(0, 2, 1)))
        if qp.requires_grad:
            _accum_owned(qp, merge(np.matmul(ds, k)))

    return _record(out, backward)


def _scatter_sum(flat_ids: np.ndarray, weights: np.ndarray, shape) -> np.ndarray:
    """Zeros of ``shape`` plus each weight at its flat index, added left to
    right as ``np.add.at`` adds them: the same bits at a third of the cost."""
    out = np.bincount(flat_ids.ravel(), weights.ravel(), math.prod(shape))
    return out.astype(np.float64, copy=False).reshape(shape)  # int64 when empty


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows by index (duplicates allowed); backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[idx], x.requires_grad)

    def backward(g):
        rows = idx.reshape(-1, 1) % len(x.data)  # negative ids: the rows x.data[idx] read
        width = math.prod(x.data.shape[1:])
        _accum_owned(x, _scatter_sum(rows * width + np.arange(width), g, x.data.shape))

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
    # sum / n is numpy's own mean arithmetic, without its Python wrapper.
    n = x.data.shape[1]
    mu = x.data.sum(axis=1, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=1, keepdims=True) / n
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
            m1 = dxhat.sum(axis=1, keepdims=True) / n
            m2 = (dxhat * xhat).sum(axis=1, keepdims=True) / n
            _accum_owned(x, inv * (dxhat - m1 - xhat * m2))

    return _record(out, backward)


def scatter_add_pairs(values: Tensor, rows, cols, shape: tuple[int, int]) -> Tensor:
    """Accumulate a vector of values into a matrix at (row, col) positions."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if values.data.ndim != 1 or values.data.shape[0] != rows.shape[0] != cols.shape[0]:
        raise ShapeError("scatter_add_pairs: values, rows, cols must be equal-length vectors")
    flat = np.ravel_multi_index((rows, cols), shape)
    out = Tensor(_scatter_sum(flat, values.data, shape), values.requires_grad)

    def backward(g):
        _accum_owned(values, g[rows, cols])

    return _record(out, backward)


def segment_max(x: Tensor, starts: np.ndarray) -> Tensor:
    """Column-wise maxima over contiguous row segments.

    ``starts`` has S+1 monotone offsets delimiting S non-empty segments
    covering all rows of ``x``. Each maximum is taken at ``np.argmax``'s
    first occurrence in its segment: the lowest row attaining the maximum,
    or the first NaN of a column holding one. The backward pass sends each
    output gradient to that row.
    """
    data = x.data
    bounds = starts.tolist()
    rows = np.stack([data[a:b].argmax(axis=0) + a for a, b in zip(bounds[:-1], bounds[1:])])
    cols = np.arange(data.shape[1])
    out = Tensor(data[rows, cols], x.requires_grad)

    def backward(g):
        buf = np.zeros_like(data)
        # (rows[s, c], c) pairs are unique, so assignment == accumulation.
        buf[rows, cols] = g
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
