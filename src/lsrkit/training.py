"""Distillation training: MarginMSE, FLOPs regularization, Adam loop.

The loss per step is

    margin_mse(student margins, teacher margins)
      + lambda_q(t) * flops_regularizer(query activations)
      + lambda_d(t) * flops_regularizer(document activations)

with both lambdas ramped quadratically over the first ``lambda_ramp_steps``
steps. Teacher scores arrive precomputed in the triplet file; an optional
affine pass rescales them to a reference mean/std first.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ContractError, DegenerateDistributionError, FormatError, NumericError, ShapeError
from .errors import TapeStateError
from .model import SparseEncoder
from .text import Vocabulary, parse_number, read_records, tokenize, write_output


@dataclass(frozen=True)
class TrainingTriplet:
    query_tokens: tuple[int, ...]
    pos_tokens: tuple[int, ...]
    neg_tokens: tuple[int, ...]
    teacher_pos: float
    teacher_neg: float


@dataclass(frozen=True)
class ScoreStats:
    mean: float
    std: float

    def __post_init__(self):
        for name in ("mean", "std"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite")
        if self.std < 0.0:
            raise ContractError("std must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    learning_rate: float
    batch_size: int = 16
    warmup_steps: int = 0
    lambda_q: float = 0.0
    lambda_d: float = 0.0
    lambda_ramp_steps: int = 1
    seed: int = 0
    log_every: int = 100

    def __post_init__(self):
        for name, low in [("total_steps", 0), ("warmup_steps", 0), ("seed", 0),
                          ("batch_size", 1), ("lambda_ramp_steps", 1), ("log_every", 1)]:
            if getattr(self, name) < low:
                raise ContractError(f"{name} must be >= {low}")
        if self.warmup_steps > self.total_steps:
            raise ContractError("warmup_steps must be <= total_steps")
        for name in ("lambda_q", "lambda_d"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ContractError(f"{name} must be finite and >= 0")
        if not 0.0 < self.learning_rate < math.inf:
            raise ContractError("learning_rate must be finite and > 0")


@dataclass
class StepReport:
    step: int
    loss: float
    margin_loss: float
    reg_q: float
    reg_d: float
    grad_norm: float
    lr: float
    lambda_q: float
    lambda_d: float
    density_q: float
    density_d: float

    def log_record(self) -> dict:
        """The metrics-log line: fixed key set, 'lambda' is the document weight."""
        return {
            "step": self.step,
            "loss": self.loss,
            "margin_loss": self.margin_loss,
            "reg_q": self.reg_q,
            "reg_d": self.reg_d,
            "density_q": self.density_q,
            "density_d": self.density_d,
            "lr": self.lr,
            "lambda": self.lambda_d,
        }


def _as_tensor_1d(values) -> Tensor:
    if isinstance(values, Tensor):
        if values.data.ndim != 1:
            raise ContractError(f"expected a vector, got shape {values.data.shape}")
        return values
    return Tensor(np.asarray(values, dtype=np.float64).reshape(-1))


def margin_mse(student_margins, teacher_margins) -> Tensor:
    """Mean squared error between student and teacher score margins."""
    s = _as_tensor_1d(student_margins)
    t = np.asarray(teacher_margins, dtype=np.float64).reshape(-1)
    n = s.data.shape[0]
    if n == 0 or t.shape[0] != n:
        raise ContractError("margin batches must be equal-length and non-empty")
    diff = ad.sub(s, Tensor(t))
    return ad.scale(ad.sum_all(ad.mul(diff, diff)), 1.0 / n)


def flops_regularizer(batch) -> Tensor:
    """Sum over vocabulary of the squared batch-mean activation.

    ``batch`` is a [B, |V|] activation Tensor (the differentiable training
    path) or B rows that numpy stacks into one, such as arrays or lists.
    """
    if not isinstance(batch, Tensor):
        try:
            batch = Tensor(list(batch))
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"batch rows do not stack into one array: {exc}") from None
    if batch.data.ndim != 2 or batch.data.shape[0] == 0:
        raise ContractError("expected a non-empty [batch, vocab] tensor")
    mean = ad.scale(ad.sum_over_axis(batch, 0), 1.0 / batch.data.shape[0])
    return ad.sum_all(ad.mul(mean, mean))


def lambda_schedule(step: int, ramp_steps: int, lambda_max: float) -> float:
    """Quadratic ramp: lambda_max * min(1, step/ramp)^2, constant afterwards."""
    if ramp_steps < 1:
        raise ContractError("ramp_steps must be >= 1")
    return lambda_max * min(1.0, step / ramp_steps) ** 2


def warmup_lr(step: int, warmup_steps: int, learning_rate: float) -> float:
    """Linear warmup to the base rate; ``step`` counts from 1."""
    if warmup_steps <= 0:
        return learning_rate
    return learning_rate * min(1.0, step / warmup_steps)


def affine_transform_scores(scores, ref: ScoreStats) -> np.ndarray:
    """Rescale scores so their population mean/std match the reference.

    The map is strictly monotone whenever ref.std > 0, so ranking order
    and margin signs are preserved.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size < 2:
        raise ContractError("need at least 2 scores")
    mu, sd = arr.mean(), arr.std()
    if sd == 0.0:
        raise DegenerateDistributionError("cannot rescale a constant score distribution")
    return (arr - mu) / sd * ref.std + ref.mean


def normalize_teacher_scores(
    triplets: Sequence[TrainingTriplet], ref: ScoreStats
) -> list[TrainingTriplet]:
    """Affine-transform all teacher scores (pos and neg pooled) to ref stats."""
    pooled = [t.teacher_pos for t in triplets] + [t.teacher_neg for t in triplets]
    mapped = affine_transform_scores(pooled, ref)
    n = len(triplets)
    return [
        TrainingTriplet(
            t.query_tokens, t.pos_tokens, t.neg_tokens, float(mapped[i]), float(mapped[n + i])
        )
        for i, t in enumerate(triplets)
    ]


class Adam:
    """Adam with linear learning-rate warmup; step counter starts at 1.

    Learning rate and warmup steps come from ``cfg``; betas and eps are
    Kingma & Ba's defaults (ICLR 2015). The moments of all parameters live
    in two flat buffers, a slice each.
    """

    def __init__(self, params: list[tuple[str, Tensor]], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self._offsets = np.cumsum([0] + [t.data.size for _, t in params]).tolist()
        self._m = np.zeros(self._offsets[-1])
        self._v = np.zeros(self._offsets[-1])

    def step(self) -> float:
        """Update every parameter from its grad, bit for bit as a per-parameter
        loop would, and release the grads. A parameter without a grad raises
        TapeStateError before anything changes."""
        for name, p in self.params:
            if p.grad is None:
                raise TapeStateError(f"parameter {name} has no gradient")
        self.t += 1
        lr = warmup_lr(self.t, self.cfg.warmup_steps, self.cfg.learning_rate)
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        m, v = self._m, self._v
        g = np.concatenate([p.grad.reshape(-1) for _, p in self.params])
        tmp = (1.0 - b1) * g
        m *= b1
        m += tmp
        v *= b2
        g *= g
        g *= 1.0 - b2
        v += g
        # g becomes lr * (m / c1) / (sqrt(v / c2) + eps)
        np.sqrt(np.divide(v, c2, out=g), out=g)
        g += eps
        np.multiply(lr, np.divide(m, c1, out=tmp), out=tmp)
        np.divide(tmp, g, out=g)
        for (_, p), a, b in zip(self.params, self._offsets, self._offsets[1:]):
            p.data -= g[a:b].reshape(p.data.shape)
            p.grad = None
        return lr


def _mean_density(activations: np.ndarray) -> float:
    counts = np.add.reduce(activations > 0.0, 1)  # then ndarray.mean's float64 sum / rows
    return float(np.add.reduce(counts, 0, np.float64) / len(counts))


def train_step(
    model: SparseEncoder,
    optimizer: Adam,
    batch: Sequence[TrainingTriplet],
    cfg: TrainConfig,
    step: int,
) -> StepReport:
    """One distillation step over a batch of triplets; deterministic."""
    if not batch:
        raise ContractError("batch must be non-empty")
    lam_q = lambda_schedule(step, cfg.lambda_ramp_steps, cfg.lambda_q)
    lam_d = lambda_schedule(step, cfg.lambda_ramp_steps, cfg.lambda_d)
    teacher = [t.teacher_pos - t.teacher_neg for t in batch]

    with Tape() as tape:
        # An overflow surfaces once, as the NumericError below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            q_act = model.batch_activations([t.query_tokens for t in batch])
            p_act = model.batch_activations([t.pos_tokens for t in batch])
            n_act = model.batch_activations([t.neg_tokens for t in batch])
            s_pos = ad.sum_over_axis(ad.mul(q_act, p_act), 1)
            s_neg = ad.sum_over_axis(ad.mul(q_act, n_act), 1)
            margins = ad.sub(s_pos, s_neg)
            m_loss = margin_mse(margins, teacher)
            reg_q = flops_regularizer(q_act)
            d_act = ad.concat_rows([p_act, n_act])
            reg_d = flops_regularizer(d_act)
            loss = m_loss
            if lam_q > 0.0:
                loss = ad.add(loss, ad.scale(reg_q, lam_q))
            if lam_d > 0.0:
                loss = ad.add(loss, ad.scale(reg_d, lam_d))
            for name, value in (
                ("margin_loss", m_loss),
                ("reg_q", reg_q),
                ("reg_d", reg_d),
                ("loss", loss),
            ):
                if not math.isfinite(value.item()):
                    raise NumericError(f"non-finite {name} at step {step}")
        tape.backward(loss)

    sq = 0.0
    for _, p in model.parameters():
        sq += float(np.add.reduce(p.grad * p.grad, None))
    grad_norm = math.sqrt(sq)
    lr = optimizer.step()
    return StepReport(
        step=step,
        loss=loss.item(),
        margin_loss=m_loss.item(),
        reg_q=reg_q.item(),
        reg_d=reg_d.item(),
        grad_norm=grad_norm,
        lr=lr,
        lambda_q=lam_q,
        lambda_d=lam_d,
        density_q=_mean_density(q_act.data),
        density_d=_mean_density(d_act.data),
    )


def _shuffled_indices(size: int, rng: np.random.Generator):
    """Seeded index stream: one fresh permutation of range(size) after another."""
    while True:
        yield from rng.permutation(size).tolist()


def train(
    model: SparseEncoder,
    dataset: Sequence[TrainingTriplet],
    cfg: TrainConfig,
    checkpoint_path=None,
    metrics_path=None,
    vocab_digest: str = "",
    on_report: Callable[[StepReport], None] | None = None,
) -> list[StepReport]:
    """Run the full training loop; returns the logged step reports."""
    if not dataset:
        raise ContractError("dataset must be non-empty")
    for path in (metrics_path, checkpoint_path):  # fail before the first step, not after the last
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ContractError(f"the directory of output {path} does not exist")
        if path is not None and os.path.isdir(path):
            raise ContractError(f"output {path} is a directory")
    stream = _shuffled_indices(len(dataset), np.random.default_rng(cfg.seed))
    optimizer = Adam(model.parameters(), cfg)
    reports: list[StepReport] = []
    for step in range(cfg.total_steps):
        batch = [dataset[i] for i in islice(stream, cfg.batch_size)]
        report = train_step(model, optimizer, batch, cfg, step)
        if step % cfg.log_every == 0 or step == cfg.total_steps - 1:
            reports.append(report)
            if on_report is not None:
                on_report(report)
    if metrics_path is not None:
        lines = (json.dumps(report.log_record()) + "\n" for report in reports)
        write_output(metrics_path, (line.encode("utf-8") for line in lines))
    if checkpoint_path is not None:
        model.save(checkpoint_path, vocab_digest=vocab_digest)
    return reports


def read_triplets(path, vocab: Vocabulary, max_seq_len: int) -> list[TrainingTriplet]:
    """Parse a 5-column triplet file and tokenize all three texts."""
    triplets: list[TrainingTriplet] = []
    for lineno, parts in read_records(path, 5, "5 tab-separated fields"):
        try:
            teacher_pos, teacher_neg = parse_number(float, parts[3]), parse_number(float, parts[4])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad teacher scores") from None
        if not (math.isfinite(teacher_pos) and math.isfinite(teacher_neg)):
            raise FormatError(f"{path}:{lineno}: teacher scores must be finite")
        seqs = [tuple(tokenize(vocab, text, max_seq_len)) for text in parts[:3]]
        if any(not s for s in seqs):
            raise FormatError(f"{path}:{lineno}: text tokenizes to zero tokens")
        triplets.append(TrainingTriplet(*seqs, teacher_pos, teacher_neg))
    return triplets
