"""Command-line pipeline: build-vocab, train, encode, index, search, eval,
flops, gradcheck.

Exit codes: 0 success, 2 usage or bad configuration (or a model too large
for memory), 3 numeric failure (or a floating-point overflow numpy reports),
4 artifact incompatibility, 5 malformed file. Every error is one stderr line.
"""

from __future__ import annotations

import argparse
import configparser
import enum
import sys
import warnings
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from . import evaluation, text
from .autodiff import AttentionLayout, Tensor
from .backbones import BackboneConfig
from .errors import (
    CompatibilityError,
    ContractError,
    EmptyInputError,
    FormatError,
    LsrError,
    NumericError,
)
from .heads import HeadKind, read_vectors, write_vectors
from .index import build_index, flops_metric, load_index, save_index, top_k_search
from .model import SparseEncoder
from .training import ScoreStats, TrainConfig, normalize_teacher_scores, read_triplets, train

EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_COMPAT = 4
EXIT_FORMAT = 5


def _cmd_build_vocab(args) -> int:
    corpus = text.read_tsv_texts(args.corpus)
    vocab = text.build_vocab(corpus, min_freq=args.min_freq)
    vocab.save(args.output)
    print(f"wrote {len(vocab)} ids ({len(vocab.tokens)} tokens) to {args.output}")
    return 0


def _require(section, key: str, cast=str):
    if key not in section:
        raise ContractError(f"missing config key [{section.name}] {key}")
    try:
        return cast(section[key])
    except (ValueError, configparser.Error):
        accepted = "; expected one of " + ", ".join(cast) if isinstance(cast, enum.EnumMeta) else ""
        raise ContractError(f"bad value for config key [{section.name}] {key}{accepted}") from None


# Every section and key a training INI may hold, with the type its value is
# cast to; vocab_size is the vocabulary's size. _OPTIONAL names what may be
# left out: an absent key keeps its default in TrainConfig or
# SparseEncoder.build, and an absent section is not applied.
_INI = {
    "backbone": {k: t for k, t in get_type_hints(BackboneConfig).items() if k != "vocab_size"},
    "head": {"kind": HeadKind, "pooling": str},
    "train": get_type_hints(TrainConfig),
    "data": dict.fromkeys(("vocab", "triplets", "checkpoint", "metrics_log"), str),
    "teacher_normalization": get_type_hints(ScoreStats),
}
_OPTIONAL = {"head.pooling", "train.log_every", "teacher_normalization"}


def _read_ini(path) -> dict[str, dict]:
    """{section: {key: typed value}} for the INI at ``path``, read through
    ``_INI``; a section or key that ``_INI`` does not declare is refused."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ContractError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ContractError(f"malformed config file {path}: {exc}") from None
    for name, section in parser.items():  # [DEFAULT] first, so its keys are named there
        if name not in _INI and name != parser.default_section:
            raise ContractError(f"unknown config section [{name}]")
        for key in section:
            if key not in _INI.get(name, {}):
                raise ContractError(f"unknown config key [{name}] {key}")
            if "\0" in section.get(key, raw=True):  # no path may hold one
                raise ContractError(f"NUL character in config key [{name}] {key}")
    ini = {}
    for name, keys in _INI.items():
        if name in parser:
            section = parser[name]
            ini[name] = {key: _require(section, key, cast) for key, cast in keys.items()
                         if key in section or f"{name}.{key}" not in _OPTIONAL}
        elif name not in _OPTIONAL:
            raise ContractError(f"missing config section [{name}]")
    return ini


def _cmd_train(args) -> int:
    ini = _read_ini(args.config)
    data, train_cfg = ini["data"], TrainConfig(**ini["train"])
    if train_cfg.total_steps < 1:
        raise ContractError("[train] total_steps must be >= 1")
    stats = ScoreStats(**ini["teacher_normalization"]) if "teacher_normalization" in ini else None
    vocab = text.Vocabulary.load(data["vocab"])
    config = BackboneConfig(**ini["backbone"], vocab_size=len(vocab))
    model = SparseEncoder.build(config, **ini["head"])
    triplets = read_triplets(data["triplets"], vocab, config.max_seq_len)
    if stats is not None:
        triplets = normalize_teacher_scores(triplets, stats)
    reports = train(model, triplets, train_cfg, checkpoint_path=data["checkpoint"],
                    metrics_path=data["metrics_log"], vocab_digest=vocab.digest())
    final = reports[-1]
    print(
        f"trained {train_cfg.total_steps} steps: loss {final.loss:.6f}, "
        f"doc density {final.density_d:.1f}; checkpoint at {data['checkpoint']}"
    )
    return 0


def _cmd_encode(args) -> int:
    model, stored_digest = SparseEncoder.load(args.checkpoint)
    vocab = text.Vocabulary.load(args.vocab)
    if stored_digest and stored_digest != vocab.digest():
        raise CompatibilityError(
            "vocabulary digest does not match the one stored in the checkpoint"
        )
    if len(vocab) != model.backbone.config.vocab_size:
        raise CompatibilityError(
            f"vocabulary has {len(vocab)} ids but the checkpoint's vocab_size is "
            f"{model.backbone.config.vocab_size}"
        )
    records = text.read_tsv_texts(args.input)
    max_len = model.backbone.config.max_seq_len
    encoded = []
    for name, raw in records.items():
        tokens = text.tokenize(vocab, raw, max_len)
        if not tokens:
            raise EmptyInputError(f"{args.role} {name!r} tokenizes to zero tokens")
        encoded.append((name, model.encode(tokens)))
    write_vectors(args.output, encoded)
    print(f"encoded {len(encoded)} {args.role} records to {args.output}")
    return 0


def _cmd_index(args) -> int:
    docs = read_vectors(args.vectors)
    index = build_index(docs)
    save_index(index, args.output)
    print(
        f"indexed {index.doc_count} docs, {index.term_count} terms, "
        f"{index.posting_count} postings to {args.output}"
    )
    return 0


def _cmd_search(args) -> int:
    index = load_index(args.index)
    queries = read_vectors(args.queries)
    run = {qid: top_k_search(index, vec, args.k) for qid, vec in queries}
    evaluation.write_run(args.output, run, args.tag)
    print(f"searched {len(queries)} queries (k={args.k}) into {args.output}")
    return 0


def _cmd_eval(args) -> int:
    run = evaluation.read_run(args.run)
    qrels = evaluation.read_qrels(args.qrels)
    metrics = evaluation.evaluate(
        run, qrels, mrr_k=args.mrr_k, ndcg_k=args.ndcg_k, recall_k=args.recall_k
    )
    for name, value in metrics.items():
        print(f"{name}\t{value:.6f}")
    return 0


def _cmd_flops(args) -> int:
    index = load_index(args.index)
    queries = [vec for _, vec in read_vectors(args.queries)]
    print(f"FLOPs\t{flops_metric(queries, index):.6f}")
    return 0


def _gradcheck_cases(rng: np.random.Generator):
    """(name, scalar-valued fn, input) for every differentiable operation.

    Each table row is (name, op of the checked input with its other
    arguments fixed, input shape, input domain); every loss is
    ``sum_all(mul(op(x), w))`` with ``w`` a fixed random array of the op's
    output shape.
    """

    def off_kink(shape):  # |x| in [0.2, 1.5], away from relu's kink at 0
        return rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    def normal(shape):
        return rng.normal(size=shape)

    def uniform(low, high):
        return lambda shape: rng.uniform(low, high, size=shape)

    x34, w34, w45, b5, bias = (Tensor(normal(s)) for s in ((3, 4), (3, 4), (4, 5), 5, 4))
    gain = Tensor(uniform(0.5, 1.5)(4))
    ids, starts = np.array([0, 2, 2, 1]), np.array([0, 2, 5])
    table = [
        ("linear_x", lambda x: ad.linear(x, w45, b5), (3, 4), off_kink),
        ("linear_w", lambda x: ad.linear(x34, x, b5), (4, 5), off_kink),
        ("linear_b", lambda x: ad.linear(x34, w45, x), 5, off_kink),
        ("add", lambda x: ad.add(x, w34), (3, 4), off_kink),
        ("sub", lambda x: ad.sub(x, w34), (3, 4), off_kink),
        ("mul", lambda x: ad.mul(x, w34), (3, 4), off_kink),
        ("scale", lambda x: ad.scale(x, 2.5), (3, 4), off_kink),
        ("relu", ad.relu, (3, 4), off_kink),
        ("log1p_relu", ad.log1p_relu, (3, 4), uniform(-0.5, 2.0)),
        ("gather_rows", lambda x: ad.gather_rows(x, ids), (3, 4), off_kink),
        ("transpose", ad.transpose, (3, 4), off_kink),
        ("concat_rows", lambda x: ad.concat_rows([x, x]), (3, 4), off_kink),
        ("sum_all", ad.sum_all, (3, 4), off_kink),
        ("sum_over_axis", lambda x: ad.sum_over_axis(x, 1), (3, 4), off_kink),
        ("layer_norm_x", lambda x: ad.layer_norm(x, gain, bias), (3, 4), normal),
        ("layer_norm_gain", lambda x: ad.layer_norm(w34, x, bias), 4, uniform(0.5, 1.5)),
        (
            "scatter_add_pairs",
            lambda x: ad.scatter_add_pairs(x, [0, 1, 1, 0], ids, (2, 3)), 4, off_kink,
        ),
        ("segment_max", lambda x: ad.segment_max(x, starts), (5, 4), normal),
        ("segment_sum", lambda x: ad.segment_sum(x, starts), (5, 4), off_kink),
    ]

    def attend(layout, qkv, i):  # 2-head attention with x in place of qkv[i]
        return lambda x: ad.attention(*qkv[:i], x, *qkv[i + 1 :], 2, layout)

    for name, layout in [
        ("packed", AttentionLayout(starts, starts)),
        ("causal", AttentionLayout(starts, starts, causal=True)),
        ("cross", AttentionLayout(np.array([0, 1, 3]), starts)),
    ]:
        nq, nkv = int(layout.q_starts[-1]), int(layout.kv_starts[-1])
        qkv = [Tensor(normal(shape)) for shape in ((nq, 4), (nkv, 4), (nkv, 4))]
        for i, part in enumerate("qkv"):
            table.append((f"attention_{name}_{part}", attend(layout, qkv, i), qkv[i].shape, normal))

    def weighted_sum(op, w):
        return lambda x: ad.sum_all(ad.mul(op(x), w))

    cases = []
    for name, op, shape, domain in table:
        x = Tensor(domain(shape))
        cases.append((name, weighted_sum(op, Tensor(normal(op(x).shape))), x))
    return cases


def _cmd_gradcheck(args) -> int:
    failed = False
    for name, fn, x in _gradcheck_cases(np.random.default_rng(args.seed)):
        err = ad.finite_difference_check(fn, x, eps=1e-6)
        status = "ok" if err < 1e-5 else "FAIL"
        failed = failed or err >= 1e-5
        print(f"{name}\t{err:.3e}\t{status}")
    if failed:
        raise NumericError("finite-difference check failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsrkit", description="Learned sparse retrieval pipeline."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="derive a vocabulary from a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("train", help="train a model from an INI config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("encode", help="encode texts into sparse vectors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--role", choices=("query", "doc"), required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("index", help="build an inverted index from doc vectors")
    p.add_argument("--vectors", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("search", help="top-k search; writes a TREC run file")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--tag", default="lsrkit")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--mrr-k", type=int, default=10)
    p.add_argument("--ndcg-k", type=int, default=10)
    p.add_argument("--recall-k", type=int, default=1000)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("flops", help="mean query-document term overlap of an index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


# The least value of each integer flag, checked before any command runs.
_FLOORS = {"--min-freq": 1, "--seed": 0, "--k": 0, "--mrr-k": 1, "--ndcg-k": 1, "--recall-k": 1}

_EXIT_CODES = [
    (FormatError, EXIT_FORMAT),
    (CompatibilityError, EXIT_COMPAT),
    (NumericError, EXIT_NUMERIC),
    (RuntimeWarning, EXIT_NUMERIC),  # an overflow or invalid value numpy reports
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, floor in _FLOORS.items():
            value = getattr(args, flag[2:].replace("-", "_"), floor)
            if value < floor:
                raise ContractError(f"{flag} must be >= {floor}, not {value}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except (LsrError, OSError, RuntimeWarning, MemoryError) as exc:
        message = " ".join(str(exc).split()) or "out of memory"  # only a bare MemoryError is empty
        print(f"lsrkit {args.command}: {message}", file=sys.stderr)
        return next((code for types, code in _EXIT_CODES if isinstance(exc, types)), EXIT_USAGE)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
