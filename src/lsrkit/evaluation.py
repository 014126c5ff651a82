"""IR metrics (MRR@k, nDCG@k, Recall@k) over TREC-format runs and qrels.

File formats (whitespace-separated):
  qrels  ``qid 0 docname rel``
  run    ``qid Q0 docname rank score tag``

Metric conventions follow trec_eval: exponential nDCG gain 2^rel - 1 with
discount 1/log2(rank + 1), ideal DCG over all judged documents truncated
at the cutoff. Queries whose judgments contain no relevant document score
0 for MRR/nDCG but are dropped from Recall's mean. Run queries without
any judgments are skipped with a warning.
"""

from __future__ import annotations

import logging
import math
import sys

from .errors import ContractError, FormatError, NumericError
from .text import checked_name, parse_number, read_records, write_output

logger = logging.getLogger(__name__)

Qrels = dict[str, dict[str, int]]
Run = dict[str, list[tuple[str, float]]]


def read_qrels(path) -> Qrels:
    qrels: Qrels = {}
    for lineno, (qid, _, doc, raw_rel) in read_records(path, 4, "'qid 0 docname rel'", None):
        try:
            rel = parse_number(int, raw_rel)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad relevance {raw_rel!r}") from None
        if rel < 0:
            raise FormatError(f"{path}:{lineno}: relevance must be >= 0")
        if rel >= sys.float_info.max_exp:  # 2.0**rel would overflow
            raise FormatError(f"{path}:{lineno}: relevance {rel} has no finite gain 2^rel - 1")
        per_query = qrels.setdefault(qid, {})
        if doc in per_query:
            raise FormatError(f"{path}:{lineno}: duplicate judgment for ({qid}, {doc})")
        per_query[doc] = rel
    return qrels


def read_run(path) -> Run:
    rows: dict[str, dict[str, tuple[int, float]]] = {}
    form = "'qid Q0 docname rank score tag'"
    for lineno, (qid, _, doc, raw_rank, raw_score, _) in read_records(path, 6, form, None):
        try:
            rank, score = parse_number(int, raw_rank), parse_number(float, raw_score)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad rank or score") from None
        if not math.isfinite(score):  # NaN compares false, so it would pass the order check
            raise FormatError(f"{path}:{lineno}: score {raw_score} is not finite")
        per_query = rows.setdefault(qid, {})
        if doc in per_query:
            raise FormatError(f"{path}:{lineno}: doc {doc} listed twice for query {qid}")
        per_query[doc] = rank, score
    run: Run = {}
    for qid, docs in rows.items():
        entries = sorted((rank, doc, score) for doc, (rank, score) in docs.items())
        if [rank for rank, _, _ in entries] != list(range(1, len(entries) + 1)):
            raise FormatError(f"run ranks for query {qid} are not contiguous from 1")
        scores = [score for _, _, score in entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise FormatError(f"run scores for query {qid} increase with rank")
        run[qid] = [(doc, score) for _, doc, score in entries]
    return run


def write_run(path, run: Run, tag: str) -> None:
    """Write a run file; a qid, doc name or tag that is empty or holds
    whitespace raises ContractError and leaves any old file as it was."""
    checked_name("run tag", tag)
    lines = (
        f"{checked_name('run qid', qid)} Q0 {checked_name('run doc name', doc)}"
        f" {rank} {score:.6f} {tag}\n"
        for qid, ranked in run.items()
        for rank, (doc, score) in enumerate(ranked, start=1)
    )
    write_output(path, (line.encode("utf-8") for line in lines))


def _evaluated_queries(run: Run, qrels: Qrels, k: int = 1) -> list[str]:
    if k < 1:
        raise ContractError(f"metric cutoff k must be >= 1, got {k}")
    evaluated = [qid for qid in run if qid in qrels]
    if not evaluated:
        raise ContractError("no run query has judgments")
    skipped = len(run) - len(evaluated)
    if skipped:
        logger.warning("skipped %d run queries without judgments", skipped)
    return evaluated


def mrr_at_k(run: Run, qrels: Qrels, k: int = 10) -> float:
    """Mean reciprocal rank of the first relevant document within the top k."""
    total = 0.0
    queries = _evaluated_queries(run, qrels, k)
    for qid in queries:
        judged = qrels[qid]
        for rank, (doc, _) in enumerate(run[qid][:k], start=1):
            if judged.get(doc, 0) >= 1:
                total += 1.0 / rank
                break
    return total / len(queries)


def _dcg(rels) -> float:
    """Discounted cumulative gain of grades in rank order, added left to right."""
    dcg = 0.0
    try:
        for rank, rel in enumerate(rels, start=1):
            if rel > 0:
                dcg += (2.0**rel - 1.0) / math.log2(rank + 1)
    except OverflowError:
        raise NumericError(f"relevance {rel} has no finite gain 2^rel - 1") from None
    return dcg


def ndcg_at_k(run: Run, qrels: Qrels, k: int = 10) -> float:
    total = 0.0
    queries = _evaluated_queries(run, qrels, k)
    for qid in queries:
        judged = qrels[qid]
        idcg = _dcg(sorted(judged.values(), reverse=True)[:k])
        if idcg > 0.0:
            total += _dcg([judged.get(doc, 0) for doc, _ in run[qid][:k]]) / idcg
    ndcg = total / len(queries)
    if not math.isfinite(ndcg):
        raise NumericError(f"nDCG@{k} is not finite: the gains overflow float64")
    return ndcg


def recall_at_k(run: Run, qrels: Qrels, k: int = 1000) -> float:
    total = 0.0
    counted = 0
    skipped = 0
    for qid in _evaluated_queries(run, qrels, k):
        relevant = {doc for doc, rel in qrels[qid].items() if rel >= 1}
        if not relevant:
            skipped += 1
            continue
        retrieved = {doc for doc, _ in run[qid][:k]}
        total += len(relevant & retrieved) / len(relevant)
        counted += 1
    if counted == 0:
        raise ContractError("no evaluated query has a relevant document")
    if skipped:
        logger.warning("recall: excluded %d queries with no relevant documents", skipped)
    return total / counted


def evaluate(run: Run, qrels: Qrels, mrr_k=10, ndcg_k=10, recall_k=1000) -> dict[str, float]:
    judged = {qid: ranked for qid, ranked in run.items() if qid in qrels}
    metrics = {
        f"MRR@{mrr_k}": mrr_at_k(judged, qrels, mrr_k),
        f"nDCG@{ndcg_k}": ndcg_at_k(judged, qrels, ndcg_k),
        f"Recall@{recall_k}": recall_at_k(judged, qrels, recall_k),
    }
    _evaluated_queries(run, qrels)  # one skip warning, and none before an error
    return metrics
