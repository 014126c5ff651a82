"""Test oracles and reference implementations that the package itself does not use."""

from lsrkit import autodiff as ad
from lsrkit.autodiff import Tensor
from lsrkit.backbones import Backbone, Variant
from lsrkit.errors import ContractError
from lsrkit.heads import HeadKind, SparseHead, SparseVector, mlm_head


def mlm_multitoken_equals_positionwise_max(
    h: Tensor, backbone_embeddings: Tensor, cfg: SparseHead
) -> bool:
    """Oracle: multi-token output == entrywise max of per-position outputs."""
    if cfg.kind != HeadKind.MLM_MULTITOKENS or cfg.pooling != "max":
        raise ContractError("oracle applies to the max-pooled multi-token head")
    multi = mlm_head(h, backbone_embeddings, cfg)
    single_cfg = SparseHead(
        HeadKind.MLM_SINGLETOKEN, h.data.shape[1], cfg.vocab_size
    )
    single_cfg.b_vocab = cfg.b_vocab
    best: dict[int, float] = {}
    for j in range(h.data.shape[0]):
        row = mlm_head(ad.gather_rows(h, [j]), backbone_embeddings, single_cfg)
        for t, w in row.entries.items():
            if w > best.get(t, 0.0):
                best[t] = w
    return multi == SparseVector(best)


def inert_parameter_names(backbone: Backbone) -> set[str]:
    """Parameters that provably cannot affect any output of this variant.

    The single-token variant feeds the decoder exactly one position, so
    its self-attention softmax is the constant 1.0 and the query/key
    projections carry no signal (and can receive no gradient).
    """
    if backbone.config.variant != Variant.ENCDEC_SINGLETOKEN:
        return set()
    names = set()
    for i in range(backbone.config.num_layers):
        for p in ("wq", "wk", "bq", "bk"):
            names.add(f"dec.{i}.attn.{p}")
    return names


def write_tsv_texts(path, records: dict[str, str]) -> None:
    """Write ``name<TAB>text`` records, the inverse of ``text.read_tsv_texts``."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, text in records.items():
            fh.write(f"{name}\t{text}\n")
