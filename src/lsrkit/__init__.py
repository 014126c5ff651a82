"""lsrkit: desk-scale learned sparse retrieval.

Transformer backbones (encoder-only, decoder, and two encoder-decoder
wirings) with MLP/MLM sparse representation heads, distillation training
under FLOPs sparsity regularization, and an exact inverted-index search
and evaluation pipeline — all on a small float64 autodiff core.
"""

from .autodiff import Tape, Tensor, finite_difference_check
from .backbones import Backbone, BackboneConfig, Variant
from .errors import LsrError
from .evaluation import mrr_at_k, ndcg_at_k, recall_at_k
from .heads import HeadKind, SparseHead, SparseVector, mlm_head, mlp_head
from .index import InvertedIndex, build_index, flops_metric, top_k_search
from .model import SparseEncoder
from .text import Vocabulary, build_vocab, tokenize
from .training import (
    ScoreStats,
    TrainConfig,
    TrainingTriplet,
    affine_transform_scores,
    flops_regularizer,
    lambda_schedule,
    margin_mse,
    train,
    train_step,
)

__version__ = "0.1.0"
