"""Concept-level feature extraction shared by the three local modules.

The predefined module seeds concept embeddings from cap-weighted averages
of member stocks and corrects them through dense cosine-softmax links.
The hidden module re-groups stocks by argmax similarity against those
corrected embeddings, pruning pairs already covered by predefined links.
Local aggregation then folds each stock's linked concepts back into a
per-stock feature; the individual module is a plain per-stock map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeError


@dataclass
class LinearMap:
    weight: Tensor   # [out, in]
    bias: Tensor     # [out]

    def tensors(self) -> list[Tensor]:
        return [self.weight, self.bias]


def affine(x: Tensor, fc: LinearMap) -> Tensor:
    return ad.add(ad.matmul(x, ad.transpose(fc.weight)), fc.bias)


def init_linear(rng: np.random.Generator, out_width: int, in_width: int, prefix: str) -> LinearMap:
    bound = 1.0 / np.sqrt(in_width)
    return LinearMap(
        weight=Tensor(rng.uniform(-bound, bound, size=(out_width, in_width)),
                      requires_grad=True, name=f"{prefix}.w"),
        bias=Tensor(rng.uniform(-bound, bound, size=(out_width,)),
                    requires_grad=True, name=f"{prefix}.b"),
    )


def init_predefined(encoded: Tensor, member_mask: np.ndarray,
                    market_caps: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Cap-weighted average of member stocks per concept.

    Returns the [n_concepts, width] embedding tensor and a boolean flag
    per concept marking empty membership (those rows are zero).
    """
    caps = np.asarray(market_caps, dtype=np.float64)
    if np.any(caps <= 0.0):
        raise ContractError("init_predefined requires positive market caps")
    mask = np.asarray(member_mask, dtype=bool)
    if mask.shape[0] != encoded.data.shape[0]:
        raise ShapeError(f"membership rows {mask.shape[0]} != stocks {encoded.data.shape[0]}")
    weighted = mask * caps[:, None]
    totals = weighted.sum(axis=0)
    empty = totals == 0.0
    weights = weighted / np.where(empty, 1.0, totals)
    return ad.matmul(Tensor(weights.T), encoded), empty


def correct_predefined(encoded: Tensor, concept_init: Tensor, correction: LinearMap) -> Tensor:
    """Re-estimate every concept from all stocks through dense soft links.

    Link strengths are cosine scores softmaxed across stocks per concept,
    so even concepts with no (or wrong) hard links receive an embedding.
    """
    scores = ad.cosine_matrix(encoded, concept_init)
    stock_weights = ad.softmax(scores, axis=0)
    pooled = ad.matmul(ad.transpose(stock_weights), encoded)
    return ad.leaky_relu(affine(pooled, correction))


def assign_hidden(residual: Tensor, concept_init: Tensor,
                  predefined_mask: np.ndarray) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Group stocks by the most-similar concept, pruning predefined pairs.

    Returns the cosine score tensor (reused for the embedding weights),
    the per-stock argmax column (ties resolved to the lowest index), and
    the pruned membership mask for concept-side aggregation.
    """
    if concept_init.data.shape[0] < 1:
        raise ContractError("assign_hidden requires at least one concept")
    scores = ad.cosine_matrix(residual, concept_init)
    chosen = np.argmax(scores.data, axis=1)
    membership = np.zeros_like(np.asarray(predefined_mask, dtype=bool))
    membership[np.arange(len(chosen)), chosen] = True
    membership &= ~np.asarray(predefined_mask, dtype=bool)
    return scores, chosen, membership


def hidden_embeddings(residual: Tensor, scores: Tensor, membership: np.ndarray,
                      correction: LinearMap) -> Tensor:
    """Score-weighted member sum per hidden concept, then the correction map.

    Concepts left empty by pruning reduce to the bias row (empty sums are
    zero vectors).
    """
    masked = ad.multiply(scores, Tensor(membership.astype(np.float64)))
    pooled = ad.matmul(ad.transpose(masked), residual)
    return ad.leaky_relu(affine(pooled, correction))


def local_aggregate(stock_features: Tensor, concept_embeddings: Tensor,
                    link_mask: np.ndarray, fc: LinearMap) -> tuple[Tensor, Tensor]:
    """Fuse each stock's linked concepts by cosine-softmax importance.

    Every stock must have at least one link; callers are responsible for
    the fallback rules that guarantee it.  Returns the fused per-stock
    features and the importance weights (rows sum to one over links).
    """
    mask = np.asarray(link_mask, dtype=bool)
    if not mask.any(axis=1).all():
        missing = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise ContractError(f"stock index {missing} has an empty concept link set")
    scores = ad.cosine_matrix(stock_features, concept_embeddings)
    importance = ad.softmax(scores, axis=1, mask=mask)
    pooled = ad.matmul(importance, concept_embeddings)
    return ad.leaky_relu(affine(pooled, fc)), importance


def individual_features(residual: Tensor, fc: LinearMap) -> Tensor:
    """Per-stock map for information not explained by any concept."""
    return ad.leaky_relu(affine(residual, fc))


def predefined_link_sets(member_mask: np.ndarray, empty_concepts: np.ndarray) -> np.ndarray:
    """Per-stock link sets for the predefined stage's local aggregation.

    Stocks keep their hard links; stocks with none fall back to every
    non-empty concept.
    """
    mask = np.asarray(member_mask, dtype=bool).copy()
    fallback = ~mask.any(axis=1)
    if fallback.any():
        mask[fallback] = ~np.asarray(empty_concepts, dtype=bool)
    return mask


def hidden_link_sets(chosen: np.ndarray, n_concepts: int) -> np.ndarray:
    """Per-stock link sets for the hidden stage: the pre-pruning argmax.

    A stock whose assignment was pruned from the concept-side sets still
    aggregates from that concept, so no stock is left without links.
    """
    mask = np.zeros((len(chosen), n_concepts), dtype=bool)
    mask[np.arange(len(chosen)), chosen] = True
    return mask
