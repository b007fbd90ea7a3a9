"""External memory: K stored unit-norm patterns per enabled stage.

Reads (:func:`global_aggregate`) are differentiable attention over the
bank; writes (:func:`memorize`) are rule-based buffer mutations outside
the tape, applied once per date in chronological order during training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import EPS, Tensor
from .errors import ContractError, ShapeError


@dataclass
class MemoryBank:
    """K x width buffer whose rows stay L2-normalized across writes."""

    items: np.ndarray
    stage: str = ""

    @property
    def n_items(self) -> int:
        return self.items.shape[0]

    @property
    def width(self) -> int:
        return self.items.shape[1]

    def copy(self) -> "MemoryBank":
        return MemoryBank(items=self.items.copy(), stage=self.stage)


@dataclass
class RetrievalState:
    correlations: Tensor   # [n_stocks, n_items] raw query-item scores
    match_probs: Tensor    # [n_stocks, n_items]; columns sum to 1
    refined: Tensor        # [n_stocks, width] query (x) retrieved pattern


def init_bank(n_items: int, width: int, seed: int, stage: str = "") -> MemoryBank:
    if n_items < 1 or width < 1:
        raise ContractError(f"bank dimensions must be >= 1, got {n_items}x{width}")
    rows = np.random.default_rng(seed).standard_normal((n_items, width))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return MemoryBank(items=rows, stage=stage)


def global_aggregate(queries: Tensor, bank_items: Tensor) -> RetrievalState:
    """Refine queries against the bank.

    Match probabilities normalize each item's scores ACROSS STOCKS (the
    per-item softmax over the cross-section), and the refined feature is
    the elementwise product of the query with its probability-weighted
    retrieval over all items.
    """
    queries = ad.as_tensor(queries)
    bank_items = ad.as_tensor(bank_items)
    if queries.data.ndim != 2 or queries.data.shape[1] != bank_items.data.shape[1]:
        raise ShapeError(
            f"query width {queries.data.shape} does not match bank {bank_items.data.shape}"
        )
    correlations = ad.matmul(queries, ad.transpose(bank_items))
    match_probs = ad.softmax(correlations, axis=0)
    retrieved = ad.matmul(match_probs, bank_items)
    return RetrievalState(
        correlations=correlations,
        match_probs=match_probs,
        refined=ad.multiply(queries, retrieved),
    )


def memorize(queries: Tensor | np.ndarray, match_probs: Tensor | np.ndarray,
             bank: MemoryBank) -> MemoryBank:
    """Fold the strongest-matching stocks into the bank, in place.

    Per-stock probabilities are renormalized by their own maximum and
    summed into a write strength in [1, n_items] (0 for a stock whose
    probabilities are all zero); stocks are ranked by
    strength (ties to the lower index) and the k-th ranked stock updates
    row k via an L2-normalized accumulation.  With fewer stocks than
    rows, trailing rows are left untouched.  Not differentiable by design.
    """
    q = queries.data if isinstance(queries, Tensor) else np.asarray(queries, dtype=np.float64)
    v = match_probs.data if isinstance(match_probs, Tensor) else np.asarray(match_probs, dtype=np.float64)
    n_stocks = q.shape[0]
    if n_stocks < 1:
        raise ContractError("memorize requires at least one stock")
    if v.shape != (n_stocks, bank.n_items) or q.shape[1] != bank.width:
        raise ShapeError(
            f"memorize operands {q.shape}/{v.shape} do not match bank "
            f"{bank.items.shape}"
        )
    # a row whose probabilities all underflowed to zero gets strength 0
    peak = v.max(axis=1, keepdims=True)
    renormed = np.divide(v, peak, out=np.zeros_like(v), where=peak > 0.0)
    strength = renormed.sum(axis=1)
    order = np.argsort(-strength, kind="stable")
    for row, stock in enumerate(order[: min(bank.n_items, n_stocks)]):
        updated = bank.items[row] + strength[stock] * q[stock]
        norm = np.linalg.norm(updated)
        if norm > EPS:
            bank.items[row] = updated / norm
    return bank
