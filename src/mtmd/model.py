"""Full forward pass: encoder, three concept stages, memory, regressor.

The stages are chained residually: each consumes what the previous stage
left unexplained.  With a stage's memory enabled the residual removes the
memory-refined feature; disabled, it removes the locally aggregated
feature, which reproduces the memory-free baseline flow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import concepts as cc
from .autodiff import Tensor
from .config import Config, ranged
from .data import DateSlice
from .encoder import EncoderBuffers, EncoderParams, encode_panel, init_encoder
from .errors import ContractError, DataError, NumericError, ShapeError
from .memory import MemoryBank, RetrievalState, global_aggregate, init_bank, memorize

ABLATION_CODES = {
    "B": (False, False),
    "P": (True, False),
    "H": (False, True),
    "A": (True, True),
}


@dataclass
class ModelConfig(Config):
    embed_width: int = ranged(64, ">= 1")
    memory_items: int = ranged(16, ">= 1")
    memory_predefined: bool = True
    memory_hidden: bool = True
    seed: int = ranged(0, ">= 0")

    def with_ablation(self, code: str) -> "ModelConfig":
        try:
            pre, hid = ABLATION_CODES[code]
        except KeyError:
            raise ContractError(f"unknown ablation code {code!r}; expected one of B/P/H/A") from None
        return replace(self, memory_predefined=pre, memory_hidden=hid)


@dataclass
class ModelParams:
    """Every learnable tensor, with stable names for checkpoints and grads."""

    encoder: EncoderParams
    predefined_correct: cc.LinearMap
    hidden_correct: cc.LinearMap
    predefined_local: cc.LinearMap
    hidden_local: cc.LinearMap
    individual: cc.LinearMap
    forecast: cc.LinearMap      # shared across the three stages
    output: cc.LinearMap        # [1, width] readout

    def named(self) -> dict[str, Tensor]:
        tensors = self.encoder.tensors()
        for fc in (self.predefined_correct, self.hidden_correct, self.predefined_local,
                   self.hidden_local, self.individual, self.forecast, self.output):
            tensors.extend(fc.tensors())
        return ad.parameters(tensors)


def init_parameters(config: ModelConfig) -> ModelParams:
    rng = np.random.default_rng(config.seed)
    width = config.embed_width
    return ModelParams(
        encoder=init_encoder(rng, width),
        predefined_correct=cc.init_linear(rng, width, width, "predefined.correct"),
        hidden_correct=cc.init_linear(rng, width, width, "hidden.correct"),
        predefined_local=cc.init_linear(rng, width, width, "predefined.local"),
        hidden_local=cc.init_linear(rng, width, width, "hidden.local"),
        individual=cc.init_linear(rng, width, width, "individual"),
        forecast=cc.init_linear(rng, width, width, "regressor.forecast"),
        output=cc.init_linear(rng, 1, width, "regressor.out"),
    )


def init_banks(config: ModelConfig) -> dict[str, MemoryBank]:
    return {
        "predefined": init_bank(config.memory_items, config.embed_width,
                                seed=config.seed + 1, stage="predefined"),
        "hidden": init_bank(config.memory_items, config.embed_width,
                            seed=config.seed + 2, stage="hidden"),
    }


@dataclass
class StageTrace:
    inputs: Tensor                         # residual feeding this stage
    local: Tensor                          # locally aggregated stock-concept feature
    refined: Tensor                        # memory-refined feature (== local when off)
    retrieval: RetrievalState | None = None


def _concept_stage(inputs: Tensor, concepts: Tensor, links: np.ndarray, fc: cc.LinearMap,
                   bank: MemoryBank | None) -> StageTrace:
    """Aggregate each stock's linked concepts locally, then, given a bank,
    refine the result by reading the bank globally."""
    local, _ = cc.local_aggregate(inputs, concepts, links, fc)
    if bank is None:
        return StageTrace(inputs=inputs, local=local, refined=local)
    retrieval = global_aggregate(local, Tensor(bank.items))
    return StageTrace(inputs=inputs, local=local, refined=retrieval.refined, retrieval=retrieval)


@dataclass
class ForwardTrace:
    predefined: StageTrace
    hidden: StageTrace
    individual: StageTrace
    predictions: Tensor


def forward(date_slice: DateSlice, concept_mask: np.ndarray, params: ModelParams,
            banks: dict[str, MemoryBank], config: ModelConfig,
            mode: str = "train", encoded: np.ndarray | None = None,
            buffers: EncoderBuffers | None = None) -> ForwardTrace:
    """One date's full pass; in train mode the enabled banks are written
    after predictions are formed (writes stay off the tape), in eval mode
    they are only read.

    ``encoded`` is the date's [n_stocks, width] encoder output, computed
    beforehand off the tape (:func:`mtmd.encoder.encode_rows`); the pass
    then sends no gradient to the encoder.  Without it the encoder runs on
    the tape, saving its arrays in ``buffers`` if given (see
    :func:`mtmd.encoder.encode_panel`).
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    mask = np.asarray(concept_mask, dtype=bool)
    n_stocks = date_slice.n_stocks
    if mask.shape[0] != n_stocks:
        raise ShapeError(f"concept mask rows {mask.shape[0]} != stocks {n_stocks}")
    if mask.shape[1] == 0:
        raise ContractError("forward requires at least one concept")
    if not mask.any():
        raise DataError(f"date {date_slice.date} has no stock-concept links")

    if encoded is None:
        encoded = encode_panel(date_slice.features, params.encoder, buffers)
    else:
        if encoded.shape != (n_stocks, config.embed_width):
            raise ShapeError(f"precomputed encoding shape {encoded.shape} != "
                             f"({n_stocks}, {config.embed_width})")
        if not np.all(np.isfinite(encoded)):
            raise NumericError(f"non-finite encoder output on date {date_slice.date}")
        encoded = Tensor(encoded)

    # predefined stage
    concept_seed, empty = cc.init_predefined(encoded, mask, date_slice.market_caps)
    concepts_pre = cc.correct_predefined(encoded, concept_seed, params.predefined_correct)
    predefined = _concept_stage(encoded, concepts_pre, cc.predefined_link_sets(mask, empty),
                                params.predefined_local,
                                banks["predefined"] if config.memory_predefined else None)
    hidden_in = ad.subtract(encoded, predefined.refined)

    # hidden stage
    scores, links, membership = cc.assign_hidden(hidden_in, concepts_pre, mask)
    concepts_hid = cc.hidden_embeddings(hidden_in, scores, membership, params.hidden_correct)
    hidden = _concept_stage(hidden_in, concepts_hid, links, params.hidden_local,
                            banks["hidden"] if config.memory_hidden else None)
    individual_in = ad.subtract(hidden_in, hidden.refined)

    # individual stage
    local_ind = cc.individual_features(individual_in, params.individual)

    forecasts = [ad.leaky_relu(cc.affine(feat, params.forecast))
                 for feat in (predefined.local, hidden.local, local_ind)]
    combined = ad.add(ad.add(forecasts[0], forecasts[1]), forecasts[2])
    predictions = ad.reshape(cc.affine(combined, params.output), (n_stocks,))

    if mode == "train":
        for stage, name in ((predefined, "predefined"), (hidden, "hidden")):
            if stage.retrieval is not None:
                memorize(stage.local, stage.retrieval.match_probs, banks[name])

    return ForwardTrace(
        predefined=predefined, hidden=hidden,
        individual=StageTrace(inputs=individual_in, local=local_ind, refined=local_ind),
        predictions=predictions,
    )


def predict(date_slice: DateSlice, concept_mask: np.ndarray, params: ModelParams,
            banks: dict[str, MemoryBank], config: ModelConfig) -> np.ndarray:
    """Frozen-bank predictions for one date."""
    return forward(date_slice, concept_mask, params, banks, config, mode="eval").predictions.data


def mse_loss(predictions: Tensor, labels: np.ndarray) -> Tensor:
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.data.shape != labels.shape:
        raise ShapeError(
            f"prediction shape {predictions.data.shape} != label shape {labels.shape}"
        )
    diff = ad.subtract(predictions, Tensor(labels))
    return ad.mean_all(ad.multiply(diff, diff))
