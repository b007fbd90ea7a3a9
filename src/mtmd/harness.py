"""Training loop, evaluation, ablation runner, and embedding export.

One gradient step per date (the cross-section is the batch), dates strictly
chronological so memory writes happen in order, banks persisting across
epochs.  Early stopping tracks validation IC; the best-epoch parameter and
bank snapshot becomes the checkpoint.  Everything is deterministic per
seed: two runs with the same config produce byte-identical checkpoints.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import metrics as mx
from .checkpoint import Checkpoint
from .config import Config, ranged
from .data import ConceptGraph, DateSlice, FeaturePanel, is_iso_date, load_panel, quote_cell
from .encoder import EncoderBuffers, encode_rows
from .errors import DataError, NumericError, UsageError
from .memory import MemoryBank
# ``predict`` is no longer called here; it stays importable as ``harness.predict``
# because benchmark/spans.py wraps it there
from .model import (ModelConfig, ModelParams, forward, init_banks, init_parameters,  # noqa: F401
                    mse_loss, predict)

SPLITS = ("train", "valid", "test")
EXPORT_STAGES = ("h1", "q1", "q2", "hhat3")
# Rows per off-tape encoder call in evaluation.  Measured cost per row is
# flat from 256 rows up at width 16; at width 128 it is lowest at 128-256
# rows, and whole-split blocks of ~1700 rows cost more as the step arrays
# outgrow the cache.
ENCODE_BLOCK_ROWS = 256


@dataclass
class TrainConfig(Config):
    model: ModelConfig = field(default_factory=ModelConfig)
    panel_path: str | None = None
    concept_path: str | None = None
    learning_rate: float = ranged(2e-4, "finite, > 0")
    epochs: int = ranged(30, ">= 1")
    patience: int = ranged(10, ">= 0")
    seed: int = ranged(0, ">= 0")
    train_end: str = ""
    valid_end: str = ""

    def __post_init__(self):
        super().__post_init__()
        for key in ("train_end", "valid_end"):
            value = getattr(self, key)
            if value and not is_iso_date(value):
                raise UsageError(f"TrainConfig key {key!r} must be a YYYY-MM-DD date, got {value!r}")
        if self.train_end and self.valid_end and not self.train_end < self.valid_end:
            raise UsageError("split boundaries must satisfy train_end < valid_end")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_ic: float | None
    improved: bool


@dataclass
class TrainLog:
    date_order: list[str]
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_valid_ic: float = -math.inf
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def split_slices(panel: FeaturePanel, train_end: str, valid_end: str
                 ) -> tuple[list[DateSlice], list[DateSlice], list[DateSlice]]:
    """Chronological train/valid/test partition of the labeled dates."""
    train = [s for s in panel.usable_slices if s.date <= train_end]
    valid = [s for s in panel.usable_slices if train_end < s.date <= valid_end]
    test = [s for s in panel.usable_slices if valid_end < s.date]
    return train, valid, test


def fraction_boundaries(panel: FeaturePanel, train_frac: float = 0.6,
                        valid_frac: float = 0.2) -> tuple[str, str]:
    """Pick split dates covering the requested fractions of usable dates."""
    dates = panel.usable_dates
    if len(dates) < 3:
        raise DataError("panel too small to split three ways")
    i_train = max(1, int(len(dates) * train_frac)) - 1
    i_valid = max(i_train + 1, int(len(dates) * (train_frac + valid_frac)) - 1)
    i_valid = min(i_valid, len(dates) - 2)
    return dates[i_train], dates[i_valid]


def eval_traces(slices: list[DateSlice], graph: ConceptGraph, params: ModelParams,
                banks: dict[str, MemoryBank], config: ModelConfig):
    """Yield ``(slice, trace)`` of an eval-mode forward pass per date, in order.

    The encoder runs off the tape over the rows of all dates together, in
    blocks of ``ENCODE_BLOCK_ROWS``; each date's remaining stages then run
    on its slice of the result.  Banks are only read, and the encoder
    reads none, so every date's trace is that of a per-date loop.
    """
    offsets = np.cumsum([0] + [s.n_stocks for s in slices])
    # each block gathers its rows from the slices it overlaps, so the
    # split's features are never copied whole
    blocks = []
    for lo in range(0, offsets[-1], ENCODE_BLOCK_ROWS):
        hi = lo + ENCODE_BLOCK_ROWS
        rows = [s.features[max(lo - at, 0):hi - at]
                for s, at in zip(slices, offsets) if lo < at + s.n_stocks and at < hi]
        blocks.append(encode_rows(np.concatenate(rows), params.encoder))
    encoded = np.concatenate(blocks)
    for s, at in zip(slices, offsets):
        mask = graph.mask_for(s.date, s.stock_ids)
        yield s, forward(s, mask, params, banks, config, mode="eval",
                         encoded=encoded[at:at + s.n_stocks])


def _mean_valid_ic(slices: list[DateSlice], graph: ConceptGraph, params: ModelParams,
                   banks: dict[str, MemoryBank], config: ModelConfig) -> float | None:
    return mx.stats([mx.ic(trace.predictions.data, s.labels)
                     for s, trace in eval_traces(slices, graph, params, banks, config)])[0]


def _snapshot_tensors(params: ModelParams, banks: dict[str, MemoryBank]) -> dict[str, np.ndarray]:
    tensors = {name: t.data.copy() for name, t in params.named().items()}
    tensors["memory.predefined"] = banks["predefined"].items.copy()
    tensors["memory.hidden"] = banks["hidden"].items.copy()
    return tensors


def _checkpoint_config(ckpt: Checkpoint, cls, section: str):
    """One config section of a checkpoint; bad contents are a data error."""
    try:
        return cls.from_dict(ckpt.config.get(section, {}))
    except UsageError as exc:
        raise DataError(f"checkpoint {section} config is invalid: {exc}") from None


def _stored_tensor(ckpt: Checkpoint, name: str, shape: tuple[int, ...]) -> np.ndarray:
    stored = ckpt.tensors.get(name)
    if stored is None:
        raise DataError(f"checkpoint is missing tensor {name!r}")
    if stored.shape != shape:
        raise DataError(f"checkpoint tensor {name!r} has shape {stored.shape}, expected {shape}")
    if not np.all(np.isfinite(stored)):
        raise DataError(f"checkpoint tensor {name!r} has non-finite values")
    return stored


def state_from_checkpoint(ckpt: Checkpoint) -> tuple[ModelParams, dict[str, MemoryBank], ModelConfig]:
    """Rebuild parameters and banks from a checkpoint's named tensors."""
    model_cfg = _checkpoint_config(ckpt, ModelConfig, "model")
    params = init_parameters(model_cfg)
    for name, tensor in params.named().items():
        tensor.data[:] = _stored_tensor(ckpt, name, tensor.data.shape)
    bank_shape = (model_cfg.memory_items, model_cfg.embed_width)
    banks = {stage: MemoryBank(items=_stored_tensor(ckpt, f"memory.{stage}", bank_shape).copy(),
                               stage=stage)
             for stage in ("predefined", "hidden")}
    return params, banks, model_cfg


def _resolve_split(ckpt: Checkpoint, split: str, panel: FeaturePanel | None,
                   graph: ConceptGraph | None):
    """A checkpoint's model config, the concept graph, the model state and
    the slices of one of its splits."""
    if split not in SPLITS:
        raise UsageError(f"unknown split {split!r}; expected train, valid, or test")
    train_cfg = _checkpoint_config(ckpt, TrainConfig, "train")
    panel, graph = _load_data(train_cfg, panel, graph)
    params, banks, model_cfg = state_from_checkpoint(ckpt)
    slices = dict(zip(SPLITS, split_slices(panel, train_cfg.train_end, train_cfg.valid_end)))[split]
    if not slices:
        raise DataError(f"{split} split is empty")
    return model_cfg, graph, params, banks, slices


def _load_data(config: TrainConfig, panel: FeaturePanel | None,
               graph: ConceptGraph | None) -> tuple[FeaturePanel, ConceptGraph]:
    if panel is not None and graph is not None:
        return panel, graph
    if not (config.panel_path and config.concept_path):
        raise UsageError("config must provide panel_path and concept_path "
                         "when data is not passed in memory")
    return load_panel(config.panel_path, config.concept_path)


def _train_epoch(slices: list[DateSlice], graph: ConceptGraph, params: ModelParams,
                 banks: dict[str, MemoryBank], config: ModelConfig,
                 learning_rate: float) -> list[float]:
    """One plain SGD step per date, in order; returns the losses.

    Each date's graph is gone before the next date's forward, and every
    forward writes the encoder's saved arrays into one buffer set, so the
    pass holds one step's activations.  The set goes with the pass, before
    validation encodes off the tape.
    """
    named = params.named()
    buffers = EncoderBuffers()
    losses = []
    for s in slices:
        mask = graph.mask_for(s.date, s.stock_ids)
        trace = forward(s, mask, params, banks, config, mode="train", buffers=buffers)
        loss = mse_loss(trace.predictions, s.labels)
        value = loss.item()
        if not math.isfinite(value):
            raise NumericError(f"non-finite training loss on date {s.date}")
        losses.append(value)
        for name, g in ad.backward(loss).items():
            named[name].data -= learning_rate * g
        del trace, loss  # the date's graph, before the next forward
    return losses


def train(config: TrainConfig, panel: FeaturePanel | None = None,
          graph: ConceptGraph | None = None,
          progress=None) -> tuple[Checkpoint, TrainLog]:
    """Train to the best validation IC and return that snapshot plus the log."""
    panel, graph = _load_data(config, panel, graph)
    train_slices, valid_slices, _ = split_slices(panel, config.train_end, config.valid_end)
    if not train_slices:
        raise DataError("training split is empty; check train_end")
    if not valid_slices:
        raise DataError("validation split is empty; check valid_end")

    model_cfg = replace(config.model, seed=config.seed)
    params = init_parameters(model_cfg)
    banks = init_banks(model_cfg)

    log = TrainLog(date_order=[s.date for s in train_slices])
    best: dict[str, np.ndarray] | None = None
    best_metrics: dict = {}
    stale = 0
    started = time.monotonic()

    for epoch in range(config.epochs):
        losses = _train_epoch(train_slices, graph, params, banks, model_cfg, config.learning_rate)
        valid_ic = _mean_valid_ic(valid_slices, graph, params, banks, model_cfg)
        improved = valid_ic is not None and valid_ic > log.best_valid_ic
        if improved:
            log.best_valid_ic = valid_ic
            log.best_epoch = epoch
            best = _snapshot_tensors(params, banks)
            best_metrics = {"valid_ic": valid_ic, "epoch": epoch}
            stale = 0
        else:
            stale += 1
        record = EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                             valid_ic=valid_ic, improved=improved)
        log.epochs.append(record)
        if progress is not None:
            progress(record)
        if stale > config.patience:
            break

    if best is None:  # no epoch produced a valid IC; keep the final state
        best = _snapshot_tensors(params, banks)
        best_metrics = {"valid_ic": None, "epoch": len(log.epochs) - 1}
    log.wall_seconds = time.monotonic() - started
    ckpt = Checkpoint(tensors=best, config={"model": model_cfg.to_dict(),
                                            "train": config.to_dict()},
                      metrics=best_metrics)
    return ckpt, log


def evaluate(ckpt: Checkpoint, split: str, panel: FeaturePanel | None = None,
             graph: ConceptGraph | None = None) -> mx.MetricReport:
    """Frozen-bank metrics over the requested split of labeled dates."""
    model_cfg, graph, params, banks, slices = _resolve_split(ckpt, split, panel, graph)
    return mx.aggregate([mx.score_date(s.date, trace.predictions.data, s.labels, s.raw_labels)
                         for s, trace in eval_traces(slices, graph, params, banks, model_cfg)])


@dataclass
class AblationRow:
    code: str
    ic_mean: float | None
    ic_std: float | None
    rank_ic_mean: float | None
    rank_ic_std: float | None
    precision_mean: dict[int, float]


@dataclass
class AblationResult:
    rows: list[AblationRow]
    seeds: list[int]

    # published full-scale reference for context; not asserted at this scale
    REFERENCE_NOTE = ("reference (full-scale CSI 100 benchmark): memory-enabled IC 0.128 "
                      "vs memory-free baseline 0.120, a +0.008 gap")

    def table(self) -> str:
        fmt = mx.format_value
        lines = ["memory | IC (std) | Rank IC (std) | P@3 | P@5 | P@10 | P@30"]
        lines.append("-" * len(lines[0]))
        for row in self.rows:
            p = row.precision_mean
            lines.append(
                f"{row.code:>6s} | {fmt(row.ic_mean)} ({fmt(row.ic_std)}) | "
                f"{fmt(row.rank_ic_mean)} ({fmt(row.rank_ic_std)}) | "
                f"{p[3]:5.2f} | {p[5]:5.2f} | {p[10]:5.2f} | {p[30]:5.2f}"
            )
        lines.append(self.REFERENCE_NOTE)
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("memory,ic_mean,ic_std,rank_ic_mean,rank_ic_std,p3,p5,p10,p30\n")
            for row in self.rows:
                p = row.precision_mean
                cells = [row.ic_mean, row.ic_std, row.rank_ic_mean, row.rank_ic_std,
                         p[3], p[5], p[10], p[30]]
                fh.write(",".join([row.code] + ["" if v is None else repr(v) for v in cells])
                         + "\n")


def run_ablation(config: TrainConfig, seeds: list[int] | None = None,
                 panel: FeaturePanel | None = None, graph: ConceptGraph | None = None,
                 progress=None) -> AblationResult:
    """Train the four memory switch settings with shared seeds; report test metrics."""
    panel, graph = _load_data(config, panel, graph)
    seeds = list(seeds) if seeds else [config.seed]
    rows = []
    for code in ("B", "P", "H", "A"):
        reports = []
        for seed in seeds:
            run_cfg = replace(config, seed=seed, model=config.model.with_ablation(code))
            ckpt, _ = train(run_cfg, panel=panel, graph=graph)
            reports.append(evaluate(ckpt, "test", panel=panel, graph=graph))
            if progress is not None:
                progress(code, seed, reports[-1])
        ic_mean, ic_std = mx.stats([r.ic_mean for r in reports])
        rank_ic_mean, rank_ic_std = mx.stats([r.rank_ic_mean for r in reports])
        rows.append(AblationRow(
            code=code, ic_mean=ic_mean, ic_std=ic_std,
            rank_ic_mean=rank_ic_mean, rank_ic_std=rank_ic_std,
            precision_mean={n: mx.stats([r.precision_mean[n] for r in reports])[0]
                            for n in mx.PRECISION_LEVELS},
        ))
    return AblationResult(rows=rows, seeds=seeds)


def export_embeddings(ckpt: Checkpoint, split: str, out_path: str,
                      panel: FeaturePanel | None = None,
                      graph: ConceptGraph | None = None) -> int:
    """Write per-stock stage features as CSV for offline projection/plotting.

    Stage codes: h1 = encoder output, q1/q2 = memory-refined predefined and
    hidden features, hhat3 = individual features.  Returns the row count.
    """
    model_cfg, graph, params, banks, slices = _resolve_split(ckpt, split, panel, graph)
    width = model_cfg.embed_width
    rows = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("date,stock_id,stage," + ",".join(f"e{i:03d}" for i in range(width)) + "\n")
        for s, trace in eval_traces(slices, graph, params, banks, model_cfg):
            stage_data = {
                "h1": trace.predefined.inputs.data,
                "q1": trace.predefined.refined.data,
                "q2": trace.hidden.refined.data,
                "hhat3": trace.individual.local.data,
            }
            keys = [f"{quote_cell(s.date)},{quote_cell(stock_id)}," for stock_id in s.stock_ids]
            for stage in EXPORT_STAGES:
                # repr of a Python float is the shortest literal that reads back exactly
                for key, values in zip(keys, stage_data[stage].tolist()):
                    fh.write(f"{key}{stage}," + ",".join(map(repr, values)) + "\n")
                    rows += 1
    return rows
