"""Output checks of the benchmark, computed apart from the program.

Every expected value here comes from the generator's planted truth, from a
formula written out in this file (Pearson, average-rank Spearman, top-N
counting, the factor oracle, a numpy GRU), or from a property the method
must have.  None is a copy of an earlier output of the program.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

LOOKBACK_DAYS, FIELDS_PER_DAY, ENCODER_LAYERS = 60, 6, 2
PRECISION_LEVELS = (3, 5, 10, 30)
STAGES_PER_STOCK = 4   # h1, q1, q2, hhat3
METRIC_TOL = 1e-12
ENCODER_TOL = 1e-9
UNIT_NORM_TOL = 1e-9


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.notes: list[str] = []   # measured figures behind threshold checks
        self.passed = 0

    def expect(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failures.append(message)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# data: CSV round trip and labels

def check_round_trip(chk: Checker, generated, truth, loaded, loaded_graph) -> None:
    """The loaded panel equals the generated one bit for bit, with the planted graph."""
    chk.expect([s.date for s in loaded.slices] == [s.date for s in generated.slices],
               "round trip: loaded dates differ from generated dates")
    for gen, got in zip(generated.slices, loaded.slices):
        chk.expect(got.stock_ids == gen.stock_ids, f"round trip {got.date}: stock ids differ")
        for field in ("features", "market_caps", "prices"):
            chk.expect(same_bits(getattr(got, field), getattr(gen, field)),
                       f"round trip {got.date}: {field} not bitwise equal")
        mask = loaded_graph.mask_for(got.date, got.stock_ids)
        chk.expect(same_bits(mask, truth.membership),
                   f"round trip {got.date}: concept mask differs from the planted membership")


def check_labels(chk: Checker, panel, truth) -> None:
    """Raw labels are the planted next-day returns; normalised ones are z-scores."""
    day = {d: i for i, d in enumerate(truth.dates)}
    last = panel.slices[-1]
    chk.expect(last.raw_labels is None and last.labels is None,
               f"labels: trailing date {last.date} carries a label")
    for s in panel.slices[:-1]:
        planted = truth.returns[day[s.date] + 1]
        chk.expect(float(np.max(np.abs(s.raw_labels - planted))) <= METRIC_TOL,
                   f"labels {s.date}: raw label differs from planted return")
        mean = float(s.labels.mean())
        std = math.sqrt(float(((s.labels - mean) ** 2).mean()))
        chk.expect(abs(mean) <= METRIC_TOL and abs(std - 1.0) <= METRIC_TOL,
                   f"labels {s.date}: normalised labels have mean {mean!r}, std {std!r}")


# ---------------------------------------------------------------------------
# metrics: Pearson, average-rank Spearman, top-N counting, factor oracle

def pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    """Population Pearson from the raw definition; None on zero variance."""
    n = len(a)
    if n < 2:
        return None
    ma, mb = sum(a) / n, sum(b) / n
    va = sum((x - ma) ** 2 for x in a) / n
    vb = sum((y - mb) ** 2 for y in b) / n
    if va < 1e-12 or vb < 1e-12:
        return None
    return sum((x - ma) * (y - mb) for x, y in zip(a, b)) / n / math.sqrt(va * vb)


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks by counting: smaller values, plus half of the other ties."""
    x = np.asarray(x, dtype=np.float64)
    below = (x[None, :] < x[:, None]).sum(axis=1)
    ties = (x[None, :] == x[:, None]).sum(axis=1)
    return below + (ties + 1) / 2.0


def spearman(a: np.ndarray, b: np.ndarray) -> float | None:
    return pearson(average_ranks(a), average_ranks(b)) if len(a) >= 2 else None


def top_n_precision(pred: np.ndarray, raw: np.ndarray, n: int) -> float:
    """Percent of the n highest predictions with a positive raw change rate.

    Ties go to the lower stock index.
    """
    ranked = sorted(range(len(pred)), key=lambda i: (-pred[i], i))[:min(n, len(pred))]
    return 100.0 * sum(1 for i in ranked if raw[i] > 0.0) / len(ranked)


def _close(got: float | None, want: float | None) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= METRIC_TOL


def check_report(chk: Checker, label: str, report, slices, predictions) -> None:
    """Recompute every daily and averaged figure of one ``evaluate`` report."""
    chk.expect([d.date for d in report.daily] == [s.date for s in slices],
               f"{label}: report dates differ from the split")
    ics, rank_ics, precision = [], [], {n: [] for n in PRECISION_LEVELS}
    for day, s, pred in zip(report.daily, slices, predictions):
        want_ic = pearson(pred, s.labels)
        want_rank = spearman(pred, s.labels)
        chk.expect(_close(day.ic, want_ic) and _close(day.rank_ic, want_rank),
                   f"{label} {s.date}: IC/Rank IC {day.ic}/{day.rank_ic} "
                   f"!= {want_ic}/{want_rank}")
        for n in PRECISION_LEVELS:
            want = top_n_precision(pred, s.raw_labels, n)
            precision[n].append(want)
            chk.expect(_close(day.precision[n], want),
                       f"{label} {s.date}: P@{n} {day.precision[n]} != {want}")
        if want_ic is not None:
            ics.append(want_ic)
        if want_rank is not None:
            rank_ics.append(want_rank)
    mean = lambda v: sum(v) / len(v) if v else None
    chk.expect(_close(report.ic_mean, mean(ics)) and _close(report.rank_ic_mean, mean(rank_ics)),
               f"{label}: mean IC/Rank IC {report.ic_mean}/{report.rank_ic_mean} "
               f"!= {mean(ics)}/{mean(rank_ics)}")
    for n in PRECISION_LEVELS:
        chk.expect(_close(report.precision_mean[n], mean(precision[n])),
                   f"{label}: mean P@{n} {report.precision_mean[n]} != {mean(precision[n])}")


def oracle_ic(slices, truth, persistence: float) -> float:
    """Mean IC of the factor oracle, as in ``scripts/oracle_bound.py``.

    The oracle predicts each stock's next return as the persistence times
    the mean of its concepts' current true factor values.
    """
    exposure = truth.membership / truth.membership.sum(axis=1, keepdims=True)
    day = {d: i for i, d in enumerate(truth.dates)}
    values = [pearson(persistence * (truth.factors[day[s.date]] @ exposure.T), s.labels)
              for s in slices]
    values = [v for v in values if v is not None]
    return float(sum(values) / len(values))


# ---------------------------------------------------------------------------
# checkpoint and memory banks

def check_checkpoint(chk: Checker, label: str, saved, loaded, bank_names) -> None:
    """A save/load round trip is bitwise exact; bank rows are finite unit vectors."""
    chk.expect(sorted(saved.tensors) == sorted(loaded.tensors),
               f"{label}: tensor names changed in the round trip")
    for name, arr in saved.tensors.items():
        chk.expect(same_bits(np.asarray(arr, dtype=np.float64), loaded.tensors.get(name)),
                   f"{label}: tensor {name} not bitwise equal after the round trip")
    chk.expect(saved.config == loaded.config and saved.metrics == loaded.metrics,
               f"{label}: metadata changed in the round trip")
    for name in bank_names:
        rows = loaded.tensors[name]
        norms = np.sqrt((rows * rows).sum(axis=1))
        chk.expect(bool(np.all(np.isfinite(rows)))
                   and float(np.max(np.abs(norms - 1.0))) <= UNIT_NORM_TOL,
                   f"{label}: {name} has a non-finite or non-unit row")


# ---------------------------------------------------------------------------
# encoder and export

def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def reference_encoder(features: np.ndarray, tensors: dict) -> np.ndarray:
    """Numpy GRU from the gate equations, oldest lookback day first:

        z = sigmoid(W_z x + b_zx + U_z h + b_zh)
        r = sigmoid(W_r x + b_rx + U_r h + b_rh)
        c = tanh(W_c x + b_cx + r * (U_c h + b_ch))
        h' = (1 - z) * c + z * h

    Layer l's input at day t is layer l-1's state at day t; the result is
    the top layer's state after the last day.
    """
    n = features.shape[0]
    seq = features.reshape(n, LOOKBACK_DAYS, FIELDS_PER_DAY)
    layers = [{k.rsplit(".", 1)[1]: v for k, v in tensors.items()
               if k.startswith(f"encoder.l{layer}.")} for layer in range(ENCODER_LAYERS)]
    states = [np.zeros((n, p["update_h"].shape[0])) for p in layers]
    for t in range(LOOKBACK_DAYS):
        x = seq[:, t, :]
        for layer, p in enumerate(layers):
            h = states[layer]
            z = _sigmoid(x @ p["update_x"].T + p["update_bx"] + h @ p["update_h"].T + p["update_bh"])
            r = _sigmoid(x @ p["reset_x"].T + p["reset_bx"] + h @ p["reset_h"].T + p["reset_bh"])
            c = np.tanh(x @ p["cand_x"].T + p["cand_bx"] + r * (h @ p["cand_h"].T + p["cand_bh"]))
            x = states[layer] = (1.0 - z) * c + z * h
    return states[-1]


@dataclass
class ExportFile:
    header: list[str]
    rows: int
    finite: bool
    well_formed: bool                       # every value cell is a plain float literal
    h1: dict[tuple[str, str], np.ndarray]


NUMPY_SCALAR = "np.float64("


def _values(cells: list[str]) -> tuple[np.ndarray, bool]:
    """A row's value cells and whether all are plain float literals.

    ``repr`` of a numpy scalar reads ``np.float64(<literal>)`` under numpy 2;
    such a cell is malformed, but its literal is still read so the values
    can be checked.
    """
    try:
        return np.array(cells, dtype=np.float64), True
    except ValueError:
        inner = [c[len(NUMPY_SCALAR):-1] if c.startswith(NUMPY_SCALAR) and c.endswith(")") else c
                 for c in cells]
        return np.array(inner, dtype=np.float64), False


def read_export(path: str) -> ExportFile:
    h1: dict[tuple[str, str], np.ndarray] = {}
    rows, finite, well_formed = 0, True, True
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = len(header) - 3
        for row in reader:
            rows += 1
            values, plain = _values(row[3:])
            well_formed = well_formed and plain
            finite = finite and len(values) == width and bool(np.all(np.isfinite(values)))
            if row[2] == "h1":
                h1[(row[0], row[1])] = values
    return ExportFile(header, rows, finite, well_formed, h1)


def check_export(chk: Checker, label: str, export: ExportFile, returned_rows: int, slices,
                 tensors: dict) -> None:
    """Row count, finiteness, and the ``h1`` rows against the numpy GRU."""
    width = tensors["encoder.l1.update_h"].shape[0]
    chk.expect(export.header == ["date", "stock_id", "stage"] + [f"e{i:03d}" for i in range(width)],
               f"{label}: unexpected export header")
    expected = len(slices) * slices[0].n_stocks * STAGES_PER_STOCK
    chk.expect(export.rows == expected == returned_rows,
               f"{label}: {export.rows} rows in file, {returned_rows} returned, {expected} expected")
    chk.expect(export.finite, f"{label}: export has a non-finite value or a short row")
    features = np.concatenate([s.features for s in slices])
    want = reference_encoder(features, tensors)
    got = np.stack([export.h1.get((s.date, sid), np.full(width, np.nan))
                    for s in slices for sid in s.stock_ids])
    err = float(np.max(np.abs(got - want)))
    chk.expect(err <= ENCODER_TOL, f"{label}: h1 rows differ from the numpy GRU by {err!r}")
