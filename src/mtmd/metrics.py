"""Daily cross-sectional evaluation, averaged over dates.

IC is the per-date Pearson correlation between predictions and realized
normalized change rates; Rank IC is the same on average ranks; and
Precision@N is the share of the N top-scored stocks whose *raw* change
rate was positive (z-scoring shifts signs, so positivity is judged on the
pre-normalization label).  Dates with degenerate variance are excluded
from the correlation averages rather than scored zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

PRECISION_LEVELS = (3, 5, 10, 30)
_VAR_EPS = 1e-12


def ic(pred: np.ndarray, truth: np.ndarray) -> float | None:
    """Pearson correlation; None marks a degenerate (skipped) date."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.size < 2:
        return None
    am = a - a.mean()
    bm = b - b.mean()
    va = float((am * am).mean())
    vb = float((bm * bm).mean())
    if va < _VAR_EPS or vb < _VAR_EPS:
        return None
    return float((am * bm).mean() / math.sqrt(va * vb))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_ic(pred: np.ndarray, truth: np.ndarray) -> float | None:
    """Spearman correlation with average ranks for ties."""
    if np.asarray(pred).size < 2:
        return None
    return ic(average_ranks(pred), average_ranks(truth))


def precision_at_n(pred: np.ndarray, positive: np.ndarray, n: int) -> float:
    """Percent of the n highest predictions with a positive raw label.

    Ties go to the lower index; n is clamped to the cross-section size.
    """
    if n < 1:
        raise ContractError(f"precision_at_n requires n >= 1, got {n}")
    pred = np.asarray(pred, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    take = min(n, pred.size)
    top = np.argsort(-pred, kind="stable")[:take]
    return 100.0 * float(positive[top].sum()) / take


def stats(values: list[float | None]) -> tuple[float | None, float | None]:
    """Mean and population std of the values that are not None, or two Nones."""
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    arr = np.array(present, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def format_value(value: float | None, spec: str = ".4f") -> str:
    """``value`` formatted by ``spec``, or ``n/a`` when it is None."""
    return "n/a" if value is None else format(value, spec)


@dataclass
class DailyScore:
    date: str
    ic: float | None
    rank_ic: float | None
    precision: dict[int, float]


@dataclass
class MetricReport:
    ic_mean: float | None
    ic_std: float | None
    rank_ic_mean: float | None
    rank_ic_std: float | None
    precision_mean: dict[int, float]
    precision_std: dict[int, float]
    daily: list[DailyScore] = field(repr=False, default_factory=list)
    skipped_dates: list[str] = field(default_factory=list)

    def summary_table(self) -> str:
        cols = ["IC", "Rank IC"] + [f"P@{n}" for n in PRECISION_LEVELS]
        means = [self.ic_mean, self.rank_ic_mean] + [self.precision_mean[n] for n in PRECISION_LEVELS]
        stds = [self.ic_std, self.rank_ic_std] + [self.precision_std[n] for n in PRECISION_LEVELS]
        head = " | ".join(f"{c:>8s}" for c in cols)
        mean_row = " | ".join("     n/a" if m is None else f"{m:8.4f}" for m in means)
        std_row = " | ".join("        " if s is None else f"({s:6.4f})" for s in stds)
        return "\n".join([head, "-" * len(head), mean_row, std_row])

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("date,ic,rank_ic,p3,p5,p10,p30\n")
            for d in self.daily:
                cells = [d.date,
                         "" if d.ic is None else repr(d.ic),
                         "" if d.rank_ic is None else repr(d.rank_ic)]
                cells += [repr(d.precision[n]) for n in PRECISION_LEVELS]
                fh.write(",".join(cells) + "\n")


def score_date(date: str, pred: np.ndarray, labels: np.ndarray,
               raw_labels: np.ndarray) -> DailyScore:
    return DailyScore(
        date=date,
        ic=ic(pred, labels),
        rank_ic=rank_ic(pred, labels),
        precision={n: precision_at_n(pred, raw_labels > 0.0, n) for n in PRECISION_LEVELS},
    )


def aggregate(daily: list[DailyScore]) -> MetricReport:
    """Arithmetic mean and population std per metric across dates."""
    if not daily:
        raise ContractError("aggregate requires at least one scored date")
    ic_mean, ic_std = stats([d.ic for d in daily])
    rk_mean, rk_std = stats([d.rank_ic for d in daily])
    p_mean, p_std = {}, {}
    for n in PRECISION_LEVELS:
        p_mean[n], p_std[n] = stats([d.precision[n] for d in daily])
    return MetricReport(
        ic_mean=ic_mean, ic_std=ic_std,
        rank_ic_mean=rk_mean, rank_ic_std=rk_std,
        precision_mean=p_mean, precision_std=p_std,
        daily=list(daily),
        skipped_dates=[d.date for d in daily if d.ic is None],
    )
