"""Panel ingestion, label construction, and the synthetic market generator.

File formats
------------
Panel CSV      header ``date,stock_id,market_cap,price,f000..f359``; UTF-8;
               ``YYYY-MM-DD`` dates; one row per (date, stock).  Labels are not
               stored: the loader derives each date's change rate from the
               next date's price, so the final date in a file carries no
               label and is kept only as the label source for its
               predecessor.
Concept CSV    header ``concept_id,stock_id[,date]``; ``YYYY-MM-DD`` dates;
               without the date column the graph is static across dates.
Truth sidecar  ``membership.csv`` (``concept_id,stock_id``) and
               ``factors.csv`` (``date,concept_id,value``) written next to
               generated panels for verification experiments.

Feature layout: 60 lookback days x 6 fields per day, oldest day first,
field order (open, high, low, close, vwap, volume).  The synthetic
generator stores price fields as window-relative ratios minus one
(divided by the window's final close) and volume relative to its window
mean, so magnitudes are O(1).
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from .config import Config, ranged
from .encoder import FEATURE_WIDTH, FIELDS_PER_DAY, LOOKBACK_DAYS
from .errors import DataError, ParseError

EPS = 1e-12

# stationary scale of concept factor paths is innovation_std / sqrt(1 - rho^2)
FACTOR_INNOVATION_STD = 0.015

PANEL_BASE_COLUMNS = ("date", "stock_id", "market_cap", "price")
FEATURE_COLUMNS = tuple(f"f{i:03d}" for i in range(FEATURE_WIDTH))


def is_iso_date(text: str) -> bool:
    """True for a date spelt ``YYYY-MM-DD``, the one spelling that orders as
    text (``date.fromisoformat`` also reads ``20180303`` and ``2018-W09-6``)."""
    try:
        return datetime.date.fromisoformat(text).isoformat() == text
    except ValueError:
        return False


def normalize_labels_per_date(raw: np.ndarray) -> np.ndarray:
    """Z-score a cross-section (population std); degenerate dates map to zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size <= 1:
        return np.zeros_like(raw)
    std = raw.std()
    if std < EPS:
        return np.zeros_like(raw)
    return (raw - raw.mean()) / std


@dataclass
class DateSlice:
    """One date's cross-section. ``labels`` is None on the trailing date."""

    date: str
    stock_ids: list[str]
    features: np.ndarray      # [n_stocks, 360]
    market_caps: np.ndarray   # [n_stocks]
    prices: np.ndarray        # [n_stocks]
    raw_labels: np.ndarray | None = None
    labels: np.ndarray | None = None

    @property
    def n_stocks(self) -> int:
        return len(self.stock_ids)


class FeaturePanel:
    """Date-ordered cross-sections with identical stock universes."""

    def __init__(self, slices: list[DateSlice]):
        slices = sorted(slices, key=lambda s: s.date)
        for s in slices:
            if np.any(s.market_caps <= 0.0):
                raise DataError(f"{s.date}: market caps must be positive")
            with np.errstate(over="ignore"):  # the concept seeds divide by sums of caps
                if not np.isfinite(s.market_caps.sum()):
                    raise DataError(f"{s.date}: market caps must sum to a finite value")
            if not np.all(np.isfinite(s.features)):
                raise DataError(f"{s.date}: non-finite feature values")
        self.slices = slices

    @property
    def dates(self) -> list[str]:
        return [s.date for s in self.slices]

    @property
    def usable_slices(self) -> list[DateSlice]:
        return [s for s in self.slices if s.labels is not None]

    @property
    def usable_dates(self) -> list[str]:
        return [s.date for s in self.usable_slices]


class ConceptGraph:
    """Bipartite stock-concept links, static or per-date."""

    def __init__(self, concept_ids: list[str],
                 static_links: set[tuple[str, str]] | None = None,
                 dated_links: dict[str, set[tuple[str, str]]] | None = None):
        self.concept_ids = sorted(concept_ids)
        self._index = {c: i for i, c in enumerate(self.concept_ids)}
        self.static_links = static_links or set()
        self.dated_links = dated_links or {}

    @property
    def n_concepts(self) -> int:
        return len(self.concept_ids)

    def links_for(self, date: str) -> set[tuple[str, str]]:
        return self.static_links | self.dated_links.get(date, set())

    def mask_for(self, date: str, stock_ids: list[str]) -> np.ndarray:
        """Boolean membership matrix [n_stocks, n_concepts] for one date."""
        stock_index = {s: i for i, s in enumerate(stock_ids)}
        mask = np.zeros((len(stock_ids), self.n_concepts), dtype=bool)
        for stock_id, concept_id in self.links_for(date):
            row = stock_index.get(stock_id)
            if row is not None:
                mask[row, self._index[concept_id]] = True
        return mask


@dataclass
class SyntheticSpec(Config):
    n_stocks: int = ranged(20, ">= 1")
    n_concepts: int = ranged(4, ">= 1")
    n_dates: int = ranged(300, ">= 1")
    membership_density: float = ranged(0.3, ">= 0, <= 1")
    factor_persistence: float = ranged(0.95, ">= 0, < 1")
    noise_sigma: float = ranged(0.02, "finite, >= 0")
    seed: int = ranged(0, ">= 0")


@dataclass
class SyntheticTruth:
    """Planted structure: who belongs to which concept, and the factor paths."""

    stock_ids: list[str]
    concept_ids: list[str]
    membership: np.ndarray    # [n_stocks, n_concepts] bool
    dates: list[str]          # every simulated day
    factors: np.ndarray       # [n_days, n_concepts]
    returns: np.ndarray = field(repr=False, default=None)  # [n_days, n_stocks]; row 0 unused


def _iso_dates(n_days: int, start: str = "2018-01-01") -> list[str]:
    base = datetime.date.fromisoformat(start)
    return [(base + datetime.timedelta(days=i)).isoformat() for i in range(n_days)]


def generate_synthetic(spec: SyntheticSpec) -> tuple[FeaturePanel, ConceptGraph, SyntheticTruth]:
    """Simulate a planted-factor market, deterministic per seed.

    Concept factors follow an AR(1) path; each stock's daily return is the
    mean of its concepts' factors plus idiosyncratic Gaussian noise.  A
    date enters the panel once it has a full lookback window; the last
    panel date has no label, so ``n_dates`` days yield ``n_dates - 61``
    usable dates.
    """
    if spec.n_dates < LOOKBACK_DAYS + 2:
        raise DataError(
            f"n_dates={spec.n_dates} leaves no usable date after the "
            f"{LOOKBACK_DAYS}-day lookback and 1-day label trim"
        )
    rng = np.random.default_rng(spec.seed)
    n_s, n_c, n_d = spec.n_stocks, spec.n_concepts, spec.n_dates
    stock_ids = [f"S{i:04d}" for i in range(n_s)]
    concept_ids = [f"C{j:02d}" for j in range(n_c)]

    membership = rng.random((n_s, n_c)) < spec.membership_density
    for i in np.flatnonzero(~membership.any(axis=1)):
        membership[i, rng.integers(n_c)] = True  # every stock gets >= 1 concept

    caps = rng.lognormal(mean=0.0, sigma=1.0, size=n_s)

    rho = spec.factor_persistence
    stationary = FACTOR_INNOVATION_STD / np.sqrt(1.0 - rho * rho)
    factors = np.empty((n_d, n_c))
    factors[0] = rng.normal(scale=stationary, size=n_c)
    innovations = rng.normal(scale=FACTOR_INNOVATION_STD, size=(n_d - 1, n_c))
    for t in range(1, n_d):
        factors[t] = rho * factors[t - 1] + innovations[t - 1]

    noise = rng.normal(scale=spec.noise_sigma, size=(n_d, n_s)) if spec.noise_sigma > 0 else np.zeros((n_d, n_s))
    exposure = membership / membership.sum(axis=1, keepdims=True)
    returns = factors @ exposure.T + noise          # [n_days, n_stocks]; row 0 unused
    returns = np.clip(returns, -0.95, None)  # keep prices positive in pathological specs

    prices = np.empty((n_d, n_s))
    prices[0] = 100.0
    for t in range(1, n_d):
        prices[t] = prices[t - 1] * (1.0 + returns[t])

    volumes = rng.lognormal(mean=0.0, sigma=0.5, size=(n_d, n_s))
    dates = _iso_dates(n_d)

    # daily bars; day 0 has no open so the first full bar is day 1
    opens = np.empty_like(prices)
    opens[1:] = prices[:-1]
    opens[0] = prices[0]
    highs = np.maximum(opens, prices) * (1.0 + 0.25 * np.abs(returns))
    lows = np.minimum(opens, prices) * (1.0 - 0.25 * np.abs(returns))
    vwaps = (opens + highs + lows + prices) / 4.0

    slices = []
    for t in range(LOOKBACK_DAYS, n_d):
        window = slice(t - LOOKBACK_DAYS + 1, t + 1)
        feats = np.empty((n_s, FEATURE_WIDTH))
        ref_close = prices[t]
        vol_mean = volumes[window].mean(axis=0)
        day_fields = np.stack([
            opens[window] / ref_close - 1.0,
            highs[window] / ref_close - 1.0,
            lows[window] / ref_close - 1.0,
            prices[window] / ref_close - 1.0,
            vwaps[window] / ref_close - 1.0,
            volumes[window] / vol_mean - 1.0,
        ], axis=2)                                   # [60, n_stocks, 6]
        feats[:] = day_fields.transpose(1, 0, 2).reshape(n_s, FEATURE_WIDTH)
        raw = returns[t + 1].copy() if t + 1 < n_d else None
        slices.append(DateSlice(
            date=dates[t],
            stock_ids=list(stock_ids),
            features=feats,
            market_caps=caps.copy(),
            prices=prices[t].copy(),
            raw_labels=raw,
            labels=normalize_labels_per_date(raw) if raw is not None else None,
        ))

    links = {(stock_ids[i], concept_ids[j]) for i, j in zip(*np.nonzero(membership))}
    graph = ConceptGraph(concept_ids, static_links=links)
    truth = SyntheticTruth(
        stock_ids=list(stock_ids),
        concept_ids=list(concept_ids),
        membership=membership,
        dates=dates,
        factors=factors,
        returns=returns,
    )
    return FeaturePanel(slices), graph, truth


# ---------------------------------------------------------------------------
# CSV writing

def quote_cell(text: str) -> str:
    """``text`` as a cell of a row of two or more that ``csv.writer`` writes
    in its default dialect: quoted if it holds a comma, quote or line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(texts, numbers=()) -> str:
    """A row of two or more cells as ``csv.writer`` writes it: the text cells,
    then each float's ``repr``, its shortest exact literal, never quoted."""
    return ",".join([*map(quote_cell, texts), *map(repr, numbers)]) + "\r\n"


def write_panel_csv(panel: FeaturePanel, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(PANEL_BASE_COLUMNS + FEATURE_COLUMNS))
        for s in panel.slices:
            for stock_id, cap, price, feats in zip(s.stock_ids, s.market_caps.tolist(),
                                                   s.prices.tolist(), s.features.tolist()):
                fh.write(_csv_line((s.date, stock_id), (cap, price, *feats)))


def write_concepts_csv(graph: ConceptGraph, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if graph.dated_links:
            fh.write(_csv_line(("concept_id", "stock_id", "date")))
            for date in sorted(graph.dated_links):
                for stock_id, concept_id in sorted(graph.dated_links[date]):
                    fh.write(_csv_line((concept_id, stock_id, date)))
            for stock_id, concept_id in sorted(graph.static_links):
                fh.write(_csv_line((concept_id, stock_id, "")))
        else:
            fh.write(_csv_line(("concept_id", "stock_id")))
            for stock_id, concept_id in sorted(graph.static_links):
                fh.write(_csv_line((concept_id, stock_id)))


def write_truth_csv(truth: SyntheticTruth, membership_path: str, factors_path: str) -> None:
    with open(membership_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(("concept_id", "stock_id")))
        for i, j in zip(*np.nonzero(truth.membership)):
            fh.write(_csv_line((truth.concept_ids[j], truth.stock_ids[i])))
    with open(factors_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(("date", "concept_id", "value")))
        for date, values in zip(truth.dates, truth.factors.tolist()):
            for concept_id, value in zip(truth.concept_ids, values):
                fh.write(_csv_line((date, concept_id), (value,)))


# ---------------------------------------------------------------------------
# CSV loading

@contextlib.contextmanager
def _csv_reader(path: str):
    """A ``csv.reader`` over a UTF-8 file; a file that cannot be opened,
    decoded or split into rows is a :class:`DataError` naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield csv.reader(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not a well-formed UTF-8 CSV file: {exc}") from None


def _parse_float(path: str, line: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(path, line, f"non-numeric value {text!r} in column {column!r}") from None


def load_panel(panel_path: str, concept_path: str) -> tuple[FeaturePanel, ConceptGraph]:
    """Load and validate a panel + concept file pair.

    The stock universe must be identical on every date.  Labels are
    derived from consecutive prices and z-scored per date; the final date
    is retained without labels.
    """
    expected = list(PANEL_BASE_COLUMNS) + list(FEATURE_COLUMNS)
    by_date: dict[str, dict[str, tuple[int, float, float, np.ndarray]]] = {}
    with _csv_reader(panel_path) as reader:
        header = next(reader, None)
        if header != expected:
            raise ParseError(panel_path, 1,
                             f"bad panel header; expected {expected[:5]}...{expected[-1]!r}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num  # a quoted cell may hold line breaks
            if len(row) != len(expected):
                raise ParseError(panel_path, line,
                                 f"expected {len(expected)} columns, got {len(row)}")
            date, stock_id = row[0], row[1]
            if not is_iso_date(date):
                raise ParseError(panel_path, line, f"date {date!r} is not ISO-8601 YYYY-MM-DD")
            try:
                values = np.array(row[2:], dtype=np.float64)
            except ValueError:
                # the per-cell pass names the first bad cell; if it finds
                # none, numpy refused a spelling float() accepts
                values = np.array([_parse_float(panel_path, line, column, text)
                                   for column, text in zip(expected[2:], row[2:])])
            cap, price = values[:2].tolist()
            feats = values[2:]
            stocks = by_date.setdefault(date, {})
            if stock_id in stocks:
                raise ParseError(panel_path, line, f"duplicate row for ({date}, {stock_id})")
            # chained comparisons: false for nan and for either infinity
            if not 0.0 < cap < math.inf:
                raise ParseError(panel_path, line,
                                 f"market cap must be finite and positive, got {cap}")
            if not 0.0 < price < math.inf:
                raise ParseError(panel_path, line,
                                 f"price must be finite and positive, got {price}")
            stocks[stock_id] = (line, cap, price, feats)

    if not by_date:
        raise ParseError(panel_path, 1, "panel file has no data rows")
    dates = sorted(by_date)
    universe = sorted(by_date[dates[0]])
    for date in dates[1:]:
        if sorted(by_date[date]) != universe:
            raise ParseError(panel_path, min(line for line, *_ in by_date[date].values()),
                             f"stock universe on {date} differs from {dates[0]}")

    # every date's change rates to the next date at once, [dates - 1, stocks];
    # a tiny positive price can make a rate, or the z-scoring of a date's
    # rates, overflow
    prices = np.array([[by_date[date][s][2] for s in universe] for date in dates])
    with np.errstate(over="ignore"):  # an infinite rate is refused below
        rates = np.diff(prices, axis=0) / prices[:-1]
    slices = []
    for idx, date in enumerate(dates):
        rows = by_date[date]
        raw = labels = None
        if idx + 1 < len(dates):
            raw = rates[idx]
            try:
                with np.errstate(over="raise", invalid="raise"):
                    labels = normalize_labels_per_date(raw)
                overflow = not np.all(np.isfinite(raw))
            except FloatingPointError:
                overflow = True
            if overflow:
                raise DataError(f"{panel_path}: change rates from {date} to {dates[idx + 1]} "
                                "overflow")
        slices.append(DateSlice(
            date=date,
            stock_ids=list(universe),
            features=np.stack([rows[s][3] for s in universe]),
            market_caps=np.array([rows[s][1] for s in universe]),
            prices=prices[idx],
            raw_labels=raw,
            labels=labels,
        ))
    panel = FeaturePanel(slices)
    graph = load_concepts(concept_path, set(universe), set(dates))
    return panel, graph


def load_concepts(path: str, known_stocks: set[str], panel_dates: set[str]) -> ConceptGraph:
    """Read a concept file whose links name ``known_stocks``; a dated link
    must fall on one of ``panel_dates``, or it would never be used."""
    static: set[tuple[str, str]] = set()
    dated: dict[str, set[tuple[str, str]]] = {}
    concept_ids: set[str] = set()
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header not in (["concept_id", "stock_id"], ["concept_id", "stock_id", "date"]):
            raise ParseError(path, 1, "bad concept header; expected concept_id,stock_id[,date]")
        has_date = len(header) == 3
        for row in reader:
            if not row:
                continue
            line = reader.line_num  # a quoted cell may hold line breaks
            if len(row) != len(header):
                raise ParseError(path, line, f"expected {len(header)} columns, got {len(row)}")
            concept_id, stock_id = row[0], row[1]
            if stock_id not in known_stocks:
                raise ParseError(path, line, f"unknown stock id {stock_id!r} in concept file")
            date = row[2] if has_date else ""
            if date and not is_iso_date(date):
                raise ParseError(path, line, f"date {date!r} is not ISO-8601 YYYY-MM-DD")
            if date and date not in panel_dates:
                raise ParseError(path, line, f"date {date!r} is not a panel date")
            concept_ids.add(concept_id)
            if date:
                dated.setdefault(date, set()).add((stock_id, concept_id))
            else:
                static.add((stock_id, concept_id))
    if not concept_ids:
        raise ParseError(path, 1, "concept file has no stock-concept links")
    return ConceptGraph(sorted(concept_ids), static_links=static, dated_links=dated)
