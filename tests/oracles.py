"""Independent oracles used across the test suite.

Everything here is deliberately brute-force and shares no code with the
package: central finite differences for gradients, a GRU step and its
backpropagation through time written from the textbook equations,
direct-formula Pearson, enumeration-based average ranks, naive top-N
counting, the two-branch sigmoid, and panel and concept CSV readers and a
panel writer that convert one cell at a time.
"""

from __future__ import annotations

import csv
import datetime
import math
import re
from typing import Callable

import numpy as np

FD_STEP = 1e-5


def finite_difference(
    func: Callable[[dict[str, np.ndarray]], float],
    values: dict[str, np.ndarray],
    step: float = FD_STEP,
) -> dict[str, np.ndarray]:
    """Central-difference gradients of ``func`` w.r.t. every array in ``values``.

    ``func`` must rebuild its computation from the plain arrays on every
    call so that it never shares state with the code under test.
    """
    grads = {}
    for name, base in values.items():
        g = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = func(values)
            flat[i] = keep - step
            lo = func(values)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def max_rel_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    """Worst elementwise relative error, with a small denominator floor."""
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic.get(name)
        assert ana is not None, f"missing analytic gradient for {name!r}"
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-4)
        worst = max(worst, float(np.max(np.abs(ana - num) / denom)))
    return worst


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def sigmoid_two_branch(x: np.ndarray) -> np.ndarray:
    """The logistic function as ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)``
    below, with ``e = exp(-|x|)``: no overflow at either end."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)


def _gru_gates(x: np.ndarray, h: np.ndarray, w: dict[str, np.ndarray]):
    """Update gate, reset gate, candidate recurrent term and candidate."""
    z = _sigmoid(x @ w["update_x"].T + w["update_bx"] + h @ w["update_h"].T + w["update_bh"])
    r = _sigmoid(x @ w["reset_x"].T + w["reset_bx"] + h @ w["reset_h"].T + w["reset_bh"])
    hl = h @ w["cand_h"].T + w["cand_bh"]
    c = np.tanh(x @ w["cand_x"].T + w["cand_bx"] + r * hl)
    return z, r, hl, c


def gru_step(x: np.ndarray, h: np.ndarray, w: dict[str, np.ndarray]) -> np.ndarray:
    """One GRU step from input rows ``x`` and state rows ``h``.

    ``w`` maps the gate tensor names (``update_x``, ``update_h``,
    ``update_bx``, ``update_bh``, and the same for ``reset`` and ``cand``)
    to plain arrays; ``*_x`` are hidden x input, ``*_h`` hidden x hidden.
    """
    z, _, _, c = _gru_gates(x, h, w)
    return (1.0 - z) * c + z * h


def gru_bptt(x: np.ndarray, h0: np.ndarray, w: dict[str, np.ndarray],
             g: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of ``sum(g * H)`` for one GRU layer by backpropagation
    through time, where ``H`` [steps, batch, hidden] is the state sequence
    run from ``h0`` over inputs ``x`` [steps, batch, d_in] with :func:`gru_step`.

    Returns the gradient of every gate tensor in ``w`` and of ``x`` and ``h0``.
    Each step, with pre-activations ``a_z``, ``a_r``, ``a_c`` and state
    gradient ``dh``: ``dz = dh (h - c)``, ``dc = dh (1 - z)``,
    ``da_c = dc (1 - c^2)``, ``dr = da_c hl``, ``dhl = da_c r``,
    ``da_z = dz z (1 - z)``, ``da_r = dr r (1 - r)``; the previous state
    receives ``dh z`` plus the three recurrent paths.
    """
    steps = x.shape[0]
    states = [h0]
    gates = []
    for t in range(steps):
        z, r, hl, c = _gru_gates(x[t], states[-1], w)
        gates.append((z, r, hl, c))
        states.append((1.0 - z) * c + z * states[-1])

    grads = {name: np.zeros_like(value) for name, value in w.items()}
    grads["x"] = np.zeros_like(x)
    dh = np.zeros_like(h0)
    for t in reversed(range(steps)):
        h, (z, r, hl, c) = states[t], gates[t]
        dh = dh + g[t]
        da_c = dh * (1.0 - z) * (1.0 - c ** 2)
        dhl = da_c * r
        da_z = dh * (h - c) * z * (1.0 - z)
        da_r = da_c * hl * r * (1.0 - r)
        for gate, da in (("update", da_z), ("reset", da_r), ("cand", da_c)):
            grads[f"{gate}_x"] += da.T @ x[t]
            grads[f"{gate}_bx"] += da.sum(axis=0)
            grads["x"][t] += da @ w[f"{gate}_x"]
        for gate, da in (("update", da_z), ("reset", da_r), ("cand", dhl)):
            grads[f"{gate}_h"] += da.T @ h
            grads[f"{gate}_bh"] += da.sum(axis=0)
        dh = dh * z + da_z @ w["update_h"] + da_r @ w["reset_h"] + dhl @ w["cand_h"]
    grads["h0"] = dh
    return grads


def pearson_direct(a: np.ndarray, b: np.ndarray) -> float:
    """Population Pearson correlation from the raw definition."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    am, bm = a.mean(), b.mean()
    cov = float(((a - am) * (b - bm)).mean())
    sa = math.sqrt(float(((a - am) ** 2).mean()))
    sb = math.sqrt(float(((b - bm) ** 2).mean()))
    return cov / (sa * sb)


def average_ranks_enumerated(x: np.ndarray) -> np.ndarray:
    """1-based average ranks computed by per-element enumeration."""
    x = np.asarray(x, dtype=np.float64)
    ranks = np.empty(len(x), dtype=np.float64)
    for i, xi in enumerate(x):
        smaller = int(np.sum(x < xi))
        equal = int(np.sum(x == xi))
        # tied values share the mean of the positions they occupy
        ranks[i] = smaller + (equal + 1) / 2.0
    return ranks


def spearman_enumerated(a: np.ndarray, b: np.ndarray) -> float:
    return pearson_direct(average_ranks_enumerated(a), average_ranks_enumerated(b))


def precision_top_n_naive(pred: np.ndarray, positive: np.ndarray, n: int) -> float:
    """Pick the n best predictions one at a time (ties: lowest index)."""
    pred = list(map(float, pred))
    taken: list[int] = []
    while len(taken) < min(n, len(pred)):
        best = None
        for i, p in enumerate(pred):
            if i in taken:
                continue
            if best is None or p > pred[best]:
                best = i
        taken.append(best)
    hits = sum(1 for i in taken if positive[i])
    return 100.0 * hits / len(taken)


DATE_TEXT = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")


def is_yyyy_mm_dd(text: str) -> bool:
    """True for four, two and two ASCII digits joined by dashes that name a
    calendar date."""
    match = DATE_TEXT.fullmatch(text)
    if match is None:
        return False
    try:
        datetime.date(*(int(part) for part in match.groups()))
    except ValueError:
        return False
    return True


def load_concepts_reference(path: str, known_stocks: set[str], panel_dates: set[str]):
    """Read a concept CSV one cell at a time with the checks of the package's
    loader, in its order.

    Returns the sorted concept ids, the static links and the dated links
    (date -> set of ``(stock_id, concept_id)``).  A file the package must
    reject raises ``ValueError`` carrying the message the package's error
    must carry.
    """
    concepts, static, dated = set(), set(), {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in (["concept_id", "stock_id"], ["concept_id", "stock_id", "date"]):
            raise ValueError(f"{path}:1: bad concept header; expected concept_id,stock_id[,date]")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise ValueError(f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
            if row[1] not in known_stocks:
                raise ValueError(f"{path}:{line}: unknown stock id {row[1]!r} in concept file")
            date = row[2] if len(row) == 3 else ""
            if date and not is_yyyy_mm_dd(date):
                raise ValueError(f"{path}:{line}: date {date!r} is not ISO-8601 YYYY-MM-DD")
            if date and date not in panel_dates:
                raise ValueError(f"{path}:{line}: date {date!r} is not a panel date")
            concepts.add(row[0])
            if date:
                dated.setdefault(date, set()).add((row[1], row[0]))
            else:
                static.add((row[1], row[0]))
    if not concepts:
        raise ValueError(f"{path}:1: concept file has no stock-concept links")
    return sorted(concepts), static, dated


PANEL_HEADER = (["date", "stock_id", "market_cap", "price"]
                + [f"f{i:03d}" for i in range(360)])


def write_panel_reference(panel, path: str) -> None:
    """Write a panel as ``csv.writer`` rows of text cells and ``repr`` floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_HEADER)
        for s in panel.slices:
            for i, stock_id in enumerate(s.stock_ids):
                writer.writerow([s.date, stock_id, repr(float(s.market_caps[i])),
                                 repr(float(s.prices[i]))]
                                + [repr(float(v)) for v in s.features[i]])


def load_panel_reference(path: str) -> list[dict]:
    """Read a panel CSV with ``float()`` per cell and the checks of the
    package's loader, in its order.

    Returns one dict per date, in date order, with ``date``, ``stock_ids``,
    ``market_caps``, ``prices``, ``features``, ``raw_labels`` and ``labels``
    (both None on the last date).  A file the package must reject raises
    ``ValueError`` carrying the message the package's error must carry.
    """
    by_date: dict[str, dict[str, tuple]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != PANEL_HEADER:
            raise ValueError(f"{path}:1: bad panel header; expected "
                             f"{PANEL_HEADER[:5]}...{PANEL_HEADER[-1]!r}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num  # the physical line the record ends on
            if len(row) != len(PANEL_HEADER):
                raise ValueError(f"{path}:{line}: expected {len(PANEL_HEADER)} columns, "
                                 f"got {len(row)}")
            date, stock_id = row[0], row[1]
            if not is_yyyy_mm_dd(date):
                raise ValueError(f"{path}:{line}: date {date!r} is not ISO-8601 YYYY-MM-DD")
            values = []
            for column, text in zip(PANEL_HEADER[2:], row[2:]):
                try:
                    values.append(float(text))
                except ValueError:
                    raise ValueError(f"{path}:{line}: non-numeric value {text!r} "
                                     f"in column {column!r}") from None
            cap, price = values[0], values[1]
            if stock_id in by_date.setdefault(date, {}):
                raise ValueError(f"{path}:{line}: duplicate row for ({date}, {stock_id})")
            if not (cap > 0.0 and math.isfinite(cap)):
                raise ValueError(f"{path}:{line}: market cap must be finite and positive, "
                                 f"got {cap}")
            if not (price > 0.0 and math.isfinite(price)):
                raise ValueError(f"{path}:{line}: price must be finite and positive, "
                                 f"got {price}")
            by_date[date][stock_id] = (line, cap, price, values[2:])
    if not by_date:
        raise ValueError(f"{path}:1: panel file has no data rows")
    dates = sorted(by_date)
    universe = sorted(by_date[dates[0]])
    for date in dates[1:]:
        if sorted(by_date[date]) != universe:
            first = min(entry[0] for entry in by_date[date].values())
            raise ValueError(f"{path}:{first}: stock universe on {date} differs from {dates[0]}")
    out = []
    for k, date in enumerate(dates):
        rows = [by_date[date][s] for s in universe]
        raw = labels = None
        if k + 1 < len(dates):
            nxt = [by_date[dates[k + 1]][s][2] for s in universe]
            raw = np.array([(p1 - r[2]) / r[2] for r, p1 in zip(rows, nxt)])
            std = raw.std()
            labels = np.zeros_like(raw) if raw.size <= 1 or std < 1e-12 \
                else (raw - raw.mean()) / std
            if not np.all(np.isfinite(labels)):
                raise ValueError(f"{path}: change rates from {date} to {dates[k + 1]} overflow")
        out.append({"date": date, "stock_ids": universe,
                    "market_caps": np.array([r[1] for r in rows]),
                    "prices": np.array([r[2] for r in rows]),
                    "features": np.array([r[3] for r in rows]),
                    "raw_labels": raw, "labels": labels})
    for entry in out:  # checked once every date's labels are
        if not np.all(np.isfinite(entry["features"])):
            raise ValueError(f"{entry['date']}: non-finite feature values")
    return out
