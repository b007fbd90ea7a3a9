"""Independent oracles used across the test suite.

Everything here is deliberately brute-force and shares no code with the
package: central finite differences for gradients, a GRU step and its
backpropagation through time written from the textbook equations,
direct-formula Pearson, enumeration-based average ranks, and naive top-N
counting.
"""

from __future__ import annotations

import math
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
