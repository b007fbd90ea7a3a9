"""Two-layer gated recurrent encoder over each stock's 60-day lookback.

Each feature row is reshaped into a 60-step sequence of 6 fields (oldest
step first) and pushed through two stacked recurrence layers; the final
hidden state of the top layer is the stock's temporal embedding.

The per-sequence recurrence runs as a single fused tape node
(:func:`gru_sequence`) with a hand-written backward pass.
:func:`encode_rows` runs the same forward step off the tape, for scoring
and export where no gradient is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

LOOKBACK_DAYS = 60
FIELDS_PER_DAY = 6
FEATURE_WIDTH = LOOKBACK_DAYS * FIELDS_PER_DAY


@dataclass
class GruLayerParams:
    """Gate weights for one recurrence layer (update z, reset r, candidate c).

    ``*_x`` matrices are hidden x input, ``*_h`` are hidden x hidden; each
    path carries its own bias, matching the two-bias gate convention.
    """

    update_x: Tensor
    update_h: Tensor
    update_bx: Tensor
    update_bh: Tensor
    reset_x: Tensor
    reset_h: Tensor
    reset_bx: Tensor
    reset_bh: Tensor
    cand_x: Tensor
    cand_h: Tensor
    cand_bx: Tensor
    cand_bh: Tensor

    @property
    def hidden_width(self) -> int:
        return self.update_x.shape[0]

    @property
    def input_width(self) -> int:
        return self.update_x.shape[1]

    def tensors(self) -> list[Tensor]:
        return [
            self.update_x, self.update_h, self.update_bx, self.update_bh,
            self.reset_x, self.reset_h, self.reset_bx, self.reset_bh,
            self.cand_x, self.cand_h, self.cand_bx, self.cand_bh,
        ]


@dataclass
class EncoderParams:
    layers: list[GruLayerParams]

    @property
    def hidden_width(self) -> int:
        return self.layers[-1].hidden_width

    def tensors(self) -> list[Tensor]:
        return [t for layer in self.layers for t in layer.tensors()]


def init_gru_layer(rng: np.random.Generator, hidden: int, d_in: int, prefix: str) -> GruLayerParams:
    """Uniform(-1/sqrt(hidden), 1/sqrt(hidden)) init for all gate tensors."""
    bound = 1.0 / np.sqrt(hidden)

    def draw(shape, name):
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, name=f"{prefix}.{name}")

    return GruLayerParams(
        update_x=draw((hidden, d_in), "update_x"),
        update_h=draw((hidden, hidden), "update_h"),
        update_bx=draw((hidden,), "update_bx"),
        update_bh=draw((hidden,), "update_bh"),
        reset_x=draw((hidden, d_in), "reset_x"),
        reset_h=draw((hidden, hidden), "reset_h"),
        reset_bx=draw((hidden,), "reset_bx"),
        reset_bh=draw((hidden,), "reset_bh"),
        cand_x=draw((hidden, d_in), "cand_x"),
        cand_h=draw((hidden, hidden), "cand_h"),
        cand_bx=draw((hidden,), "cand_bx"),
        cand_bh=draw((hidden,), "cand_bh"),
    )


def init_encoder(rng: np.random.Generator, hidden: int, d_in: int = FIELDS_PER_DAY,
                 n_layers: int = 2, prefix: str = "encoder") -> EncoderParams:
    layers = [
        init_gru_layer(rng, hidden, d_in if i == 0 else hidden, f"{prefix}.l{i}")
        for i in range(n_layers)
    ]
    return EncoderParams(layers=layers)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)


def _forward_weights(layer: GruLayerParams):
    """The layer's weights stacked for the forward step.

    Returns the input-side matrix [3H, d_in] and bias [3H] (update, reset,
    candidate; the two biases of each sigmoid gate summed), the recurrent
    update and reset matrices fused to [2H, H], and the candidate's
    recurrent matrix and bias.
    """
    w_x = np.concatenate([layer.update_x.data, layer.reset_x.data, layer.cand_x.data])
    b_x = np.concatenate([layer.update_bx.data + layer.update_bh.data,
                          layer.reset_bx.data + layer.reset_bh.data, layer.cand_bx.data])
    u_zr = np.concatenate([layer.update_h.data, layer.reset_h.data])
    return w_x, b_x, u_zr, layer.cand_h.data, layer.cand_bh.data


def _gru_step(h: np.ndarray, xi: np.ndarray, u_zr: np.ndarray, uc: np.ndarray,
              bch: np.ndarray):
    """One forward step from state ``h`` [batch, H] and the step's input
    projections ``xi`` [batch, 3H] (biases included).

    Returns the next state and the update gate, reset gate, candidate and
    candidate recurrent term that the backward pass reads.
    """
    hidden = h.shape[1]
    zr = _sigmoid(xi[:, :2 * hidden] + h @ u_zr.T)
    z, r = zr[:, :hidden], zr[:, hidden:]
    hl = h @ uc.T + bch
    c = np.tanh(xi[:, 2 * hidden:] + r * hl)
    return (1.0 - z) * c + z * h, z, r, c, hl


def gru_sequence(x_seq: Tensor, h0: Tensor, layer: GruLayerParams) -> Tensor:
    """Run one recurrence layer over a [steps, batch, d_in] sequence.

    Returns the full hidden-state sequence [steps, batch, hidden] as a
    single tape node whose backward implements truncation-free BPTT.
    """
    x_seq = ad.as_tensor(x_seq)
    h0 = ad.as_tensor(h0)
    if x_seq.data.ndim != 3:
        raise ShapeError(f"gru_sequence expects [steps, batch, d_in], got {x_seq.data.shape}")
    steps, batch, d_in = x_seq.data.shape
    hidden = layer.hidden_width
    if d_in != layer.input_width:
        raise ShapeError(f"sequence width {d_in} != layer input width {layer.input_width}")
    if h0.data.shape != (batch, hidden):
        raise ShapeError(f"initial state shape {h0.data.shape} != ({batch}, {hidden})")

    wz, uz = layer.update_x.data, layer.update_h.data
    wr, ur = layer.reset_x.data, layer.reset_h.data
    wc, uc = layer.cand_x.data, layer.cand_h.data
    w_x, b_x, u_zr, _, bch = _forward_weights(layer)

    # input-side projections for the whole sequence in one shot
    xi = (x_seq.data.reshape(steps * batch, d_in) @ w_x.T).reshape(steps, batch, 3 * hidden) + b_x

    states = np.empty((steps + 1, batch, hidden))
    states[0] = h0.data
    zs = np.empty((steps, batch, hidden))
    rs = np.empty((steps, batch, hidden))
    cands = np.empty((steps, batch, hidden))
    cand_h_lin = np.empty((steps, batch, hidden))
    for t in range(steps):
        states[t + 1], zs[t], rs[t], cands[t], cand_h_lin[t] = _gru_step(
            states[t], xi[t], u_zr, uc, bch)

    def grad_fn(g):
        # per-step gate gradients side by side, [gc | gz | gr | ghl], so the
        # input weights' gradients (candidate, update, reset) are one
        # product with the first 3H columns, the recurrent weights' (update,
        # reset, candidate) one with the last 3H, and the biases one sum;
        # each element is the same batch reduction as a per-gate product
        gates = np.empty((batch, 4 * hidden))
        gc, gz, gr, ghl = np.split(gates, 4, axis=1)
        g_w = np.zeros((3 * hidden, d_in))
        g_u = np.zeros((3 * hidden, hidden))
        g_b = np.zeros(4 * hidden)
        gx = np.empty((steps, batch, d_in)) if x_seq.requires_grad else None
        carry = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            gh = g[t] + carry
            h_prev, z, r, c, hl = states[t], zs[t], rs[t], cands[t], cand_h_lin[t]
            one_minus_z = 1.0 - z
            np.multiply(gh * (h_prev - c) * z, one_minus_z, out=gz)
            np.multiply(gh * one_minus_z, 1.0 - c * c, out=gc)
            np.multiply(gc, r, out=ghl)
            np.multiply(gc * hl * r, 1.0 - r, out=gr)
            x_t = x_seq.data[t]
            g_w += gates[:, :3 * hidden].T @ x_t
            g_u += gates[:, hidden:].T @ h_prev
            g_b += gates.sum(axis=0)
            # gx and carry stay three products added in this order: one
            # fused product would change the order of the sums, and so the
            # bits of every checkpoint
            if gx is not None:
                gx[t] = gz @ wz + gr @ wr + gc @ wc
            carry = gh * z + gz @ uz + gr @ ur + ghl @ uc
        g_wc, g_wz, g_wr = np.split(g_w, 3)
        g_uz, g_ur, g_uc = np.split(g_u, 3)
        g_bcx, g_bz, g_br, g_bch = np.split(g_b, 4)
        # the two biases of each sigmoid gate share one gradient
        return (
            gx, carry,
            g_wz, g_uz, g_bz, g_bz.copy(),
            g_wr, g_ur, g_br, g_br.copy(),
            g_wc, g_uc, g_bcx, g_bch,
        )

    parents = (
        x_seq, h0,
        layer.update_x, layer.update_h, layer.update_bx, layer.update_bh,
        layer.reset_x, layer.reset_h, layer.reset_bx, layer.reset_bh,
        layer.cand_x, layer.cand_h, layer.cand_bx, layer.cand_bh,
    )
    return ad._node(states[1:], parents, grad_fn)


def _lookback_sequence(features, caller: str) -> np.ndarray:
    """A [n_stocks, 360] feature block as a [60, n_stocks, 6] sequence."""
    arr = features.data if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != FEATURE_WIDTH:
        raise ShapeError(f"{caller} expects [n_stocks, {FEATURE_WIDTH}], got {arr.shape}")
    # row layout: 60 steps x 6 fields, oldest step first
    return arr.reshape(arr.shape[0], LOOKBACK_DAYS, FIELDS_PER_DAY).transpose(1, 0, 2)


def encode_panel(features, params: EncoderParams) -> Tensor:
    """Encode a [n_stocks, 360] feature block into [n_stocks, hidden].

    Features are data, not parameters: gradients flow to the encoder
    weights only.  Rows are independent, so the output is row-permutation
    equivariant.
    """
    seq = _lookback_sequence(features, "encode_panel")
    n_stocks = seq.shape[1]
    out = Tensor(seq.copy())
    for layer in params.layers:
        h0 = Tensor(np.zeros((n_stocks, layer.hidden_width)))
        out = gru_sequence(out, h0, layer)
    return ad.last_step(out)


def encode_rows(features, params: EncoderParams) -> np.ndarray:
    """:func:`encode_panel`'s output as a plain array, computed off the tape.

    All layers advance together one step at a time with the same step
    function as :func:`gru_sequence`, keeping only each layer's running
    state: no step's gates or projections are stored.  Rows are independent,
    so any set of rows (several dates' cross-sections, say) can be encoded
    in one call.
    """
    seq = _lookback_sequence(features, "encode_rows")
    weights = [_forward_weights(layer) for layer in params.layers]
    states = [np.zeros((seq.shape[1], layer.hidden_width)) for layer in params.layers]
    for x_t in seq:
        for i, (w_x, b_x, u_zr, uc, bch) in enumerate(weights):
            states[i] = _gru_step(states[i], x_t @ w_x.T + b_x, u_zr, uc, bch)[0]
            x_t = states[i]
    return states[-1]
