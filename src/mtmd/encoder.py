"""Two-layer gated recurrent encoder over each stock's 60-day lookback.

Each feature row is reshaped into a 60-step sequence of 6 fields (oldest
step first) and pushed through two stacked recurrence layers; the final
hidden state of the top layer is the stock's temporal embedding.

Each layer is a plain forward over arrays (:func:`layer_forward`, which
saves the gate arrays) and a hand-written backward through time
(:func:`layer_backward`).  :func:`encode_panel` puts the whole encoder on
the tape as one node with the encoder weights as its parents;
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


def init_encoder(rng: np.random.Generator, hidden: int) -> EncoderParams:
    """The two stacked layers, ``encoder.l0`` over the daily fields and ``encoder.l1``."""
    return EncoderParams(layers=[init_gru_layer(rng, hidden, FIELDS_PER_DAY, "encoder.l0"),
                                 init_gru_layer(rng, hidden, hidden, "encoder.l1")])


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


def layer_forward(x_seq: np.ndarray, layer: GruLayerParams):
    """Run one layer from a zero state over a [steps, batch, d_in] sequence.

    Returns the states [steps + 1, batch, hidden] (``states[0]`` is zero)
    and the update gate, reset gate, candidate and candidate recurrent term
    of each step, each [steps, batch, hidden], for :func:`layer_backward`.
    """
    if x_seq.ndim != 3 or x_seq.shape[2] != layer.input_width:
        raise ShapeError(f"layer expects [steps, batch, {layer.input_width}], got {x_seq.shape}")
    steps, batch, d_in = x_seq.shape
    hidden = layer.hidden_width
    w_x, b_x, u_zr, uc, bch = _forward_weights(layer)

    # input-side projections for the whole sequence in one shot
    xi = (x_seq.reshape(steps * batch, d_in) @ w_x.T).reshape(steps, batch, 3 * hidden) + b_x

    states = np.zeros((steps + 1, batch, hidden))
    # four arrays, not one [4, steps, batch, hidden] block: under glibc's
    # malloc, one 25 MB block per layer (100 stocks, width 128) raised the
    # peak RSS of a training run by 10%
    gates = tuple(np.empty((steps, batch, hidden)) for _ in range(4))
    zs, rs, cands, cand_h_lin = gates
    for t in range(steps):
        states[t + 1], zs[t], rs[t], cands[t], cand_h_lin[t] = _gru_step(
            states[t], xi[t], u_zr, uc, bch)
    return states, gates


def layer_backward(x_seq: np.ndarray, states: np.ndarray, gates: tuple[np.ndarray, ...],
                   g: np.ndarray, layer: GruLayerParams, input_grad: bool):
    """Backpropagate ``g``, the gradient of the states ``states[1:]``
    [steps, batch, hidden], through one layer run by :func:`layer_forward`.

    Returns the gradient of ``x_seq`` (``None`` unless ``input_grad``) and
    the layer's 12 gradients in :meth:`GruLayerParams.tensors` order.
    """
    steps, batch, d_in = x_seq.shape
    hidden = layer.hidden_width
    wz, uz = layer.update_x.data, layer.update_h.data
    wr, ur = layer.reset_x.data, layer.reset_h.data
    wc, uc = layer.cand_x.data, layer.cand_h.data
    zs, rs, cands, cand_h_lin = gates

    # per-step gate gradients side by side, [gc | gz | gr | ghl], so the
    # input weights' gradients (candidate, update, reset) are one product
    # with the first 3H columns, the recurrent weights' (update, reset,
    # candidate) one with the last 3H, and the biases one sum; each element
    # is the same batch reduction as a per-gate product
    buf = np.empty((batch, 4 * hidden))
    gc, gz, gr, ghl = np.split(buf, 4, axis=1)
    g_w = np.zeros((3 * hidden, d_in))
    g_u = np.zeros((3 * hidden, hidden))
    g_b = np.zeros(4 * hidden)
    gx = np.empty((steps, batch, d_in)) if input_grad else None
    carry = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        gh = g[t] + carry
        h_prev, z, r, c, hl = states[t], zs[t], rs[t], cands[t], cand_h_lin[t]
        one_minus_z = 1.0 - z
        np.multiply(gh * (h_prev - c) * z, one_minus_z, out=gz)
        np.multiply(gh * one_minus_z, 1.0 - c * c, out=gc)
        np.multiply(gc, r, out=ghl)
        np.multiply(gc * hl * r, 1.0 - r, out=gr)
        g_w += buf[:, :3 * hidden].T @ x_seq[t]
        g_u += buf[:, hidden:].T @ h_prev
        g_b += buf.sum(axis=0)
        # gx and carry stay three products added in this order: one fused
        # product would change the order of the sums, and so the bits of
        # every checkpoint
        if gx is not None:
            gx[t] = gz @ wz + gr @ wr + gc @ wc
        carry = gh * z + gz @ uz + gr @ ur + ghl @ uc
    g_wc, g_wz, g_wr = np.split(g_w, 3)
    g_uz, g_ur, g_uc = np.split(g_u, 3)
    g_bcx, g_bz, g_br, g_bch = np.split(g_b, 4)
    # the two biases of each sigmoid gate share one gradient
    return gx, [g_wz, g_uz, g_bz, g_bz, g_wr, g_ur, g_br, g_br, g_wc, g_uc, g_bcx, g_bch]


def _lookback_sequence(features: np.ndarray, caller: str) -> np.ndarray:
    """A [n_stocks, 360] feature block as a [60, n_stocks, 6] sequence."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != FEATURE_WIDTH:
        raise ShapeError(f"{caller} expects [n_stocks, {FEATURE_WIDTH}], got {arr.shape}")
    # row layout: 60 steps x 6 fields, oldest step first
    return arr.reshape(arr.shape[0], LOOKBACK_DAYS, FIELDS_PER_DAY).transpose(1, 0, 2)


def encode_panel(features: np.ndarray, params: EncoderParams) -> Tensor:
    """Encode a [n_stocks, 360] feature block into [n_stocks, hidden].

    The result is one tape node whose parents are the encoder's weights:
    features are data, not parameters.  Its backward pass runs
    :func:`layer_backward` from the top layer down, the top layer's
    gradient entering at the last step only.  Rows are independent, so the
    output is row-permutation equivariant.
    """
    x_seq = _lookback_sequence(features, "encode_panel")
    runs = []
    for layer in params.layers:
        states, gates = layer_forward(x_seq, layer)
        runs.append((x_seq, states, gates))
        x_seq = states[1:]

    def grad_fn(g):
        g_seq = np.zeros(x_seq.shape)
        g_seq[-1] = g
        grads = []
        for i in reversed(range(len(runs))):
            g_seq, layer_grads = layer_backward(*runs[i], g_seq, params.layers[i], i > 0)
            grads[:0] = layer_grads
        return grads

    return ad._node(x_seq[-1].copy(), tuple(params.tensors()), grad_fn)


def encode_rows(features, params: EncoderParams) -> np.ndarray:
    """:func:`encode_panel`'s output as a plain array, computed off the tape.

    All layers advance together one step at a time with the same step
    function as :func:`layer_forward`, keeping only each layer's running
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
