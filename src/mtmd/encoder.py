"""Two-layer gated recurrent encoder over each stock's 60-day lookback.

Each feature row is reshaped into a 60-step sequence of 6 fields (oldest
step first) and pushed through two stacked recurrence layers; the final
hidden state of the top layer is the stock's temporal embedding.

The layers run as one stack, as a wavefront (Appleyard et al.,
arXiv:1604.01946): at iteration ``k`` layer ``i`` takes its step ``k - i``,
so that one ``np.matmul`` over a leading layer axis serves every layer.
:func:`stack_forward` saves each step's gates and :func:`stack_backward`
is the hand-written backward through time.  :func:`encode_panel` puts the
whole encoder on the tape as one node with the encoder weights as its
parents; :func:`encode_rows` runs the same forward off the tape, keeping
only the running state, for scoring and export where no gradient is
needed.  Training passes :func:`encode_panel` an :class:`EncoderBuffers`
set, so that each step writes its saved arrays over the previous step's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeError

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


class EncoderBuffers:
    """The arrays one training step's encoder keeps for its backward, reused
    by the next step.

    :func:`encode_panel` given a set writes its states and gates into it,
    and in its backward the gradient of the top layer's states, instead of
    allocating them, so a run of steps holds one step's saved arrays.  A
    forward of another shape replaces the arrays.  Each forward into the set
    starts a new generation, and a graph of an older generation refuses its
    backward: its saved arrays now hold a later step.
    """

    def __init__(self):
        self.generation = 0
        self._shape = None
        self._arrays = None

    def take(self, steps: int, n_layers: int, batch: int, hidden: int):
        """The states, the z|r, candidate and recurrent-candidate slots of
        :func:`stack_forward`, and the [steps, batch, H] gradient sequence
        (zero but at its last step, the only one written), as a new
        generation."""
        shape = (steps, n_layers, batch, hidden)
        if shape != self._shape:
            self._arrays = (*_step_arrays(steps + n_layers - 1, n_layers, batch, hidden),
                            np.zeros((steps, batch, hidden)))
            self._shape = shape
        self.generation += 1
        return self._arrays


def _step_arrays(slots: int, n_layers: int, batch: int, hidden: int):
    """Unfilled states [slots + 1, layers, batch, H], z|r slots
    [slots, 2, layers, batch, H], and candidate and recurrent-candidate
    slots [slots, layers, batch, H], for :func:`_wavefront` to write."""
    return (np.empty((slots + 1, n_layers, batch, hidden)),
            np.empty((slots, 2, n_layers, batch, hidden)),
            np.empty((slots, n_layers, batch, hidden)),
            np.empty((slots, n_layers, batch, hidden)))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp(min(x, 0)) is exactly 1 for x >= 0 and exp(-|x|) for x < 0, so
    # this is bitwise the two-branch form (1 or e) / (1 + e), e = exp(-|x|),
    # without a per-element branch
    return np.divide(np.exp(np.minimum(x, 0.0)), 1.0 + np.exp(-np.abs(x)), out=out)


def _wavefront(x_seq: np.ndarray, layers: list[GruLayerParams], slots: int, out=None):
    """Run the stacked layers from zero states over ``x_seq`` [steps, batch, d_in].

    At iteration ``k`` layer ``i`` runs its step ``k - i``, projecting
    ``x_seq[k]`` (layer 0) or layer ``i - 1``'s state of the previous
    iteration; each recurrent product is one ``np.matmul`` over the layer
    axis.  Every layer runs every iteration: one not yet started is put back
    to its zero state, and layer 0 past its end repeats its last input,
    which nothing reads.  Returns the states [slots + 1, layers, batch, H]
    and the gates (z and r [slots, 2, layers, batch, H], the candidate and
    its recurrent term [slots, layers, batch, H]), slot ``k`` written by
    iteration ``k`` modulo ``slots``: ``steps + layers - 1`` slots keep
    every step, one keeps only the running state.  The four arrays are
    ``out`` if given (:func:`_step_arrays`' shapes, contents ignored).
    """
    steps = x_seq.shape[0]
    n_layers, batch, hidden = len(layers), x_seq.shape[1], layers[0].hidden_width
    states, zr_slots, cand_slots, cand_h_slots = out or _step_arrays(slots, n_layers, batch, hidden)
    states[0] = 0.0  # the zero start; every other slot is written before it is read
    xi = np.empty((n_layers, batch, 3 * hidden))
    # each layer's input-side matrix and bias (update, reset, candidate; the
    # two biases of each sigmoid gate summed), the bias repeated once for
    # every row it is added to
    projections = []
    for i, layer in enumerate(layers):
        w_x = np.concatenate([layer.update_x.data, layer.reset_x.data, layer.cand_x.data])
        b_x = np.concatenate([layer.update_bx.data + layer.update_bh.data,
                              layer.reset_bx.data + layer.reset_bh.data, layer.cand_bx.data])
        projections.append((xi[i], w_x.T, np.tile(b_x, (batch, 1))))
    # the recurrent matrices stay [2H | H, H] in memory and are multiplied
    # transposed, as BLAS did before the layers were stacked
    u_zr = np.array([np.concatenate([layer.update_h.data, layer.reset_h.data])
                     for layer in layers]).transpose(0, 2, 1)
    u_c = np.array([layer.cand_h.data for layer in layers]).transpose(0, 2, 1)
    b_c = np.array([np.tile(layer.cand_bh.data, (batch, 1)) for layer in layers])
    # the z|r pre-activation is summed into separate z and r blocks, so the
    # sigmoid and every use of z and r, here and in the backward, run over
    # contiguous arrays
    rec, zr = np.empty((n_layers, batch, 2 * hidden)), np.empty((2, n_layers, batch, hidden))
    split = (n_layers, batch, 2, hidden)
    rec_split, xi_zr_split = rec.reshape(split), xi[..., :2 * hidden].reshape(split)
    zr_split, xi_c = zr.transpose(1, 2, 0, 3), xi[..., 2 * hidden:]
    for k in range(steps + n_layers - 1):
        h, slot = states[k % len(states)], k % slots
        for i, (xi_i, w_t, b) in enumerate(projections):
            np.matmul(x_seq[min(k, steps - 1)] if i == 0 else h[i - 1], w_t, out=xi_i)
            np.add(xi_i, b, out=xi_i)
        np.matmul(h, u_zr, out=rec)
        np.add(rec_split, xi_zr_split, out=zr_split)
        z, r = _sigmoid(zr, out=zr_slots[slot])
        hl = np.matmul(h, u_c, out=cand_h_slots[slot])
        np.add(hl, b_c, out=hl)
        c = np.multiply(r, hl, out=cand_slots[slot])
        np.add(c, xi_c, out=c)
        np.tanh(c, out=c)
        h_next = states[(k + 1) % len(states)]
        np.add((1.0 - z) * c, z * h, out=h_next)
        if k + 1 < n_layers:
            h_next[k + 1:] = 0.0
    return states, (zr_slots, cand_slots, cand_h_slots)


def stack_forward(x_seq: np.ndarray, layers: list[GruLayerParams], out=None):
    """:func:`_wavefront` keeping every step for :func:`stack_backward`, in
    ``out`` (the first four arrays of :meth:`EncoderBuffers.take`) if
    given.  The layers share one width; layer ``i``'s state after its step
    ``t`` is ``states[t + i + 1, i]``."""
    if x_seq.ndim != 3 or x_seq.shape[2] != layers[0].input_width:
        raise ShapeError(f"layer expects [steps, batch, {layers[0].input_width}], got {x_seq.shape}")
    return _wavefront(x_seq, layers, x_seq.shape[0] + len(layers) - 1, out)


def stack_backward(x_seq: np.ndarray, states: np.ndarray, gates, g: np.ndarray,
                   layers: list[GruLayerParams]) -> list[np.ndarray]:
    """Backpropagate ``g``, the gradient of the top layer's states
    [steps, batch, H], through a stack run by :func:`stack_forward`: the
    wavefront in reverse, each layer passing the gradient of its input to
    the layer below for the next iteration.  Returns each layer's 12
    gradients in :meth:`GruLayerParams.tensors` order.
    """
    steps, batch, _ = x_seq.shape
    n_layers, hidden = len(layers), layers[0].hidden_width
    zr_slots, cand_slots, cand_h_slots = gates
    u_z, u_r, u_c = np.array([[layer.update_h.data, layer.reset_h.data, layer.cand_h.data]
                              for layer in layers]).transpose(1, 0, 2, 3)
    # the input weights of the layers that pass a gradient to the one below
    w_z, w_r, w_c = np.reshape([[layer.update_x.data, layer.reset_x.data, layer.cand_x.data]
                                for layer in layers[1:]],
                               (n_layers - 1, 3, hidden, hidden)).transpose(1, 0, 2, 3)

    # per-step gate gradients side by side, [gc | gz | gr | ghl], so each
    # layer's input weights' gradients (candidate, update, reset) are one
    # product with the first 3H columns, the recurrent weights' (update,
    # reset, candidate) one with the last 3H, and the biases one sum; each
    # element is the same batch reduction as a per-gate product
    buf = np.empty((n_layers, batch, 4 * hidden))
    gc, gz, gr, ghl = np.split(buf, 4, axis=2)
    g_w = [np.zeros((3 * hidden, layer.input_width)) for layer in layers]
    g_u = np.zeros((n_layers, 3 * hidden, hidden))
    g_b = np.zeros((n_layers, 4 * hidden))
    buf_w = [buf[i, :, :3 * hidden].T for i in range(n_layers)]
    buf_u = buf[:, :, hidden:].transpose(0, 2, 1)
    # the gradient entering each layer's state at its current step: the
    # top layer's from g, a lower layer's from the layer above
    g_in = np.zeros((n_layers, batch, hidden))
    carry = np.zeros((n_layers, batch, hidden))
    for k in range(steps + n_layers - 2, -1, -1):
        # a lower layer past its last step gets zero gradients, and so does
        # a layer before it starts: both add exact zeros
        g_in[-1] = g[k - n_layers + 1] if k >= n_layers - 1 else 0.0
        if k + 1 < n_layers:
            carry[k + 1:] = 0.0
        gh = g_in + carry
        h_prev, (z, r) = states[k], zr_slots[k]
        c, hl = cand_slots[k], cand_h_slots[k]
        one_minus_z = 1.0 - z
        np.multiply(gh * (h_prev - c) * z, one_minus_z, out=gz)
        np.multiply(gh * one_minus_z, 1.0 - c * c, out=gc)
        np.multiply(gc, r, out=ghl)
        np.multiply(gc * hl * r, 1.0 - r, out=gr)
        for i in range(n_layers):
            g_w[i] += buf_w[i] @ (x_seq[min(k, steps - 1)] if i == 0 else h_prev[i - 1])
        g_u += np.matmul(buf_u, h_prev)
        g_b += buf.sum(axis=1)
        # the input gradient and the carry stay three products added in
        # this order: one fused product would change the order of the
        # sums, and so the bits of every checkpoint
        np.add(np.matmul(gz[1:], w_z) + np.matmul(gr[1:], w_r), np.matmul(gc[1:], w_c),
               out=g_in[:-1])
        np.add(gh * z + np.matmul(gz, u_z) + np.matmul(gr, u_r), np.matmul(ghl, u_c), out=carry)
    grads = []
    for g_wi, g_ui, g_bi in zip(g_w, g_u, g_b):
        (g_wc, g_wz, g_wr), (g_uz, g_ur, g_uc) = np.split(g_wi, 3), np.split(g_ui, 3)
        g_bcx, g_bz, g_br, g_bch = np.split(g_bi, 4)
        # the two biases of each sigmoid gate share one gradient
        grads += [g_wz, g_uz, g_bz, g_bz, g_wr, g_ur, g_br, g_br, g_wc, g_uc, g_bcx, g_bch]
    return grads


def _lookback_sequence(features: np.ndarray, caller: str) -> np.ndarray:
    """A [n_stocks, 360] feature block as a [60, n_stocks, 6] sequence."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != FEATURE_WIDTH:
        raise ShapeError(f"{caller} expects [n_stocks, {FEATURE_WIDTH}], got {arr.shape}")
    # row layout: 60 steps x 6 fields, oldest step first
    return arr.reshape(arr.shape[0], LOOKBACK_DAYS, FIELDS_PER_DAY).transpose(1, 0, 2)


def encode_panel(features: np.ndarray, params: EncoderParams,
                 buffers: EncoderBuffers | None = None) -> Tensor:
    """Encode a [n_stocks, 360] feature block into [n_stocks, hidden].

    The result is one tape node whose parents are the encoder's weights:
    features are data, not parameters.  Its backward pass runs
    :func:`stack_backward`, the top layer's gradient entering at the last
    step only.  Rows are independent, so the output is row-permutation
    equivariant.  With ``buffers`` the saved arrays live in that set, and
    the node's backward is valid only until the next forward into it.
    """
    x_seq = _lookback_sequence(features, "encode_panel")
    steps, batch, _ = x_seq.shape
    saved = g_seq = None
    if buffers is not None:
        *saved, g_seq = buffers.take(steps, len(params.layers), batch, params.hidden_width)
        generation = buffers.generation
    states, gates = stack_forward(x_seq, params.layers, saved)

    def grad_fn(g):
        if buffers is not None and buffers.generation != generation:
            raise ContractError("encoder backward after a later forward reused its buffers; "
                                "a training graph is valid only until the next forward")
        seq = np.zeros((steps,) + g.shape) if g_seq is None else g_seq
        seq[-1] = g
        return stack_backward(x_seq, states, gates, seq, params.layers)

    return ad._node(states[-1, -1].copy(), tuple(params.tensors()), grad_fn)


def encode_rows(features, params: EncoderParams) -> np.ndarray:
    """:func:`encode_panel`'s output as a plain array, computed off the tape by
    the same forward keeping only the running state.  Rows are independent,
    so any set of rows (several dates' cross-sections, say) can be encoded
    in one call.
    """
    x_seq = _lookback_sequence(features, "encode_rows")
    states, _ = _wavefront(x_seq, params.layers, 1)
    return states[(x_seq.shape[0] + len(params.layers) - 1) % 2, -1].copy()
