from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtmd import autodiff as ad
from mtmd import encoder as enc
from mtmd.errors import ContractError, ShapeError

from oracles import finite_difference, gru_bptt, gru_step, max_rel_error, sigmoid_two_branch


def zero_layer(hidden, d_in):
    def z(shape):
        return ad.Tensor(np.zeros(shape))

    return enc.GruLayerParams(
        update_x=z((hidden, d_in)), update_h=z((hidden, hidden)),
        update_bx=z((hidden,)), update_bh=z((hidden,)),
        reset_x=z((hidden, d_in)), reset_h=z((hidden, hidden)),
        reset_bx=z((hidden,)), reset_bh=z((hidden,)),
        cand_x=z((hidden, d_in)), cand_h=z((hidden, hidden)),
        cand_bx=z((hidden,)), cand_bh=z((hidden,)),
    )


def layer_arrays(layer: enc.GruLayerParams) -> dict[str, np.ndarray]:
    return {f.name: getattr(layer, f.name).data for f in fields(layer)}


def layer_states(states: np.ndarray, layer: int, steps: int) -> np.ndarray:
    """Layer ``layer``'s state after each of its steps, [steps, batch, H],
    out of :func:`encoder.stack_forward`'s iteration-indexed states."""
    return states[layer + 1:layer + 1 + steps, layer]


def one_step(x: np.ndarray, layer: enc.GruLayerParams) -> np.ndarray:
    """The encoder's first step from input rows ``x``, as a one-step sequence."""
    states, _ = enc.stack_forward(x[None], [layer])
    return layer_states(states, 0, 1)[0]


class TestGruCell:
    """A single recurrence step from the zero state."""

    def test_zero_params_zero_state_gives_zero(self):
        layer = zero_layer(4, 3)
        out = one_step(np.array([[1.0, -2.0, 3.0]]), layer)
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_saturated_update_gate_copies_state(self):
        layer = zero_layer(4, 3)
        layer.cand_bx = ad.Tensor(np.full(4, 1.0))
        x = np.array([[1.0, 2.0, 3.0]])
        # the candidate is tanh(1) everywhere; with the update gate open the
        # step takes half of it, with the gate saturated it keeps the zero state
        assert np.allclose(one_step(x, layer), 0.5 * np.tanh(1.0), atol=1e-15)
        layer.update_bx = ad.Tensor(np.full(4, 50.0))
        assert np.allclose(one_step(x, layer), 0.0, atol=1e-12)

    def test_matches_fused_sequence(self):
        rng = np.random.default_rng(3)
        layer = enc.init_gru_layer(rng, 5, 3, "l")
        x = rng.normal(size=(2, 3))
        expected = gru_step(x, np.zeros((2, 5)), layer_arrays(layer))
        assert np.max(np.abs(one_step(x, layer) - expected)) <= 1e-13


def stack_gradients(x: np.ndarray, layers: list[enc.GruLayerParams],
                    g: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Per layer, the gradients of ``sum(g * top layer's states)`` over a
    stack run from zero states, keyed like :func:`oracles.gru_bptt`."""
    states, gates = enc.stack_forward(x, layers)
    grads = enc.stack_backward(x, states, gates, g, layers)
    names = [f.name for f in fields(enc.GruLayerParams)]
    return [dict(zip(names, grads[12 * i:12 * i + 12])) for i in range(len(layers))]


def composed_oracle(x: np.ndarray, bottom: dict, top: dict, g: np.ndarray) -> list[dict]:
    """The oracle for a two-layer stack: the bottom layer's states from
    ``gru_step``, then BPTT of the top layer fed ``g``, then of the bottom
    layer fed the top layer's input gradient."""
    h, bottom_states = np.zeros((x.shape[1], bottom["update_h"].shape[0])), []
    for x_t in x:
        h = gru_step(x_t, h, bottom)
        bottom_states.append(h)
    h0 = np.zeros_like(h)
    want_top = gru_bptt(np.array(bottom_states), h0, top, g)
    want_bottom = gru_bptt(x, h0, bottom, want_top["x"])
    return [{name: want[name] for name in bottom} for want in (want_bottom, want_top)]


def assert_gradients_close(got: list[dict], want: list[dict], tol: float) -> None:
    for i, (layer_got, layer_want) in enumerate(zip(got, want)):
        assert sorted(layer_got) == sorted(layer_want)
        for name, value in layer_want.items():
            assert np.max(np.abs(layer_got[name] - value)) <= tol, (i, name)


BPTT_SHAPES = [(60, 20, 16, 6), (5, 1, 16, 6), (4, 7, 33, 9), (6, 30, 8, 8), (3, 2, 1, 1)]


class TestGruSequence:
    """The stacked forward and backward, on one layer and on two."""

    def test_fused_matches_stepwise_cells(self):
        rng = np.random.default_rng(7)
        layer = enc.init_gru_layer(rng, 4, 2, "l")
        x = rng.normal(size=(6, 3, 2))
        h = np.zeros((3, 4))
        states, _ = enc.stack_forward(x, [layer])
        assert np.array_equal(states[0, 0], h)
        weights = layer_arrays(layer)
        for t, got in enumerate(layer_states(states, 0, 6)):
            h = gru_step(x[t], h, weights)
            assert np.max(np.abs(got - h)) <= 1e-13

    def test_two_layers_match_stepwise_cells(self):
        rng = np.random.default_rng(11)
        layers = [enc.init_gru_layer(rng, 4, 2, "l0"), enc.init_gru_layer(rng, 4, 4, "l1")]
        x = rng.normal(size=(5, 3, 2))
        states, _ = enc.stack_forward(x, layers)
        inputs = x
        for i, layer in enumerate(layers):
            h, expected = np.zeros((3, 4)), []
            for x_t in inputs:
                h = gru_step(x_t, h, layer_arrays(layer))
                expected.append(h)
            assert np.max(np.abs(layer_states(states, i, 5) - np.array(expected))) <= 1e-13
            inputs = np.array(expected)

    def test_fused_gradients_match_finite_differences(self):
        rng = np.random.default_rng(19)
        shapes = {}
        for li, d_in in enumerate((2, 3)):
            for gate in ("update", "reset", "cand"):
                shapes[f"l{li}.{gate}_x"] = (3, d_in)
                shapes[f"l{li}.{gate}_h"] = (3, 3)
                shapes[f"l{li}.{gate}_bx"] = (3,)
                shapes[f"l{li}.{gate}_bh"] = (3,)
        values = {k: rng.normal(size=s) * 0.4 for k, s in shapes.items()}
        x = rng.normal(size=(5, 2, 2))

        def top_states(vals, n_layers):
            layers = [enc.GruLayerParams(**{f.name: ad.Tensor(vals[f"l{li}.{f.name}"])
                                            for f in fields(enc.GruLayerParams)})
                      for li in range(n_layers)]
            states, _ = enc.stack_forward(x, layers)
            return layer_states(states, n_layers - 1, 5), layers

        # one layer, and two, where the bottom layer's gradients pass
        # through the top layer's input gradient; d sum(out^2) / d out = 2 out
        for n_layers in (1, 2):
            vals = {k: v for k, v in values.items() if int(k[1]) < n_layers}
            out, layers = top_states(vals, n_layers)
            analytic = {f"l{li}.{name}": grad for li, layer_grads
                        in enumerate(stack_gradients(x, layers, 2.0 * out))
                        for name, grad in layer_grads.items()}
            numeric = finite_difference(
                lambda v: float(np.sum(top_states(v, n_layers)[0] ** 2)), vals)
            assert max_rel_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("steps, batch, hidden, d_in", BPTT_SHAPES)
    def test_gradients_match_bptt_oracle(self, steps, batch, hidden, d_in):
        rng = np.random.default_rng(steps * 1000 + hidden)
        layer = enc.init_gru_layer(rng, hidden, d_in, "l")
        x = rng.normal(size=(steps, batch, d_in))
        g = rng.normal(size=(steps, batch, hidden))
        expected = gru_bptt(x, np.zeros((batch, hidden)), layer_arrays(layer), g)
        del expected["x"], expected["h0"]
        assert_gradients_close(stack_gradients(x, [layer], g), [expected], 1e-12)

    @pytest.mark.parametrize("steps, batch, hidden, d_in", BPTT_SHAPES)
    def test_two_layer_gradients_match_composed_oracle(self, steps, batch, hidden, d_in):
        rng = np.random.default_rng(steps * 1000 + hidden + 1)
        layers = [enc.init_gru_layer(rng, hidden, d_in, "l0"),
                  enc.init_gru_layer(rng, hidden, hidden, "l1")]
        x = rng.normal(size=(steps, batch, d_in))
        g = rng.normal(size=(steps, batch, hidden))
        want = composed_oracle(x, *(layer_arrays(layer) for layer in layers), g)
        assert_gradients_close(stack_gradients(x, layers, g), want, 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(steps=st.integers(1, 6), batch=st.integers(1, 9), hidden=st.integers(1, 9),
           d_in=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_two_layer_stack_matches_composed_oracle(self, steps, batch, hidden, d_in, seed):
        rng = np.random.default_rng(seed)
        layers = [enc.init_gru_layer(rng, hidden, d_in, "l0"),
                  enc.init_gru_layer(rng, hidden, hidden, "l1")]
        x = rng.normal(size=(steps, batch, d_in))
        g = rng.normal(size=(steps, batch, hidden))
        want = composed_oracle(x, *(layer_arrays(layer) for layer in layers), g)
        assert_gradients_close(stack_gradients(x, layers, g), want, 1e-12)

    def test_shape_validation(self):
        layer = zero_layer(4, 2)
        with pytest.raises(ShapeError):
            enc.stack_forward(np.zeros((3, 2)), [layer])
        with pytest.raises(ShapeError):
            enc.stack_forward(np.zeros((3, 2, 3)), [layer])


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(1, 40),
                        elements=st.floats(-1e308, 1e308, allow_nan=False,
                                           allow_subnormal=True)))
    def test_equals_two_branch_form_bitwise(self, x):
        want = sigmoid_two_branch(x).view(np.int64)
        assert np.array_equal(enc._sigmoid(x).view(np.int64), want)
        # written through a strided view, as the forward writes it
        out = np.empty((x.size, 2))
        enc._sigmoid(x, out=out[:, 1])
        assert np.array_equal(out[:, 1].copy().view(np.int64), want)

    def test_signed_zeros_and_extremes(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 745.2, -745.2])
        assert np.array_equal(enc._sigmoid(x).view(np.int64), sigmoid_two_branch(x).view(np.int64))


class TestEncodePanel:
    def test_width_mismatch_rejected(self):
        params = enc.init_encoder(np.random.default_rng(0), hidden=4)
        with pytest.raises(ShapeError, match="360"):
            enc.encode_panel(np.zeros((2, 100)), params)

    def test_duplicated_row_gives_identical_embeddings(self):
        rng = np.random.default_rng(5)
        params = enc.init_encoder(rng, hidden=6)
        row = rng.normal(size=(1, enc.FEATURE_WIDTH))
        out = enc.encode_panel(np.vstack([row, row]), params)
        assert np.array_equal(out.data[0], out.data[1])

    def test_zero_features_zero_params_give_zero(self):
        params = enc.EncoderParams(layers=[zero_layer(4, 6), zero_layer(4, 4)])
        out = enc.encode_panel(np.zeros((3, enc.FEATURE_WIDTH)), params)
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        params = enc.init_encoder(rng, hidden=5)
        feats = rng.normal(size=(4, enc.FEATURE_WIDTH))
        perm = np.array([2, 0, 3, 1])
        direct = enc.encode_panel(feats[perm], params)
        permuted = enc.encode_panel(feats, params).data[perm]
        assert np.allclose(direct.data, permuted, atol=1e-14)

    def test_first_step_influences_output(self):
        rng = np.random.default_rng(13)
        params = enc.init_encoder(rng, hidden=5)
        feats = rng.normal(size=(1, enc.FEATURE_WIDTH))
        bumped = feats.copy()
        bumped[0, 0] += 1.0  # field 0 of the oldest step
        a = enc.encode_panel(feats, params).data
        b = enc.encode_panel(bumped, params).data
        # the oldest step's influence decays through 60 gates but must not vanish
        assert np.abs(a - b).max() > 0.0

    def test_two_layer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        hidden = 4
        feats = rng.normal(size=(2, enc.FEATURE_WIDTH)) * 0.3
        shapes = {}
        for li, d_in in enumerate((6, hidden)):
            for gate in ("update", "reset", "cand"):
                shapes[f"l{li}.{gate}_x"] = (hidden, d_in)
                shapes[f"l{li}.{gate}_h"] = (hidden, hidden)
                shapes[f"l{li}.{gate}_bx"] = (hidden,)
                shapes[f"l{li}.{gate}_bh"] = (hidden,)
        values = {k: rng.normal(size=s) * 0.4 for k, s in shapes.items()}

        def run(vals):
            tensors = {k: ad.Tensor(v, requires_grad=True, name=k) for k, v in vals.items()}
            layers = []
            for li in range(2):
                kw = {}
                for gate in ("update", "reset", "cand"):
                    for part in ("x", "h", "bx", "bh"):
                        kw[f"{gate}_{part}"] = tensors[f"l{li}.{gate}_{part}"]
                layers.append(enc.GruLayerParams(**kw))
            out = enc.encode_panel(feats, enc.EncoderParams(layers=layers))
            return ad.reduce_sum(ad.multiply(out, out))

        analytic = ad.backward(run(values))
        numeric = finite_difference(lambda v: run(v).item(), values)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_repeated_backward_is_bitwise_identical(self):
        rng = np.random.default_rng(37)
        params = enc.init_encoder(rng, hidden=5)
        out = enc.encode_panel(rng.normal(size=(4, enc.FEATURE_WIDTH)), params)
        loss = ad.reduce_sum(ad.multiply(out, out))
        first = ad.backward(loss)
        second = ad.backward(loss)
        assert sorted(first) == sorted(t.name for t in params.tensors())
        for name, value in first.items():
            assert np.array_equal(value, second[name]), name


    @pytest.mark.parametrize("batch, hidden", [(20, 16), (7, 33)])
    def test_gradients_match_composed_bptt_oracle(self, batch, hidden):
        rng = np.random.default_rng(batch * 100 + hidden)
        params = enc.init_encoder(rng, hidden=hidden)
        feats = rng.normal(size=(batch, enc.FEATURE_WIDTH))
        g = rng.normal(size=(batch, hidden))
        out = enc.encode_panel(feats, params)
        grads = ad.backward(ad.reduce_sum(ad.multiply(out, ad.Tensor(g))))

        x = feats.reshape(batch, enc.LOOKBACK_DAYS, enc.FIELDS_PER_DAY).transpose(1, 0, 2)
        g_top = np.zeros((enc.LOOKBACK_DAYS, batch, hidden))
        g_top[-1] = g
        want = composed_oracle(x, *(layer_arrays(layer) for layer in params.layers), g_top)
        expected = {f"encoder.l{i}.{name}": value
                    for i, layer_want in enumerate(want) for name, value in layer_want.items()}
        assert sorted(grads) == sorted(expected)
        for name, value in expected.items():
            assert np.max(np.abs(grads[name] - value)) <= 1e-12, name


def encode_with_gradients(feats, params, g, buffers=None):
    """The encoder's output and the 24 gradients of ``sum(g * output)``."""
    out = enc.encode_panel(feats, params, buffers)
    return out.data, ad.backward(ad.reduce_sum(ad.multiply(out, ad.Tensor(g))))


class TestEncoderBuffers:
    @pytest.mark.parametrize("batch, hidden", [(20, 16), (100, 128), (7, 33), (1, 16)])
    def test_bitwise_equal_to_unbuffered(self, batch, hidden):
        rng = np.random.default_rng(batch * 1000 + hidden)
        params = enc.init_encoder(rng, hidden=hidden)
        buffers = enc.EncoderBuffers()
        # the same set again on other features, after filling its saved
        # arrays with nan, and once with another batch size, which needs
        # arrays of another shape: no slot may be read before it is written
        for rows in (batch, batch, batch + 3, batch):
            feats = rng.normal(size=(rows, enc.FEATURE_WIDTH))
            g = rng.normal(size=(rows, hidden))
            want_out, want = encode_with_gradients(feats, params, g)
            out, grads = encode_with_gradients(feats, params, g, buffers)
            assert out.tobytes() == want_out.tobytes()
            assert len(grads) == 24 and sorted(grads) == sorted(want)
            for name, value in want.items():
                assert grads[name].tobytes() == value.tobytes(), name
            for saved in buffers.take(enc.LOOKBACK_DAYS, 2, rows, hidden)[:4]:
                saved.fill(np.nan)

    def test_backward_after_reuse_raises(self):
        rng = np.random.default_rng(41)
        params = enc.init_encoder(rng, hidden=5)
        buffers = enc.EncoderBuffers()
        stale = enc.encode_panel(rng.normal(size=(4, enc.FEATURE_WIDTH)), params, buffers)
        current = enc.encode_panel(rng.normal(size=(4, enc.FEATURE_WIDTH)), params, buffers)
        with pytest.raises(ContractError, match="reused its buffers"):
            ad.backward(ad.reduce_sum(stale))
        assert sorted(ad.backward(ad.reduce_sum(current))) == sorted(
            t.name for t in params.tensors())
        # a forward of another batch size replaces the arrays; the graph
        # before it is retired all the same
        enc.encode_panel(rng.normal(size=(3, enc.FEATURE_WIDTH)), params, buffers)
        with pytest.raises(ContractError, match="reused its buffers"):
            ad.backward(ad.reduce_sum(current))


class TestEncodeRows:
    def test_matches_taped_encoder(self):
        rng = np.random.default_rng(29)
        params = enc.init_encoder(rng, hidden=7)
        feats = rng.normal(size=(9, enc.FEATURE_WIDTH))
        off_tape = enc.encode_rows(feats, params)
        assert isinstance(off_tape, np.ndarray)
        assert np.array_equal(off_tape, enc.encode_panel(feats, params).data)

    @pytest.mark.parametrize("batch, hidden", [(20, 16), (100, 128)])
    def test_bitwise_equal_to_taped_encoder(self, batch, hidden):
        # training and scoring share one forward, so the bits are the same
        rng = np.random.default_rng(batch + hidden)
        params = enc.init_encoder(rng, hidden=hidden)
        feats = rng.normal(size=(batch, enc.FEATURE_WIDTH))
        off_tape = enc.encode_rows(feats, params)
        assert off_tape.tobytes() == enc.encode_panel(feats, params).data.tobytes()

    def test_width_mismatch_rejected(self):
        params = enc.init_encoder(np.random.default_rng(0), hidden=4)
        with pytest.raises(ShapeError, match="360"):
            enc.encode_rows(np.zeros((2, 100)), params)
