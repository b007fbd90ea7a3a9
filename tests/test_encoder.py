from dataclasses import fields

import numpy as np
import pytest

from mtmd import autodiff as ad
from mtmd import encoder as enc
from mtmd.errors import ShapeError

from oracles import finite_difference, gru_bptt, gru_step, max_rel_error


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


def one_step(x: np.ndarray, h: np.ndarray, layer: enc.GruLayerParams) -> np.ndarray:
    """The encoder's forward step from input rows ``x`` and state ``h``."""
    w_x, b_x, u_zr, uc, bch = enc._forward_weights(layer)
    return enc._gru_step(h, x @ w_x.T + b_x, u_zr, uc, bch)[0]


class TestGruCell:
    """A single recurrence step from a given state."""

    def test_zero_params_zero_state_gives_zero(self):
        layer = zero_layer(4, 3)
        out = one_step(np.array([[1.0, -2.0, 3.0]]), np.zeros((1, 4)), layer)
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_saturated_update_gate_copies_state(self):
        layer = zero_layer(4, 3)
        layer.update_bx = ad.Tensor(np.full(4, 50.0))
        h = np.array([[0.3, -0.7, 1.1, 0.0]])
        out = one_step(np.array([[1.0, 2.0, 3.0]]), h, layer)
        assert np.allclose(out, h, atol=1e-12)

    def test_matches_fused_sequence(self):
        rng = np.random.default_rng(3)
        layer = enc.init_gru_layer(rng, 5, 3, "l")
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 5))
        expected = gru_step(x, h, layer_arrays(layer))
        assert np.max(np.abs(one_step(x, h, layer) - expected)) <= 1e-13


def layer_gradients(x: np.ndarray, layer: enc.GruLayerParams, g: np.ndarray,
                    input_grad: bool = True) -> dict[str, np.ndarray]:
    """Gradients of ``sum(g * states)`` over one layer run from a zero state,
    keyed like :func:`oracles.gru_bptt` (``h0`` aside)."""
    states, gates = enc.layer_forward(x, layer)
    gx, grads = enc.layer_backward(x, states, gates, g, layer, input_grad)
    out = {f.name: grad for f, grad in zip(fields(layer), grads)}
    if gx is not None:
        out["x"] = gx
    return out


class TestGruSequence:
    """One recurrence layer over a sequence: layer_forward and layer_backward."""

    def test_fused_matches_stepwise_cells(self):
        rng = np.random.default_rng(7)
        layer = enc.init_gru_layer(rng, 4, 2, "l")
        x = rng.normal(size=(6, 3, 2))
        h = np.zeros((3, 4))
        states, _ = enc.layer_forward(x, layer)
        assert np.array_equal(states[0], h)
        weights = layer_arrays(layer)
        for t in range(6):
            h = gru_step(x[t], h, weights)
            assert np.max(np.abs(states[t + 1] - h)) <= 1e-13

    def test_fused_gradients_match_finite_differences(self):
        rng = np.random.default_rng(19)
        weights = {n: rng.normal(size=s) * 0.4 for n, s in [
            ("update_x", (3, 2)), ("update_h", (3, 3)), ("update_bx", (3,)), ("update_bh", (3,)),
            ("reset_x", (3, 2)), ("reset_h", (3, 3)), ("reset_bx", (3,)), ("reset_bh", (3,)),
            ("cand_x", (3, 2)), ("cand_h", (3, 3)), ("cand_bx", (3,)), ("cand_bh", (3,)),
        ]}
        values = dict(weights, x=rng.normal(size=(5, 2, 2)))

        def states_of(vals):
            layer = enc.GruLayerParams(**{k: ad.Tensor(vals[k]) for k in weights})
            return enc.layer_forward(vals["x"], layer)[0][1:], layer

        out, layer = states_of(values)
        # d sum(out * out) / d out = 2 out
        analytic = layer_gradients(values["x"], layer, 2.0 * out)
        numeric = finite_difference(lambda v: float(np.sum(states_of(v)[0] ** 2)), values)
        assert max_rel_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("steps, batch, hidden, d_in", [
        (60, 20, 16, 6), (5, 1, 16, 6), (4, 7, 33, 9), (6, 30, 8, 8), (3, 2, 1, 1)])
    def test_gradients_match_bptt_oracle(self, steps, batch, hidden, d_in):
        rng = np.random.default_rng(steps * 1000 + hidden)
        layer = enc.init_gru_layer(rng, hidden, d_in, "l")
        x = rng.normal(size=(steps, batch, d_in))
        g = rng.normal(size=(steps, batch, hidden))
        grads = layer_gradients(x, layer, g)
        expected = gru_bptt(x, np.zeros((batch, hidden)), layer_arrays(layer), g)
        del expected["h0"]
        assert sorted(grads) == sorted(expected)
        for name, want in expected.items():
            assert np.max(np.abs(grads[name] - want)) <= 1e-12, name

    def test_weight_gradients_do_not_depend_on_input_needing_one(self):
        rng = np.random.default_rng(31)
        layer = enc.init_gru_layer(rng, 7, 5, "l")
        x = rng.normal(size=(8, 6, 5))
        g = rng.normal(size=(8, 6, 7))
        with_x = layer_gradients(x, layer, g, input_grad=True)
        without_x = layer_gradients(x, layer, g, input_grad=False)
        assert "x" in with_x and "x" not in without_x
        assert sorted(without_x) == sorted(k for k in with_x if k != "x")
        for name, value in without_x.items():
            assert np.array_equal(value, with_x[name]), name

    def test_shape_validation(self):
        layer = zero_layer(4, 2)
        with pytest.raises(ShapeError):
            enc.layer_forward(np.zeros((3, 2)), layer)
        with pytest.raises(ShapeError):
            enc.layer_forward(np.zeros((3, 2, 3)), layer)


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

        # the oracle: the bottom layer's states from gru_step, then BPTT of
        # the top layer with the gradient at its last step only, then of the
        # bottom layer with the top layer's input gradient
        bottom, top = (layer_arrays(layer) for layer in params.layers)
        x = feats.reshape(batch, enc.LOOKBACK_DAYS, enc.FIELDS_PER_DAY).transpose(1, 0, 2)
        h, bottom_states = np.zeros((batch, hidden)), []
        for x_t in x:
            h = gru_step(x_t, h, bottom)
            bottom_states.append(h)
        g_top = np.zeros((enc.LOOKBACK_DAYS, batch, hidden))
        g_top[-1] = g
        want_top = gru_bptt(np.array(bottom_states), np.zeros((batch, hidden)), top, g_top)
        want_bottom = gru_bptt(x, np.zeros((batch, hidden)), bottom, want_top["x"])
        expected = {f"encoder.l{i}.{name}": want[name]
                    for i, want in enumerate((want_bottom, want_top)) for name in bottom}
        assert sorted(grads) == sorted(expected)
        for name, want in expected.items():
            assert np.max(np.abs(grads[name] - want)) <= 1e-12, name


class TestEncodeRows:
    def test_matches_taped_encoder(self):
        rng = np.random.default_rng(29)
        params = enc.init_encoder(rng, hidden=7)
        feats = rng.normal(size=(9, enc.FEATURE_WIDTH))
        off_tape = enc.encode_rows(feats, params)
        assert isinstance(off_tape, np.ndarray)
        assert np.max(np.abs(off_tape - enc.encode_panel(feats, params).data)) <= 1e-12

    def test_width_mismatch_rejected(self):
        params = enc.init_encoder(np.random.default_rng(0), hidden=4)
        with pytest.raises(ShapeError, match="360"):
            enc.encode_rows(np.zeros((2, 100)), params)
