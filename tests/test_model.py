import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtmd import autodiff as ad
from mtmd import model as mm
from mtmd.data import DateSlice, SyntheticSpec, generate_synthetic, normalize_labels_per_date
from mtmd.encoder import encode_rows
from mtmd.errors import ContractError, DataError, NumericError, ShapeError, UsageError

from oracles import finite_difference, max_rel_error


def tiny_slice(rng, n_stocks=6, date="2020-01-01"):
    raw = rng.normal(scale=0.02, size=n_stocks)
    return DateSlice(
        date=date,
        stock_ids=[f"S{i}" for i in range(n_stocks)],
        features=rng.normal(scale=0.05, size=(n_stocks, 360)),
        market_caps=rng.lognormal(size=n_stocks),
        prices=np.full(n_stocks, 100.0),
        raw_labels=raw,
        labels=normalize_labels_per_date(raw),
    )


def tiny_mask(rng, n_stocks=6, n_concepts=3):
    mask = rng.random((n_stocks, n_concepts)) < 0.5
    mask[0, 0] = True
    return mask


def build(config, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    params = mm.init_parameters(config)
    banks = mm.init_banks(config)
    return rng, params, banks


SMALL = mm.ModelConfig(embed_width=4, memory_items=4, seed=3)


class TestMseLoss:
    def test_perfect_prediction(self):
        p = ad.Tensor([0.1, -0.2, 0.3])
        assert mm.mse_loss(p, np.array([0.1, -0.2, 0.3])).item() == 0.0

    def test_hand_value(self):
        assert mm.mse_loss(ad.Tensor([1.0, 0.0]), np.array([0.0, 0.0])).item() == pytest.approx(0.5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=8)
        t = rng.normal(size=8)
        perm = rng.permutation(8)
        a = mm.mse_loss(ad.Tensor(p), t).item()
        b = mm.mse_loss(ad.Tensor(p[perm]), t[perm]).item()
        assert a == pytest.approx(b, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mm.mse_loss(ad.Tensor([1.0]), np.array([1.0, 2.0]))


class TestConfig:
    def test_ablation_codes_roundtrip(self):
        for code in "BPHA":
            cfg = SMALL.with_ablation(code)
            assert (cfg.memory_predefined, cfg.memory_hidden) == mm.ABLATION_CODES[code]

    def test_unknown_code_rejected(self):
        with pytest.raises(ContractError):
            SMALL.with_ablation("X")

    def test_dict_roundtrip(self):
        cfg = mm.ModelConfig(embed_width=8, memory_items=2, seed=9, memory_hidden=False)
        assert mm.ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="embed_widht"):
            mm.ModelConfig.from_dict({"embed_widht": 8})


class TestForward:
    def test_residual_identities(self):
        rng, params, banks = build(SMALL)
        trace = mm.forward(tiny_slice(rng), tiny_mask(rng), params, banks, SMALL, mode="eval")
        h1 = trace.predefined.inputs.data
        h2 = trace.hidden.inputs.data
        h3 = trace.individual.inputs.data
        assert np.max(np.abs(h1 - (h2 + trace.predefined.refined.data))) <= 1e-12
        assert np.max(np.abs(h2 - (h3 + trace.hidden.refined.data))) <= 1e-12

    def test_baseline_refined_equals_local(self):
        config = SMALL.with_ablation("B")
        rng, params, banks = build(config)
        trace = mm.forward(tiny_slice(rng), tiny_mask(rng), params, banks, config, mode="eval")
        assert trace.predefined.refined is trace.predefined.local
        assert trace.hidden.refined is trace.hidden.local
        assert trace.predefined.retrieval is None

    def test_baseline_independent_of_bank_contents(self):
        config = SMALL.with_ablation("B")
        rng, params, banks = build(config)
        s, mask = tiny_slice(rng), tiny_mask(rng)
        before = mm.predict(s, mask, params, banks, config)
        banks["predefined"].items[:] = 0.123
        banks["hidden"].items[:] = -0.5
        after = mm.predict(s, mask, params, banks, config)
        assert np.array_equal(before, after)

    def test_zero_params_predict_output_bias(self):
        config = mm.ModelConfig(embed_width=4, memory_items=2, seed=0)
        params = mm.init_parameters(config)
        for t in params.named().values():
            t.data[:] = 0.0
        params.output.bias.data[:] = 0.7
        banks = mm.init_banks(config)
        rng = np.random.default_rng(1)
        out = mm.predict(tiny_slice(rng, n_stocks=1), np.array([[True]]), params, banks, config)
        assert np.allclose(out, [0.7], atol=1e-15)

    def test_precomputed_encoding_matches_taped_encoder(self):
        rng, params, banks = build(SMALL)
        s, mask = tiny_slice(rng), tiny_mask(rng)
        taped = mm.forward(s, mask, params, banks, SMALL, mode="eval")
        given = mm.forward(s, mask, params, banks, SMALL, mode="eval",
                           encoded=encode_rows(s.features, params.encoder))
        assert np.max(np.abs(given.predictions.data - taped.predictions.data)) <= 1e-12
        assert not given.predefined.inputs.requires_grad

    def test_precomputed_encoding_checked(self):
        rng, params, banks = build(SMALL)
        s, mask = tiny_slice(rng), tiny_mask(rng)
        with pytest.raises(ShapeError, match="precomputed"):
            mm.forward(s, mask, params, banks, SMALL, mode="eval", encoded=np.zeros((6, 5)))
        with pytest.raises(NumericError, match="non-finite"):
            mm.forward(s, mask, params, banks, SMALL, mode="eval", encoded=np.full((6, 4), np.nan))

    def test_eval_mode_is_pure(self):
        rng, params, banks = build(SMALL)
        s, mask = tiny_slice(rng), tiny_mask(rng)
        items_before = {k: b.items.copy() for k, b in banks.items()}
        a = mm.predict(s, mask, params, banks, SMALL)
        b = mm.predict(s, mask, params, banks, SMALL)
        assert np.array_equal(a, b)
        for k, b_ in banks.items():
            assert np.array_equal(b_.items, items_before[k])

    def test_train_mode_writes_banks(self):
        rng, params, banks = build(SMALL)
        s, mask = tiny_slice(rng), tiny_mask(rng)
        before = banks["predefined"].items.copy()
        mm.forward(s, mask, params, banks, SMALL, mode="train")
        assert not np.array_equal(banks["predefined"].items, before)

    def test_eval_changes_after_training_write(self):
        rng, params, banks = build(SMALL)
        s, mask = tiny_slice(rng), tiny_mask(rng)
        before = mm.predict(s, mask, params, banks, SMALL)
        mm.forward(s, mask, params, banks, SMALL, mode="train")
        after = mm.predict(s, mask, params, banks, SMALL)
        assert not np.array_equal(before, after)

    def test_memory_configs_differ_generically(self):
        rng = np.random.default_rng(8)
        s, mask = tiny_slice(rng), tiny_mask(rng)
        config_a = SMALL.with_ablation("A")
        config_b = SMALL.with_ablation("B")
        params = mm.init_parameters(config_a)
        banks = mm.init_banks(config_a)
        pa = mm.predict(s, mask, params, banks, config_a)
        pb = mm.predict(s, mask, params, banks, config_b)
        assert not np.allclose(pa, pb)

    def test_no_concepts_rejected(self):
        rng, params, banks = build(SMALL)
        with pytest.raises(ContractError, match="concept"):
            mm.forward(tiny_slice(rng), np.zeros((6, 0), dtype=bool), params, banks, SMALL)

    def test_concept_capacity_checked(self):
        config = mm.ModelConfig(embed_width=4, memory_items=2, concept_capacity=5, seed=0)
        rng, params, banks = build(config)
        with pytest.raises(DataError, match="config expects 5"):
            mm.forward(tiny_slice(rng), tiny_mask(rng), params, banks, config)

    def test_residual_fuzz_on_synthetic_market(self):
        spec = SyntheticSpec(n_stocks=5, n_concepts=3, n_dates=75, seed=21)
        panel, graph, _ = generate_synthetic(spec)
        config = mm.ModelConfig(embed_width=4, memory_items=3, seed=1)
        params = mm.init_parameters(config)
        banks = mm.init_banks(config)
        for s in panel.usable_slices:
            mask = graph.mask_for(s.date, s.stock_ids)
            trace = mm.forward(s, mask, params, banks, config, mode="train")
            h1, h2 = trace.predefined.inputs.data, trace.hidden.inputs.data
            h3 = trace.individual.inputs.data
            assert np.max(np.abs(h1 - (h2 + trace.predefined.refined.data))) <= 1e-12
            assert np.max(np.abs(h2 - (h3 + trace.hidden.refined.data))) <= 1e-12


@st.composite
def dates_and_masks(draw):
    """A one- to six-stock date and a random concept mask; empty concepts,
    stocks with no links and an all-empty mask all occur."""
    n_stocks = draw(st.integers(1, 6))
    n_concepts = draw(st.integers(1, 4))
    cells = draw(st.lists(st.booleans(), min_size=n_stocks * n_concepts,
                          max_size=n_stocks * n_concepts))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return tiny_slice(rng, n_stocks), np.array(cells, dtype=bool).reshape(n_stocks, n_concepts)


class TestForwardProperties:
    @given(dates_and_masks(), st.sampled_from("BPHA"))
    @settings(max_examples=60, deadline=None)
    def test_residual_identities(self, date_and_mask, code):
        s, mask = date_and_mask
        assume(mask.any())
        config = SMALL.with_ablation(code)
        _, params, banks = build(config)
        trace = mm.forward(s, mask, params, banks, config, mode="train")
        h1, h2 = trace.predefined.inputs.data, trace.hidden.inputs.data
        h3 = trace.individual.inputs.data
        assert np.max(np.abs(h1 - (h2 + trace.predefined.refined.data))) <= 1e-12
        assert np.max(np.abs(h2 - (h3 + trace.hidden.refined.data))) <= 1e-12

    @given(dates_and_masks(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_baseline_independent_of_bank_contents(self, date_and_mask, bank_seed):
        s, mask = date_and_mask
        assume(mask.any())
        config = SMALL.with_ablation("B")
        _, params, banks = build(config)
        before = mm.predict(s, mask, params, banks, config)
        rng = np.random.default_rng(bank_seed)
        for bank in banks.values():
            bank.items[:] = rng.normal(scale=10.0, size=bank.items.shape)
        assert np.array_equal(mm.predict(s, mask, params, banks, config), before)

    @given(dates_and_masks(), st.sampled_from("PHA"))
    @settings(max_examples=60, deadline=None)
    def test_eval_mode_leaves_banks_unchanged(self, date_and_mask, code):
        s, mask = date_and_mask
        assume(mask.any())
        config = SMALL.with_ablation(code)
        _, params, banks = build(config)
        before = {k: b.items.copy() for k, b in banks.items()}
        mm.forward(s, mask, params, banks, config, mode="eval")
        for k, bank in banks.items():
            assert np.array_equal(bank.items, before[k])

    @given(dates_and_masks(), st.sampled_from(["train", "eval"]))
    @settings(max_examples=30, deadline=None)
    def test_all_empty_mask_is_data_error(self, date_and_mask, mode):
        s, mask = date_and_mask
        _, params, banks = build(SMALL)
        with pytest.raises(DataError, match=s.date):
            mm.forward(s, np.zeros_like(mask), params, banks, SMALL, mode=mode)


class TestEndToEndGradients:
    def test_all_parameters_match_finite_differences(self):
        config = mm.ModelConfig(embed_width=4, memory_items=4, seed=7)
        params = mm.init_parameters(config)
        banks = mm.init_banks(config)
        rng = np.random.default_rng(17)
        s = tiny_slice(rng, n_stocks=6)
        mask = tiny_mask(rng, n_stocks=6, n_concepts=3)
        values = {name: t.data.copy() for name, t in params.named().items()}

        def run(vals):
            fresh = mm.init_parameters(config)
            for name, t in fresh.named().items():
                t.data[:] = vals[name]
            trace = mm.forward(s, mask, fresh, banks, config, mode="eval")
            return mm.mse_loss(trace.predictions, s.labels)

        analytic = ad.backward(run(values))
        assert set(analytic) == set(values)
        numeric = finite_difference(lambda v: run(v).item(), values)
        err = max_rel_error(analytic, numeric)
        assert err < 1e-4, f"end-to-end gradient error {err:.3e}"
