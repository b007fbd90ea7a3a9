import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmd import autodiff as ad
from mtmd import memory as mem
from mtmd.errors import ContractError, ShapeError

from oracles import finite_difference, max_rel_error


class TestInitBank:
    def test_rows_unit_norm(self):
        bank = mem.init_bank(16, 8, seed=0)
        assert np.allclose(np.linalg.norm(bank.items, axis=1), 1.0, atol=1e-9)

    def test_deterministic_per_seed(self):
        a = mem.init_bank(8, 8, seed=42)
        b = mem.init_bank(8, 8, seed=42)
        assert np.array_equal(a.items, b.items)
        c = mem.init_bank(8, 8, seed=43)
        assert not np.array_equal(a.items, c.items)

    def test_default_paper_scale_shape(self):
        bank = mem.init_bank(64, 64, seed=1)
        assert bank.items.shape == (64, 64)

    def test_bad_dims_rejected(self):
        with pytest.raises(ContractError):
            mem.init_bank(0, 4, seed=0)


class TestGlobalAggregate:
    def test_single_stock_single_item(self):
        item = np.array([[0.6, 0.8]])
        query = np.array([[2.0, -1.0]])
        state = mem.global_aggregate(ad.Tensor(query), ad.Tensor(item))
        assert np.allclose(state.match_probs.data, [[1.0]], atol=1e-15)
        assert np.allclose(state.refined.data, query * item, atol=1e-15)

    def test_identical_queries_split_columns_evenly(self):
        rng = np.random.default_rng(0)
        bank = mem.init_bank(3, 4, seed=5)
        row = rng.normal(size=4)
        queries = ad.Tensor(np.vstack([row, row]))
        state = mem.global_aggregate(queries, ad.Tensor(bank.items))
        assert np.allclose(state.match_probs.data, 0.5, atol=1e-12)
        retrieved = 0.5 * bank.items.sum(axis=0)
        assert np.allclose(state.refined.data[0], row * retrieved, atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        state = mem.global_aggregate(ad.Tensor(rng.normal(size=(7, 5))),
                                     ad.Tensor(mem.init_bank(4, 5, seed=2).items))
        assert np.allclose(state.match_probs.data.sum(axis=0), 1.0, atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mem.global_aggregate(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))

    def test_stock_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        queries = rng.normal(size=(5, 4))
        bank = mem.init_bank(3, 4, seed=9)
        perm = np.array([3, 1, 4, 0, 2])
        base = mem.global_aggregate(ad.Tensor(queries), ad.Tensor(bank.items))
        shuffled = mem.global_aggregate(ad.Tensor(queries[perm]), ad.Tensor(bank.items))
        assert np.allclose(base.refined.data[perm], shuffled.refined.data, atol=1e-12)
        assert np.allclose(base.match_probs.data[perm], shuffled.match_probs.data, atol=1e-12)

    def test_gradients_wrt_queries_and_bank(self):
        rng = np.random.default_rng(3)
        values = {"q": rng.normal(size=(4, 3)), "bank": rng.normal(size=(2, 3))}

        def run(vals):
            q = ad.Tensor(vals["q"], requires_grad=True, name="q")
            b = ad.Tensor(vals["bank"], requires_grad=True, name="bank")
            state = mem.global_aggregate(q, b)
            return ad.reduce_sum(ad.multiply(state.refined, state.refined))

        analytic = ad.backward(run(values))
        numeric = finite_difference(lambda v: run(v).item(), values)
        assert max_rel_error(analytic, numeric) < 1e-4


class TestMemorize:
    def test_collinear_update_is_fixed_point(self):
        bank = mem.MemoryBank(items=np.array([[1.0, 0.0]]))
        mem.memorize(np.array([[1.0, 0.0]]), np.array([[1.0]]), bank)
        assert np.allclose(bank.items, [[1.0, 0.0]], atol=1e-15)

    def test_orthogonal_update(self):
        bank = mem.MemoryBank(items=np.array([[1.0, 0.0]]))
        mem.memorize(np.array([[0.0, 1.0]]), np.array([[1.0]]), bank)
        # strength is 1 in the single-item case, so the row becomes L2([1, 1])
        assert np.allclose(bank.items, [[1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-12)

    def test_fewer_stocks_than_items_leaves_tail_untouched(self):
        bank = mem.init_bank(2, 3, seed=4)
        tail = bank.items[1].copy()
        queries = np.random.default_rng(5).normal(size=(1, 3))
        state = mem.global_aggregate(ad.Tensor(queries), ad.Tensor(bank.items))
        mem.memorize(queries, state.match_probs.data, bank)
        assert np.array_equal(bank.items[1], tail)

    def test_strength_range(self):
        rng = np.random.default_rng(6)
        v = ad.softmax(ad.Tensor(rng.normal(size=(5, 4))), axis=0).data
        renormed = v / v.max(axis=1, keepdims=True)
        strength = renormed.sum(axis=1)
        assert np.all(renormed.max(axis=1) == 1.0)
        assert np.all((strength >= 1.0) & (strength <= 4.0))

    def test_rank_ties_break_by_stock_index(self):
        bank = mem.MemoryBank(items=np.array([[1.0, 0.0], [0.0, 1.0]]))
        queries = np.array([[0.0, 2.0], [2.0, 0.0]])
        v = np.array([[0.5, 0.5], [0.5, 0.5]])  # equal strengths
        mem.memorize(queries, v, bank)
        # stock 0 must update row 0, stock 1 row 1
        assert np.allclose(bank.items[0], np.array([1.0, 4.0]) / np.sqrt(17), atol=1e-12)
        assert np.allclose(bank.items[1], np.array([4.0, 1.0]) / np.sqrt(17), atol=1e-12)

    def test_zero_update_keeps_previous_row(self):
        bank = mem.MemoryBank(items=np.array([[1.0, 0.0]]))
        # strength 1 with query exactly cancelling the row
        mem.memorize(np.array([[-1.0, 0.0]]), np.array([[1.0]]), bank)
        assert np.array_equal(bank.items, [[1.0, 0.0]])

    def test_stock_permutation_leaves_bank_unchanged(self):
        # generic strengths have no ties, so ranking is permutation-free
        rng = np.random.default_rng(7)
        queries = rng.normal(size=(6, 4))
        perm = np.array([4, 0, 5, 2, 1, 3])
        banks = [mem.init_bank(3, 4, seed=11) for _ in range(2)]
        for bank, q in zip(banks, (queries, queries[perm])):
            state = mem.global_aggregate(ad.Tensor(q), ad.Tensor(bank.items))
            mem.memorize(q, state.match_probs.data, bank)
        # equal up to summation order inside the shared softmax denominator
        assert np.allclose(banks[0].items, banks[1].items, atol=1e-12)

    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_row_norms_stay_unit(self, n_stocks, n_items, seed):
        rng = np.random.default_rng(seed)
        bank = mem.init_bank(n_items, 5, seed=seed)
        for _ in range(3):
            queries = rng.normal(size=(n_stocks, 5))
            state = mem.global_aggregate(ad.Tensor(queries), ad.Tensor(bank.items))
            mem.memorize(queries, state.match_probs.data, bank)
        norms = np.linalg.norm(bank.items, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 10_000),
           st.sampled_from([1.0, 1e3]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_degenerate_probability_rows_keep_rows_finite_unit(self, n_stocks, n_items, seed,
                                                               scale, data):
        # scale 1e3 drives real softmax underflow; drawn rows are zeroed outright
        rng = np.random.default_rng(seed)
        bank = mem.init_bank(n_items, 5, seed=seed)
        queries = rng.normal(size=(n_stocks, 5)) * scale
        probs = mem.global_aggregate(ad.Tensor(queries), ad.Tensor(bank.items)).match_probs.data
        zeroed = data.draw(st.lists(st.booleans(), min_size=n_stocks, max_size=n_stocks))
        probs = np.where(np.array(zeroed)[:, None], 0.0, probs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mem.memorize(queries, probs, bank)
        assert np.all(np.isfinite(bank.items))
        assert np.allclose(np.linalg.norm(bank.items, axis=1), 1.0, atol=1e-9)
