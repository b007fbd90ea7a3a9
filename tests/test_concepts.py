import numpy as np
import pytest

from mtmd import autodiff as ad
from mtmd import concepts as cc
from mtmd.errors import ContractError

from oracles import finite_difference, max_rel_error


def identity_map(width):
    return cc.LinearMap(weight=ad.Tensor(np.eye(width)), bias=ad.Tensor(np.zeros(width)))


def leaky(x, slope=0.01):
    return np.where(x >= 0, x, slope * x)


class TestInitPredefined:
    def test_single_member_copies_stock(self):
        h = ad.Tensor([[0.3, -0.2], [5.0, 5.0]])
        mask = np.array([[True], [False]])
        emb, empty = cc.init_predefined(h, mask, np.array([2.0, 7.0]))
        assert np.allclose(emb.data, [[0.3, -0.2]], atol=1e-15)
        assert not empty[0]

    def test_cap_weighted_average(self):
        h = ad.Tensor([[1.0, 0.0], [0.0, 1.0]])
        mask = np.array([[True], [True]])
        emb, _ = cc.init_predefined(h, mask, np.array([1.0, 3.0]))
        assert np.allclose(emb.data, [[0.25, 0.75]], atol=1e-15)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        mask = rng.random((6, 4)) < 0.5
        mask[:, 0] = True  # ensure one non-empty concept
        caps = rng.lognormal(size=6)
        weighted = mask * caps[:, None]
        totals = weighted.sum(axis=0)
        weights = weighted / np.where(totals == 0, 1.0, totals)
        sums = weights.sum(axis=0)
        assert np.allclose(sums[totals > 0], 1.0, atol=1e-12)

    def test_empty_concept_flagged_and_zero(self):
        h = ad.Tensor([[1.0, 2.0]])
        emb, empty = cc.init_predefined(h, np.array([[False, True]]), np.array([1.0]))
        assert empty.tolist() == [True, False]
        assert np.array_equal(emb.data[0], [0.0, 0.0])

    def test_non_positive_caps_rejected(self):
        with pytest.raises(ContractError, match="positive"):
            cc.init_predefined(ad.Tensor([[1.0]]), np.array([[True]]), np.array([0.0]))


class TestCorrectPredefined:
    def test_single_stock_softmax_is_one(self):
        rng = np.random.default_rng(2)
        h = ad.Tensor(rng.normal(size=(1, 3)))
        e0 = ad.Tensor(rng.normal(size=(2, 3)))
        fc = cc.init_linear(rng, 3, 3, "corr")
        out = cc.correct_predefined(h, e0, fc)
        expected = leaky(h.data @ fc.weight.data.T + fc.bias.data)
        assert np.allclose(out.data, np.vstack([expected, expected]), atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        h = ad.Tensor(rng.normal(size=(5, 4)))
        e0 = ad.Tensor(rng.normal(size=(3, 4)))
        weights = ad.softmax(ad.cosine_matrix(h, e0), axis=0).data
        assert np.allclose(weights.sum(axis=0), 1.0, atol=1e-12)

    def test_identity_map_two_identical_stocks(self):
        h_row = np.array([0.5, 1.5])
        h = ad.Tensor(np.vstack([h_row, h_row]))
        e0 = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = cc.correct_predefined(h, e0, identity_map(2))
        assert np.allclose(out.data, np.vstack([leaky(h_row), leaky(h_row)]), atol=1e-12)


class TestAssignHidden:
    def test_unlinked_argmax_joins(self):
        residual = ad.Tensor([[1.0, 0.0]])
        concepts = ad.Tensor([[0.0, 1.0], [1.0, 0.1]])
        pre = np.array([[False, False]])
        _, links, membership = cc.assign_hidden(residual, concepts, pre)
        assert links.tolist() == [[False, True]]
        assert membership.tolist() == [[False, True]]

    def test_predefined_pair_pruned(self):
        residual = ad.Tensor([[1.0, 0.0]])
        concepts = ad.Tensor([[0.0, 1.0], [1.0, 0.1]])
        pre = np.array([[False, True]])
        _, links, membership = cc.assign_hidden(residual, concepts, pre)
        assert links.tolist() == [[False, True]]
        assert membership.tolist() == [[False, False]]

    def test_tie_takes_lowest_index(self):
        residual = ad.Tensor([[1.0, 1.0]])
        concepts = ad.Tensor([[2.0, 2.0], [0.0, 1.0], [1.0, 1.0]])
        _, links, _ = cc.assign_hidden(residual, concepts, np.zeros((1, 3), dtype=bool))
        assert links.tolist() == [[True, False, False]]

    def test_scale_invariance_of_assignment(self):
        rng = np.random.default_rng(4)
        residual = rng.normal(size=(5, 3))
        concepts = ad.Tensor(rng.normal(size=(4, 3)))
        pre = np.zeros((5, 4), dtype=bool)
        _, base, _ = cc.assign_hidden(ad.Tensor(residual), concepts, pre)
        scaled = residual.copy()
        scaled[2] *= 37.0
        _, after, _ = cc.assign_hidden(ad.Tensor(scaled), concepts, pre)
        assert np.array_equal(base, after)

    def test_exactly_one_assignment_before_pruning(self):
        rng = np.random.default_rng(5)
        residual = ad.Tensor(rng.normal(size=(6, 3)))
        concepts = ad.Tensor(rng.normal(size=(4, 3)))
        pre = rng.random((6, 4)) < 0.4
        _, links, membership = cc.assign_hidden(residual, concepts, pre)
        assert links.sum(axis=1).tolist() == [1] * 6
        # pruned membership is the pre-pruning assignment less the predefined pairs
        assert np.array_equal(membership, links & ~pre)


class TestHiddenEmbeddings:
    def test_single_parallel_member(self):
        residual = ad.Tensor([[2.0, 0.0]])
        concepts = ad.Tensor([[1.0, 0.0]])
        scores, _, membership = cc.assign_hidden(residual, concepts, np.zeros((1, 1), dtype=bool))
        assert scores.data[0, 0] == pytest.approx(1.0)
        rng = np.random.default_rng(6)
        fc = cc.init_linear(rng, 2, 2, "hid")
        out = cc.hidden_embeddings(residual, scores, membership, fc)
        expected = leaky(residual.data @ fc.weight.data.T + fc.bias.data)
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_empty_concept_reduces_to_bias(self):
        residual = ad.Tensor([[1.0, 1.0]])
        concepts = ad.Tensor([[1.0, 1.0], [1.0, 0.9]])
        scores, _, membership = cc.assign_hidden(residual, concepts, np.zeros((1, 2), dtype=bool))
        fc = cc.LinearMap(weight=ad.Tensor(np.eye(2)), bias=ad.Tensor(np.array([0.3, -0.4])))
        out = cc.hidden_embeddings(residual, scores, membership, fc)
        assert np.allclose(out.data[1], leaky(np.array([0.3, -0.4])), atol=1e-15)

    def test_two_equal_weight_members(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        residual = ad.Tensor(np.vstack([a, b]))
        concepts = ad.Tensor([[1.0, 1.0]])
        scores, _, membership = cc.assign_hidden(residual, concepts, np.zeros((2, 1), dtype=bool))
        w = scores.data[0, 0]
        out = cc.hidden_embeddings(residual, scores, membership, identity_map(2))
        assert np.allclose(out.data[0], leaky(w * (a + b)), atol=1e-12)


class TestLocalAggregate:
    def test_singleton_link(self):
        stock = ad.Tensor([[0.7, -0.1]])
        concepts = ad.Tensor([[1.0, 2.0], [-1.0, 0.5]])
        mask = np.array([[False, True]])
        rng = np.random.default_rng(7)
        fc = cc.init_linear(rng, 2, 2, "loc")
        out, importance = cc.local_aggregate(stock, concepts, mask, fc)
        assert importance.data[0].tolist() == [0.0, 1.0]
        expected = leaky(concepts.data[1] @ fc.weight.data.T + fc.bias.data)
        assert np.allclose(out.data[0], expected, atol=1e-12)

    def test_importance_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        stock = ad.Tensor(rng.normal(size=(6, 4)))
        concepts = ad.Tensor(rng.normal(size=(5, 4)))
        mask = rng.random((6, 5)) < 0.5
        mask[:, 2] = True
        _, importance = cc.local_aggregate(stock, concepts, mask, identity_map(4))
        assert np.allclose(importance.data.sum(axis=1), 1.0, atol=1e-12)

    def test_two_equal_links_average(self):
        stock = ad.Tensor([[1.0, 1.0]])
        e_a, e_b = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        concepts = ad.Tensor(np.vstack([e_a, e_b]))
        out, _ = cc.local_aggregate(stock, concepts, np.array([[True, True]]), identity_map(2))
        assert np.allclose(out.data[0], leaky(0.5 * (e_a + e_b)), atol=1e-12)

    def test_empty_link_set_rejected(self):
        stock = ad.Tensor([[1.0, 1.0], [2.0, 2.0]])
        concepts = ad.Tensor([[1.0, 0.0]])
        with pytest.raises(ContractError, match="stock index 1"):
            cc.local_aggregate(stock, concepts, np.array([[True], [False]]), identity_map(2))


class TestIndividualFeatures:
    def test_identity_on_nonnegative(self):
        h = ad.Tensor([[0.2, 0.0], [1.5, 3.0]])
        out = cc.individual_features(h, identity_map(2))
        assert np.array_equal(out.data, h.data)

    def test_zero_input_gives_bias(self):
        fc = cc.LinearMap(weight=ad.Tensor(np.eye(2)), bias=ad.Tensor(np.array([0.5, -0.5])))
        out = cc.individual_features(ad.Tensor(np.zeros((1, 2))), fc)
        assert np.allclose(out.data, [leaky(np.array([0.5, -0.5]))], atol=1e-15)

    def test_doubling_map(self):
        # slope 0.01 applied to the pre-activation -2
        fc = cc.LinearMap(weight=ad.Tensor(2.0 * np.eye(2)), bias=ad.Tensor(np.zeros(2)))
        out = cc.individual_features(ad.Tensor([[1.0, -1.0]]), fc)
        assert np.allclose(out.data, [[2.0, -0.02]], atol=1e-15)


class TestLinkSets:
    def test_fallback_to_all_nonempty_concepts(self):
        member = np.array([[True, False, False], [False, False, False]])
        empty = np.array([False, False, True])
        links = cc.predefined_link_sets(member, empty)
        assert links.tolist() == [[True, False, False], [True, True, False]]

    def test_linked_stocks_keep_links(self):
        member = np.array([[True, True]])
        links = cc.predefined_link_sets(member, np.array([False, False]))
        assert links.tolist() == [[True, True]]


class TestGradients:
    def test_stage_pipeline_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        n_s, n_c, width = 4, 3, 4
        member = rng.random((n_s, n_c)) < 0.5
        member[0, 0] = True
        caps = rng.lognormal(size=n_s)
        values = {
            "h": rng.normal(size=(n_s, width)),
            "corr_w": rng.normal(size=(width, width)) * 0.5,
            "corr_b": rng.normal(size=width) * 0.5,
            "loc_w": rng.normal(size=(width, width)) * 0.5,
            "loc_b": rng.normal(size=width) * 0.5,
        }

        def run(vals):
            h = ad.Tensor(vals["h"], requires_grad=True, name="h")
            corr = cc.LinearMap(ad.Tensor(vals["corr_w"], requires_grad=True, name="corr_w"),
                                ad.Tensor(vals["corr_b"], requires_grad=True, name="corr_b"))
            loc = cc.LinearMap(ad.Tensor(vals["loc_w"], requires_grad=True, name="loc_w"),
                               ad.Tensor(vals["loc_b"], requires_grad=True, name="loc_b"))
            init, empty = cc.init_predefined(h, member, caps)
            corrected = cc.correct_predefined(h, init, corr)
            links = cc.predefined_link_sets(member, empty)
            fused, _ = cc.local_aggregate(h, corrected, links, loc)
            return ad.reduce_sum(ad.multiply(fused, fused))

        analytic = ad.backward(run(values))
        numeric = finite_difference(lambda v: run(v).item(), values)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_hidden_pipeline_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        n_s, n_c, width = 4, 3, 4
        pre = rng.random((n_s, n_c)) < 0.3
        concept_init = rng.normal(size=(n_c, width))
        values = {
            "h": rng.normal(size=(n_s, width)),
            "w": rng.normal(size=(width, width)) * 0.5,
            "b": rng.normal(size=width) * 0.5,
        }

        def run(vals):
            h = ad.Tensor(vals["h"], requires_grad=True, name="h")
            fc = cc.LinearMap(ad.Tensor(vals["w"], requires_grad=True, name="w"),
                              ad.Tensor(vals["b"], requires_grad=True, name="b"))
            scores, links, membership = cc.assign_hidden(h, ad.Tensor(concept_init), pre)
            emb = cc.hidden_embeddings(h, scores, membership, fc)
            fused, _ = cc.local_aggregate(h, emb, links, fc)
            return ad.reduce_sum(ad.multiply(fused, fused))

        analytic = ad.backward(run(values))
        numeric = finite_difference(lambda v: run(v).item(), values)
        assert max_rel_error(analytic, numeric) < 1e-4
