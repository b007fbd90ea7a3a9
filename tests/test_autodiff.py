import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmd import autodiff as ad
from mtmd.errors import ContractError, ShapeError

from oracles import finite_difference, max_rel_error

RNG = np.random.default_rng(20240817)


def scalar_loss(t: ad.Tensor) -> ad.Tensor:
    return ad.reduce_sum(ad.multiply(t, t))


class TestTensorConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.Tensor([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.Tensor([[float("inf")]])

    def test_coerces_to_float64(self):
        t = ad.Tensor([1, 2, 3])
        assert t.data.dtype == np.float64


class TestMatmul:
    def test_identity(self):
        eye = ad.Tensor(np.eye(2))
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(eye, m).data, m.data)

    def test_orthogonal_rows(self):
        out = ad.matmul(ad.Tensor([[1.0, 0.0]]), ad.Tensor([[0.0], [5.0]]))
        assert np.array_equal(out.data, [[0.0]])

    def test_hand_product(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))


def cosine(a, b) -> float:
    """cosine_matrix of two one-row inputs, as a number."""
    return ad.cosine_matrix(ad.Tensor([a]), ad.Tensor([b])).data.item()


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_parallel(self):
        assert cosine([2.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        # dot = 4, norms sqrt(5) * sqrt(5)
        assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_vector_guarded(self):
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_range_bound(self):
        for _ in range(200):
            c = cosine(RNG.normal(size=5), RNG.normal(size=5))
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0]), axis=0)
        assert out.data == pytest.approx([0.5, 0.5])

    def test_closed_form(self):
        out = ad.softmax(ad.Tensor([np.log(2.0), 0.0]), axis=0)
        assert out.data == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-100, 100))
    def test_shift_invariance(self, xs, shift):
        x = np.array(xs)
        a = ad.softmax(ad.Tensor(x), axis=0).data
        b = ad.softmax(ad.Tensor(x + shift), axis=0).data
        assert np.allclose(a, b, atol=1e-12)

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 1), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_slices_sum_to_one_and_positive(self, rows, cols, axis, seed):
        x = np.random.default_rng(seed).normal(scale=10.0, size=(rows, cols))
        s = ad.softmax(ad.Tensor(x), axis=axis).data
        assert np.all(s > 0.0)
        assert np.allclose(s.sum(axis=axis), 1.0, atol=1e-12)


class TestMaskedSoftmax:
    def test_respects_mask(self):
        x = ad.Tensor([[1.0, 100.0, 2.0]])
        mask = np.array([[True, False, True]])
        s = ad.masked_softmax(x, mask, axis=1).data
        assert s[0, 1] == 0.0
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_singleton_mask(self):
        s = ad.masked_softmax(ad.Tensor([[3.0, -1.0]]), np.array([[False, True]]), axis=1).data
        assert np.array_equal(s, [[0.0, 1.0]])

    def test_empty_slice_yields_zeros(self):
        s = ad.masked_softmax(ad.Tensor([[1.0, 2.0]]), np.array([[False, False]]), axis=1).data
        assert np.array_equal(s, [[0.0, 0.0]])


class TestLeakyRelu:
    @pytest.mark.parametrize("x,expected", [(1.0, 1.0), (0.0, 0.0), (-1.0, -0.01)])
    def test_values(self, x, expected):
        assert ad.leaky_relu(ad.Tensor([x])).data[0] == pytest.approx(expected)


class TestBackward:
    def test_sum_gives_ones(self):
        w = ad.Tensor(RNG.normal(size=(3, 4)), requires_grad=True, name="w")
        grads = ad.backward(ad.reduce_sum(w))
        assert np.array_equal(grads["w"], np.ones((3, 4)))

    def test_squared_norm_gives_two_w(self):
        data = RNG.normal(size=(2, 3))
        w = ad.Tensor(data, requires_grad=True, name="w")
        grads = ad.backward(ad.reduce_sum(ad.multiply(w, w)))
        assert np.allclose(grads["w"], 2.0 * data, atol=1e-14)

    def test_non_scalar_root_rejected(self):
        w = ad.Tensor([[1.0, 2.0]], requires_grad=True, name="w")
        with pytest.raises(ContractError, match="scalar"):
            ad.backward(ad.multiply(w, w))

    def test_shared_operand_accumulates(self):
        w = ad.Tensor([3.0], requires_grad=True, name="w")
        grads = ad.backward(ad.reduce_sum(ad.multiply(w, w)))
        assert grads["w"][0] == pytest.approx(6.0)

    def test_deterministic_bitwise(self):
        w = ad.Tensor(RNG.normal(size=(4, 4)), requires_grad=True, name="w")
        b = ad.Tensor(RNG.normal(size=(4,)), requires_grad=True, name="b")
        out = ad.leaky_relu(ad.add(ad.matmul(w, w), b))
        loss = ad.reduce_sum(ad.multiply(out, ad.softmax(out, axis=1)))
        g1 = ad.backward(loss)
        g2 = ad.backward(loss)
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_constant_subgraphs_excluded(self):
        c = ad.Tensor([1.0, 2.0])
        w = ad.Tensor([3.0, 4.0], requires_grad=True, name="w")
        grads = ad.backward(ad.reduce_sum(ad.multiply(c, w)))
        assert set(grads) == {"w"}


def _random_instance(seed: int, build):
    """Gradient-check one op instance given a builder of (values, func)."""
    rng = np.random.default_rng(seed)
    values, func = build(rng)

    def loss_from(vals):
        tensors = {k: ad.Tensor(v, requires_grad=True, name=k) for k, v in vals.items()}
        return scalar_loss(func(tensors)).item()

    tensors = {k: ad.Tensor(v, requires_grad=True, name=k) for k, v in values.items()}
    analytic = ad.backward(scalar_loss(func(tensors)))
    numeric = finite_difference(loss_from, values)
    return max_rel_error(analytic, numeric)


def _away_from_kinks(x, margin=1e-3):
    return np.where(np.abs(x) < margin, margin, x)


OP_BUILDERS = {
    "matmul": lambda rng: (
        {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
        lambda t: ad.matmul(t["a"], t["b"]),
    ),
    "add_broadcast": lambda rng: (
        {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,))},
        lambda t: ad.add(t["a"], t["b"]),
    ),
    "divide": lambda rng: (
        {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3)) + 3.0},
        lambda t: ad.divide(t["a"], t["b"]),
    ),
    "softmax_axis0": lambda rng: (
        {"x": rng.normal(size=(4, 3))},
        lambda t: ad.softmax(t["x"], axis=0),
    ),
    "softmax_axis1": lambda rng: (
        {"x": rng.normal(size=(3, 5))},
        lambda t: ad.softmax(t["x"], axis=1),
    ),
    "masked_softmax": lambda rng: (
        {"x": rng.normal(size=(3, 4))},
        lambda t: ad.masked_softmax(t["x"], np.array([[1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 0]], dtype=bool), axis=1),
    ),
    "leaky_relu": lambda rng: (
        {"x": _away_from_kinks(rng.normal(size=(4, 4)))},
        lambda t: ad.leaky_relu(t["x"]),
    ),
    "cosine_matrix": lambda rng: (
        {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(2, 4))},
        lambda t: ad.cosine_matrix(t["a"], t["b"]),
    ),
    "sqrt": lambda rng: (
        {"x": rng.normal(size=(3, 3)) ** 2 + 0.5},
        lambda t: ad.sqrt(t["x"]),
    ),
    "clamp_min": lambda rng: (
        {"x": _away_from_kinks(rng.normal(size=(4,)), 0.05)},
        lambda t: ad.clamp_min(t["x"], 0.0),
    ),
    "reduce_sum_axis": lambda rng: (
        {"x": rng.normal(size=(3, 4))},
        lambda t: ad.reduce_sum(t["x"], axis=0),
    ),
}


@pytest.mark.parametrize("op", sorted(OP_BUILDERS))
def test_gradients_match_finite_differences(op):
    # 100 random instances per operation, rel. tolerance 1e-4
    worst = max(_random_instance(1000 + i, OP_BUILDERS[op]) for i in range(100))
    assert worst < 1e-4, f"{op}: max relative error {worst:.3e}"
