"""Unit tests for the tensor module: construction contracts, elementwise
arithmetic against scalar-loop oracles, norms, and clipping."""

import numpy as np
import pytest

from neurofuzz.errors import ContractViolation
from neurofuzz.tensor import Tensor, clip, elementwise_add, l2_norm


class TestConstruction:
    def test_shape_data_consistency(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.size == 4
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_nan_rejected(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(ContractViolation):
            Tensor([float("inf"), 0.0])

    def test_precisions(self):
        assert Tensor([1.0]).precision == "single"
        assert Tensor([1.0], precision="double").precision == "double"
        with pytest.raises(ContractViolation):
            Tensor([1.0], precision="half")

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0

    def test_wrap_preserves_dtype(self):
        t = Tensor.wrap(np.zeros((3,), dtype=np.float64))
        assert t.precision == "double"

    def test_astype_round_trip(self):
        t = Tensor([1.5, -2.25])
        assert t.astype("double").astype("single") == t

    def test_equality_and_hash(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([1.0, 2.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Tensor([1.0, 2.0], precision="double")


class TestElementwiseAdd:
    def test_additive_identity(self):
        out = elementwise_add(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert out.data.tolist() == [1.0, 2.0]

    def test_arithmetic(self):
        out = elementwise_add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert out.data.tolist() == [4.0, 6.0]

    def test_random_pair_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((28, 28)).astype(np.float32)
        b = rng.standard_normal((28, 28)).astype(np.float32)
        out = elementwise_add(Tensor.wrap(a), Tensor.wrap(b)).array
        for i in range(28):
            for j in range(28):
                assert out[i, j] == np.float32(a[i, j]) + np.float32(b[i, j])

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            elementwise_add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_precision_mismatch(self):
        with pytest.raises(ContractViolation):
            elementwise_add(Tensor([1.0]), Tensor([1.0], precision="double"))

    def test_output_shape_matches_input(self):
        a = Tensor.wrap(np.ones((3, 4, 2), dtype=np.float32))
        assert elementwise_add(a, a).shape == (3, 4, 2)


class TestL2Norm:
    def test_zero_vector(self):
        assert l2_norm(Tensor([0.0, 0.0, 0.0])) == 0.0

    def test_pythagorean(self):
        assert l2_norm(Tensor([3.0, 4.0])) == pytest.approx(5.0)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(100)
        total = 0.0
        for x in v:
            total += float(x) * float(x)
        expected = total ** 0.5
        got = l2_norm(Tensor.wrap(v.astype(np.float64)))
        assert got == pytest.approx(expected, rel=1e-6)

    def test_nonnegative_zero_iff_allzero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(10).astype(np.float32)
            n = l2_norm(Tensor.wrap(v))
            assert n >= 0.0
            assert (n == 0.0) == bool(np.all(v == 0))


class TestClip:
    def test_boundary_cases(self):
        out = clip(Tensor([-0.5, 0.5, 1.5]), 0.0, 1.0)
        assert out.data.tolist() == [0.0, 0.5, 1.0]

    def test_identity_with_wide_bounds(self):
        t = Tensor([-100.0, 0.0, 100.0])
        assert clip(t, -1e30, 1e30) == t

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(-2, 2, size=50).astype(np.float32)
        out = clip(Tensor.wrap(v), -0.5, 0.75).array
        for i, x in enumerate(v):
            assert out[i] == min(0.75, max(-0.5, float(x)))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ContractViolation):
            clip(Tensor([0.0]), 1.0, 0.0)


def test_single_double_agreement():
    rng = np.random.default_rng(13)
    a64 = rng.uniform(-10, 10, size=64)
    b64 = rng.uniform(-10, 10, size=64)
    sum_d = elementwise_add(
        Tensor.wrap(a64), Tensor.wrap(b64)
    )
    sum_s = elementwise_add(
        Tensor.wrap(a64.astype(np.float32)), Tensor.wrap(b64.astype(np.float32))
    )
    np.testing.assert_allclose(sum_s.data, sum_d.data, rtol=1e-4)
    assert l2_norm(sum_s) == pytest.approx(l2_norm(sum_d), rel=1e-4)
