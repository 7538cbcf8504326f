"""Unit tests for the tensor module: construction contracts, and the norm
against scalar-loop oracles."""

import tracemalloc

import numpy as np
import pytest

from neurofuzz.errors import ContractViolation
from neurofuzz.tensor import Tensor, l2_norm

BLOCK = 1 << 16
LARGE = 3 * BLOCK + 5


class TestConstruction:
    def test_shape_data_consistency(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.array.size == 4
        assert t.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_nan_rejected(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(ContractViolation):
            Tensor([float("inf"), 0.0])

    @pytest.mark.parametrize("index, value", [
        (0, np.inf), (-1, np.nan), (BLOCK - 1, np.inf), (BLOCK, -np.inf),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_rejected_in_any_block(self, index, value, dtype):
        arr = np.zeros(LARGE, dtype=dtype)
        arr[index] = value
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            Tensor.wrap(arr.reshape(-1, 1))
        arr[index] = 0.0
        assert Tensor.wrap(arr.reshape(-1, 1)).shape == (LARGE, 1)

    def test_non_finite_rejected_in_a_large_strided_view(self):
        arr = np.zeros((4, LARGE), dtype=np.float32)
        view = arr[:, ::2]
        view[3, -1] = np.nan
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            Tensor(view)

    # the dot product x.x flags the array and the exact check names it,
    # wherever the element lies
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("size", [7, BLOCK, LARGE])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_rejected_at_any_position(self, value, where, size, dtype):
        arr = np.full(size, 0.5, dtype=dtype)
        arr[{"first": 0, "middle": size // 2, "last": -1}[where]] = value
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            Tensor.wrap(arr.reshape(-1, 1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [7, LARGE])
    def test_finite_values_whose_squares_overflow_accepted(self, size):
        for dtype, value in ((np.float32, 1e20), (np.float64, 1e200)):
            arr = np.full(size, value, dtype=dtype)
            assert not np.isfinite(np.vdot(arr, arr))
            assert Tensor.wrap(arr).shape == (size,)

    def test_large_wrap_holds_no_full_size_mask(self):
        images = np.zeros((20000, 28, 28, 1), dtype=np.float32)
        tracemalloc.start()
        try:
            Tensor.wrap(images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * BLOCK  # the full bool mask is 15.7 MB

    def test_rows_are_read_only_views_of_the_whole(self):
        t = Tensor(np.arange(12.0).reshape(3, 2, 2))
        rows = t.rows()
        assert len(rows) == 3
        for i, row in enumerate(rows):
            assert row == Tensor.wrap(t.array[i])
            assert np.shares_memory(row.array, t.array)
            assert not row.array.flags.writeable

    def test_rank_1_has_no_rows(self):
        with pytest.raises(ContractViolation, match="no rows"):
            Tensor([1.0, 2.0]).rows()

    def test_precisions(self):
        assert Tensor([1.0]).precision == "single"
        assert Tensor([1.0], precision="double").precision == "double"
        with pytest.raises(ContractViolation):
            Tensor([1.0], precision="half")

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0

    # a 0-d array stays 0-d in every constructor, so each refuses it alike
    @pytest.mark.parametrize("make", [
        lambda: Tensor(np.array(1.5, np.float32)),
        lambda: Tensor.wrap(np.array(1.5, np.float32)),
        lambda: Tensor.zeros(()),
    ], ids=["init", "wrap", "zeros"])
    def test_zero_rank_rejected(self, make):
        with pytest.raises(ContractViolation, match="rank >= 1"):
            make()

    @pytest.mark.parametrize("make", [Tensor, Tensor.wrap], ids=["init", "wrap"])
    def test_strided_input_stored_row_major(self, make):
        arr = np.arange(24, dtype=np.float32).reshape(4, 6)
        t = make(arr[:, ::2])
        assert t.array.flags.c_contiguous
        assert t.array.tolist() == arr[:, ::2].tolist()

    def test_wrap_preserves_dtype(self):
        t = Tensor.wrap(np.zeros((3,), dtype=np.float64))
        assert t.precision == "double"

    def test_astype_round_trip(self):
        t = Tensor([1.5, -2.25])
        assert t.astype("double").astype("single") == t

    def test_astype_unknown_precision_rejected(self):
        with pytest.raises(ContractViolation, match="unknown precision 'half'"):
            Tensor([1.0]).astype("half")

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float16, bool])
    def test_wrap_rejects_a_non_float_array(self, dtype):
        with pytest.raises(ContractViolation, match="unsupported dtype"):
            Tensor.wrap(np.ones(3, dtype=dtype))

    def test_equality_and_hash(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([1.0, 2.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Tensor([1.0, 2.0], precision="double")
        # equal Tensors hash equal, signed zeros too
        zero, negative_zero = Tensor([0.0, 1.0]), Tensor([-0.0, 1.0])
        assert zero == negative_zero
        assert hash(zero) == hash(negative_zero)

    def test_never_equal_to_a_non_tensor(self):
        # the same values as a list are not a Tensor
        t = Tensor([1.0, 2.0])
        for other in ([1.0, 2.0], (1.0, 2.0), None):
            assert not t == other
            assert t != other


class TestL2Norm:
    def test_zero_vector(self):
        assert l2_norm(np.zeros(3, np.float32)) == 0.0

    def test_pythagorean(self):
        assert l2_norm(np.array([3.0, 4.0], np.float32)) == pytest.approx(5.0)
        assert l2_norm(np.array([[3.0], [4.0]], np.float32)) == pytest.approx(5.0)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(100)
        total = 0.0
        for x in v:
            total += float(x) * float(x)
        expected = total ** 0.5
        got = l2_norm(v.astype(np.float64))
        assert got == pytest.approx(expected, rel=1e-6)

    def test_nonnegative_zero_iff_allzero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(10).astype(np.float32)
            n = l2_norm(v)
            assert n >= 0.0
            assert (n == 0.0) == bool(np.all(v == 0))


def test_single_double_agreement():
    rng = np.random.default_rng(13)
    a64 = rng.uniform(-10, 10, size=64)
    b64 = rng.uniform(-10, 10, size=64)
    sum_d = Tensor.wrap(a64 + b64)
    sum_s = Tensor.wrap(a64.astype(np.float32) + b64.astype(np.float32))
    np.testing.assert_allclose(sum_s.array, sum_d.array, rtol=1e-4)
    assert l2_norm(sum_s.array) == pytest.approx(l2_norm(sum_d.array), rel=1e-4)
