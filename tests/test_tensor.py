import numpy as np
import pytest

from cnnlstm.errors import NumericError, ShapeError
from cnnlstm.tensor import matmul, tensor


class TestTensorConstructor:
    def test_accepts_rank_1_to_3(self):
        assert tensor([1.0, 2.0]).shape == (2,)
        assert tensor([[1.0], [2.0]]).shape == (2, 1)
        assert tensor(np.ones((2, 3, 4))).shape == (2, 3, 4)

    def test_rejects_rank_0_and_4(self):
        with pytest.raises(ShapeError):
            tensor(3.0)
        with pytest.raises(ShapeError):
            tensor(np.ones((1, 1, 1, 1)))

    def test_rejects_empty_extent(self):
        with pytest.raises(ShapeError):
            tensor(np.ones((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            tensor([1.0, np.nan])
        with pytest.raises(NumericError):
            tensor([np.inf])


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_direct_evaluation(self):
        # [[1,2],[3,4]] @ [[5],[6]]: rows dot column -> 1*5+2*6, 3*5+4*6
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
        assert np.array_equal(out, [[17.0], [39.0]])

    def test_zeros_annihilate(self):
        out = matmul(np.zeros((2, 3)), np.arange(12.0).reshape(3, 4))
        assert np.array_equal(out, np.zeros((2, 4)))

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_associativity(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 3))
            b = rng.standard_normal((3, 5))
            c = rng.standard_normal((5, 2))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.abs(left - right).max() <= 1e-9 * max(1.0, np.abs(left).max())

    def test_inputs_unmodified(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        a0, b0 = a.copy(), b.copy()
        matmul(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

