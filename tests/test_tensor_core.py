"""The two tensor contractions the bilinear kernel is built from:
``mode3_contract`` (one relation map per pair) and ``matvec`` (that map
applied to each of the pair's vectors), checked against the loop oracles."""

import numpy as np
import pytest

from sme.errors import ShapeError
from sme.model import matvec, mode3_contract

from oracles import matvec_loop, mode3_loop


class TestMatvec:
    def test_identity(self):
        got = matvec(np.eye(2)[None], np.array([[[3.0, 4.0], [-1.0, 2.0]]]))
        assert np.array_equal(got, [[[3.0, 4.0], [-1.0, 2.0]]])

    def test_zero_matrix(self):
        got = matvec(np.zeros((1, 2, 3)), np.array([[[1.0, -2.0, 5.0]]]))
        assert np.array_equal(got, [[[0.0, 0.0]]])

    def test_hand_computed(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        maps = np.stack([m, m.T])
        x = np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, -1.0], [2.0, 0.0]]])
        got = matvec(maps, x)
        assert np.allclose(got, [[[3.0, 7.0], [2.0, 4.0]], [[-2.0, -2.0], [2.0, 4.0]]],
                           atol=1e-12)
        for n in range(2):
            for j in range(2):
                assert np.allclose(got[n, j], matvec_loop(maps[n], x[n, j]), atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            matvec(np.eye(2)[None], np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ShapeError):
            matvec(np.stack([np.eye(2)] * 2), np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeError):   # one vector stack short of a matrix each
            matvec(np.stack([np.eye(2)] * 2), np.ones((1, 2, 2)))

    def test_out_takes_the_result(self):
        rng = np.random.default_rng(5)
        maps = rng.uniform(-1, 1, size=(3, 4, 5))
        x = rng.uniform(-1, 1, size=(3, 2, 5))
        out = np.empty((3, 2, 4))
        matvec(maps, x, out=out)
        assert np.array_equal(out, matvec(maps, x))

    def test_distributes_over_addition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            maps = rng.uniform(-1, 1, size=(3, 4, 5))
            u = rng.uniform(-1, 1, size=(3, 2, 5))
            v = rng.uniform(-1, 1, size=(3, 2, 5))
            lhs = matvec(maps, u + v)
            rhs = matvec(maps, u) + matvec(maps, v)
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestMode3Contract:
    def test_basis_vector_selects_slice(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-1, 1, size=(3, 4, 5))
        got = mode3_contract(t, np.eye(5))
        for k in range(5):
            assert np.allclose(got[k], t[:, :, k], atol=1e-15)

    def test_zero_vector(self):
        t = np.ones((2, 3, 4))
        assert np.array_equal(mode3_contract(t, np.zeros((1, 4))), np.zeros((1, 2, 3)))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(-1, 1, size=(2, 2, 2))
        x = rng.uniform(-1, 1, size=(3, 2))
        got = mode3_contract(t, x)
        for n in range(3):
            assert np.allclose(got[n], mode3_loop(t, x[n]), atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            mode3_contract(np.zeros((2, 2, 2)), np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            mode3_contract(np.zeros((2, 2, 2)), np.zeros(2))

    def test_linearity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            t = rng.uniform(-1, 1, size=(3, 4, 5))
            u = rng.uniform(-1, 1, size=(2, 5))
            v = rng.uniform(-1, 1, size=(2, 5))
            a, b = rng.uniform(-1, 1, size=2)
            lhs = mode3_contract(t, a * u + b * v)
            rhs = a * mode3_contract(t, u) + b * mode3_contract(t, v)
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_random_against_loop_oracles():
    rng = np.random.default_rng(42)
    for _ in range(10):
        t = rng.uniform(-1, 1, size=(3, 6, 4))
        r = rng.uniform(-1, 1, size=(5, 4))
        x = rng.uniform(-1, 1, size=(5, 2, 6))
        maps = mode3_contract(t, r)
        got = matvec(maps, x)
        for n in range(5):
            want = mode3_loop(t, r[n])
            assert np.allclose(maps[n], want, atol=1e-12)
            for j in range(2):
                assert np.allclose(got[n, j], matvec_loop(want, x[n, j]), atol=1e-12)
