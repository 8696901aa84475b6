"""The tensor contractions the bilinear kernel and the bulk scorer are
built from: the relation maps ``W x3 e_r`` (the scorer's ``_relation_maps``;
the kernel's ``ws.maps``) and those maps applied to each of a pair's entity
rows (the kernel's ``ws.uv``), checked against the loop oracles. The
kernel's values are read from the workspace ``forward`` leaves, whose zero
biases add nothing."""

import numpy as np

from sme import model
from sme.model import BilinearParams, LinearParams, _relation_maps, forward

from oracles import matvec_loop, mode3_loop


def kernel(w_l, w_r, E, lhs, rel, rhs):
    """The workspace of a bilinear ``forward`` of the triples (lhs[n],
    rel[n], rhs[n]) over the rows of E: ``ws.maps[n, side]`` is the (p, d)
    map of rel[n] on the left (0) or right (1) side, ``ws.uv[n, side, slot]``
    that map applied to the lhs (side 0) or rhs (side 1) row, once per slot."""
    p = w_l.shape[0]
    params = BilinearParams(w_l, w_r, np.zeros(p), np.zeros(p))
    _, ws = forward(np.asarray(E, dtype=float), params, *map(np.array, (lhs, rel, rhs)))
    return ws


class TestMatvec:
    def test_identity(self):
        # relation row e_0 selects w[:, :, 0], the identity, on both sides
        w = np.stack([np.eye(2), np.ones((2, 2))], axis=-1)
        E = [[3.0, 4.0], [-1.0, 2.0], [1.0, 0.0]]
        ws = kernel(w, w, E, [0], [2], [1])
        assert np.array_equal(ws.maps[0], [np.eye(2), np.eye(2)])
        assert np.array_equal(ws.uv[0], [[[3.0, 4.0]] * 2, [[-1.0, 2.0]] * 2])

    def test_zero_matrix(self):
        w = np.zeros((2, 3, 3))
        ws = kernel(w, w, [[1.0, -2.0, 5.0], [0.5, 1.0, 0.0], [1.0, 1.0, 1.0]], [0], [2], [1])
        assert np.array_equal(ws.maps, np.zeros((1, 2, 2, 3)))
        assert np.array_equal(ws.uv, np.zeros((1, 2, 2, 2)))

    def test_hand_computed(self):
        # relation row e_0 maps the left side by m and the right by m.T
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        w_l = np.stack([m, np.zeros((2, 2))], axis=-1)
        w_r = np.stack([m.T, np.zeros((2, 2))], axis=-1)
        E = [[1.0, 1.0], [0.0, 1.0], [1.0, -1.0], [2.0, 0.0], [1.0, 0.0]]
        ws = kernel(w_l, w_r, E, [0, 2], [4, 4], [1, 3])
        want = [[[3.0, 7.0], [3.0, 4.0]], [[-1.0, -1.0], [2.0, 4.0]]]   # pair, side
        assert np.allclose(ws.uv, np.array(want)[:, :, None, :], atol=1e-12)
        x = np.array(E)
        for n, (l, r) in enumerate([(0, 1), (2, 3)]):
            for side, (maps, row) in enumerate([(m, x[l]), (m.T, x[r])]):
                for slot in range(2):
                    assert np.allclose(ws.uv[n, side, slot], matvec_loop(maps, row), atol=1e-12)

    def test_distributes_over_addition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w_l, w_r = rng.uniform(-1, 1, size=(2, 4, 5, 5))
            u, v, r = rng.uniform(-1, 1, size=(3, 5))
            ws = kernel(w_l, w_r, [u, v, u + v, r], [0, 1, 2], [3, 3, 3], [1, 2, 0])
            assert np.allclose(ws.uv[2, 0], ws.uv[0, 0] + ws.uv[1, 0], atol=1e-10)
            assert np.allclose(ws.uv[1, 1], ws.uv[0, 1] + ws.uv[2, 1], atol=1e-10)


def relation_maps(w_l, w_r, E, rels):
    """``_relation_maps`` of bilinear weights (p, d, d) each, with biases
    1 and 2: the (k, 2, p, d) maps and (k, 2, p) offsets of the rows
    ``rels`` of E, by side."""
    p = w_l.shape[0]
    params = BilinearParams(w_l, w_r, np.ones(p), np.full(p, 2.0))
    return _relation_maps(params, np.asarray(E, dtype=float), np.asarray(rels))


class TestMode3Contract:
    """The mode-3 contraction ``W x3 e_r`` as the scorer's ``_relation_maps``
    takes it, and the linear form's maps and offsets beside it."""

    def test_basis_vector_selects_slice(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, size=(2, 3, 5, 5))   # left, right: (p, d, d)
        maps, offsets = relation_maps(*w, np.eye(5), np.arange(5))
        for k in range(5):
            for side in range(2):
                assert np.allclose(maps[k, side], w[side][:, :, k], atol=1e-15)
        assert np.array_equal(offsets, np.broadcast_to([np.ones(3), np.full(3, 2.0)], (5, 2, 3)))

    def test_zero_vector(self):
        w = np.ones((2, 2, 4, 4))
        maps, _ = relation_maps(*w, [[1.0, 2.0, 3.0, 4.0], [0.0] * 4], [1])
        assert np.array_equal(maps, np.zeros((1, 2, 2, 4)))

    def test_against_triple_loop(self, monkeypatch):
        rng = np.random.default_rng(1)
        w = rng.uniform(-1, 1, size=(2, 2, 2, 2))
        x = rng.uniform(-1, 1, size=(8, 2))
        rels = [6, 0, 3]   # in any order
        # a relation's product is its own matrix-vector product, which the
        # table budget does not reach: at the default budget and at one of
        # two rows of products (2 * p * d * 8 B each) the maps match the loop
        for budget in (model._TABLE_BYTES, 2 * 2 * 2 * 2 * 8):
            monkeypatch.setattr(model, "_TABLE_BYTES", budget)
            maps, _ = relation_maps(*w, x, rels)
            for k, r in enumerate(rels):
                for side in range(2):
                    assert np.allclose(maps[k, side], mode3_loop(w[side], x[r]), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            w = rng.uniform(-1, 1, size=(2, 3, 5, 5))
            u, v = rng.uniform(-1, 1, size=(2, 2, 5))
            a, b = rng.uniform(-1, 1, size=2)
            maps, _ = relation_maps(*w, np.concatenate([u, v, a * u + b * v]), np.arange(6))
            assert np.allclose(maps[4:], a * maps[:2] + b * maps[2:4], atol=1e-10)

    def test_linear_form(self):
        # the entity weights, shared by every relation, and W_2 e_r + b, by side
        rng = np.random.default_rng(2)
        w_l1, w_l2, w_r1, w_r2 = rng.uniform(-1, 1, size=(4, 3, 4))
        b_l, b_r = rng.uniform(-1, 1, size=(2, 3))
        params = LinearParams(w_l1, w_l2, w_r1, w_r2, b_l, b_r)
        E = rng.uniform(-1, 1, size=(6, 4))
        rels = np.array([1, 4, 5])
        maps, offsets = _relation_maps(params, E, rels)
        assert maps.shape == (3, 2, 3, 4) and offsets.shape == (3, 2, 3)
        for k, r in enumerate(rels):
            assert np.array_equal(maps[k, 0], w_l1) and np.array_equal(maps[k, 1], w_r1)
            assert np.allclose(offsets[k, 0], matvec_loop(w_l2, E[r]) + b_l, atol=1e-12)
            assert np.allclose(offsets[k, 1], matvec_loop(w_r2, E[r]) + b_r, atol=1e-12)


def test_random_against_loop_oracles():
    rng = np.random.default_rng(42)
    for _ in range(10):
        w = rng.uniform(-1, 1, size=(2, 3, 4, 4))   # left, right: (p, d, d)
        E = rng.uniform(-1, 1, size=(8, 4))
        lhs, rhs = rng.integers(0, 6, size=(2, 5))
        rel = rng.integers(6, 8, size=5)
        ws = kernel(*w, E, lhs, rel, rhs)
        for n in range(5):
            for side, row in enumerate((E[lhs[n]], E[rhs[n]])):
                want = mode3_loop(w[side], E[rel[n]])
                assert np.allclose(ws.maps[n, side], want, atol=1e-12)
                for slot in range(2):
                    assert np.allclose(ws.uv[n, side, slot], matvec_loop(want, row), atol=1e-12)
