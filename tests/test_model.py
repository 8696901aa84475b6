import numpy as np
import pytest

from sme import model as model_module
from sme.dataset import Triple
from sme.errors import LookupIdError, NumericalError
from sme.model import (BILINEAR, LINEAR, BilinearParams, EmbeddingTable,
                       LinearParams, energies_batch, energy, energy_gradients,
                       forward, init_embeddings, init_params)

from oracles import (energy_bilinear_formula, energy_linear_formula,
                     finite_difference, matvec_loop, mode3_loop)


def random_instance(form, seed, n=5, d=3, p=2):
    rng = np.random.default_rng(seed)
    emb = init_embeddings(n, d, rng, frozenset({2}))
    params = init_params(form, d, p, rng)
    # non-zero biases so bias gradients are exercised
    params.b_l[:] = rng.uniform(-0.5, 0.5, size=p)
    params.b_r[:] = rng.uniform(-0.5, 0.5, size=p)
    return emb, params, Triple(0, 2, 1)


def g_left(e_lhs, e_rel, params):
    """The kernel's transformed left embedding u for one (lhs, rel) pair."""
    E = np.stack([e_lhs, e_rel, e_lhs])
    _, cache = forward(E, params, np.array([0]), np.array([1]), np.array([2]))
    return cache.u[0]


class TestGFunctions:
    def test_zero_params_linear(self):
        params = LinearParams(*(np.zeros((2, 3)) for _ in range(4)),
                              np.zeros(2), np.zeros(2))
        out = g_left(np.ones(3), np.ones(3), params)
        assert np.array_equal(out, np.zeros(2))

    def test_identity_passthrough(self):
        params = LinearParams(np.eye(2), np.zeros((2, 2)), np.eye(2),
                              np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        e = np.array([0.3, -0.7])
        assert np.array_equal(g_left(e, np.ones(2), params), e)

    def test_linear_matches_two_matvec_oracle(self):
        rng = np.random.default_rng(11)
        params = LinearParams(*(rng.uniform(-1, 1, size=(2, 2)) for _ in range(4)),
                              rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
        el, er = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)
        expect = matvec_loop(params.w_l1, el) + matvec_loop(params.w_l2, er) + params.b_l
        assert np.allclose(g_left(el, er, params), expect, atol=1e-12)

    def test_bilinear_zero_tensor_gives_bias(self):
        params = BilinearParams(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)),
                                np.array([1.0, -2.0]), np.zeros(2))
        out = g_left(np.ones(3), np.ones(3), params)
        assert np.array_equal(out, [1.0, -2.0])

    def test_bilinear_identity_slices(self):
        # every mode-3 slice the identity; relation entries sum to 1
        d = 3
        w = np.stack([np.eye(d)] * d, axis=2)
        params = BilinearParams(w, w.copy(), np.array([0.1, 0.2, 0.3]), np.zeros(d))
        el = np.array([0.5, -1.0, 2.0])
        er = np.array([0.2, 0.3, 0.5])
        assert np.allclose(g_left(el, er, params), el + params.b_l, atol=1e-12)

    def test_bilinear_matches_triple_loop(self):
        rng = np.random.default_rng(12)
        params = BilinearParams(rng.uniform(-1, 1, size=(2, 3, 3)),
                                rng.uniform(-1, 1, size=(2, 3, 3)),
                                rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
        el, er = rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=3)
        expect = matvec_loop(mode3_loop(params.w_l, er), el) + params.b_l
        assert np.allclose(g_left(el, er, params), expect, atol=1e-12)


class TestEnergy:
    def test_all_zero(self):
        emb = EmbeddingTable(np.zeros((3, 2)), frozenset({1}))
        params = LinearParams(*(np.zeros((2, 2)) for _ in range(4)),
                              np.zeros(2), np.zeros(2))
        assert energy(Triple(0, 1, 2), emb, params) == 0.0

    def test_unit_vector_identity(self):
        emb = EmbeddingTable(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                             frozenset({1}))
        params = LinearParams(np.eye(2), np.zeros((2, 2)), np.eye(2),
                              np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        assert energy(Triple(0, 1, 2), emb, params) == -1.0

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_seeded_instance_matches_formula_oracle(self, form):
        emb, params, t = random_instance(form, seed=77)
        el, er, eh = emb.vectors[t.lhs], emb.vectors[t.rel], emb.vectors[t.rhs]
        if form == LINEAR:
            expect = energy_linear_formula(el, er, eh, *params.arrays())
        else:
            expect = energy_bilinear_formula(el, er, eh, *params.arrays())
        assert abs(energy(t, emb, params) - expect) < 1e-12

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_oracle_equivalence_100_instances(self, form):
        for seed in range(100):
            emb, params, t = random_instance(form, seed=seed)
            el, er, eh = emb.vectors[t.lhs], emb.vectors[t.rel], emb.vectors[t.rhs]
            if form == LINEAR:
                expect = energy_linear_formula(el, er, eh, *params.arrays())
            else:
                expect = energy_bilinear_formula(el, er, eh, *params.arrays())
            assert abs(energy(t, emb, params) - expect) < 1e-12

    def test_invalid_id(self):
        emb = EmbeddingTable(np.zeros((3, 2)), frozenset({1}))
        params = LinearParams(*(np.zeros((2, 2)) for _ in range(4)),
                              np.zeros(2), np.zeros(2))
        with pytest.raises(LookupIdError):
            energy(Triple(0, 1, 7), emb, params)

    def test_relation_usable_in_entity_slots(self):
        emb, params, _ = random_instance(BILINEAR, seed=5)
        rel_id = 2
        e = energy(Triple(rel_id, rel_id, rel_id), emb, params)
        assert np.isfinite(e)

    def test_bilinear_degenerates_to_linear(self):
        # constant mode-3 slices + relation summing to 1 == linear with W_*2 = 0
        rng = np.random.default_rng(21)
        d = p = 3
        a_l = rng.uniform(-1, 1, size=(p, d))
        a_r = rng.uniform(-1, 1, size=(p, d))
        b_l, b_r = rng.uniform(-1, 1, size=p), rng.uniform(-1, 1, size=p)
        bilinear = BilinearParams(np.stack([a_l] * d, axis=2),
                                  np.stack([a_r] * d, axis=2), b_l, b_r)
        linear = LinearParams(a_l, np.zeros((p, d)), a_r, np.zeros((p, d)), b_l, b_r)
        er = rng.uniform(-1, 1, size=d)
        er /= er.sum()
        vectors = np.stack([rng.uniform(-1, 1, size=d), er,
                            rng.uniform(-1, 1, size=d)])
        emb = EmbeddingTable(vectors, frozenset({1}))
        t = Triple(0, 1, 2)
        assert abs(energy(t, emb, bilinear) - energy(t, emb, linear)) < 1e-10


def gradient_pairs(emb, params, grads, t):
    """(array, gradient, label) for every parameter block and embedding row."""
    pairs = [(a, g, f"param{i}") for i, (a, g)
             in enumerate(zip(params.arrays(), grads.params.arrays()))]
    pairs.append((emb.vectors[t.lhs], grads.d_lhs, "e_lhs"))
    pairs.append((emb.vectors[t.rel], grads.d_rel, "e_rel"))
    pairs.append((emb.vectors[t.rhs], grads.d_rhs, "e_rhs"))
    return pairs


def assert_gradients_match_fd(form, seed, step=1e-5, rtol=1e-4):
    emb, params, t = random_instance(form, seed)
    grads = energy_gradients(t, emb, params)

    def f():
        return energy(t, emb, params)

    for arr, analytic, label in gradient_pairs(emb, params, grads, t):
        flat = arr.reshape(-1)
        fd = finite_difference(f, flat, step=step).reshape(arr.shape)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-5)
        rel_err = np.abs(fd - analytic) / denom
        assert rel_err.max() < rtol, f"{form} {label}: max rel err {rel_err.max()}"


class TestGradients:
    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    @pytest.mark.parametrize("seed", range(20))
    def test_finite_differences(self, form, seed):
        assert_gradients_match_fd(form, seed)

    def test_zero_params_gradients(self):
        emb = EmbeddingTable(np.random.default_rng(0).uniform(-1, 1, size=(3, 2)),
                             frozenset({1}))
        params = LinearParams(*(np.zeros((2, 2)) for _ in range(4)),
                              np.zeros(2), np.zeros(2))
        t = Triple(0, 1, 2)
        grads = energy_gradients(t, emb, params)
        for _, g, label in gradient_pairs(emb, params, grads, t):
            assert np.allclose(g, 0.0, atol=1e-15), label

        def f():
            return energy(t, emb, params)

        fd = finite_difference(f, params.w_l1.reshape(-1))
        assert np.allclose(fd, 0.0, atol=1e-8)

    def test_rhs_gradient_closed_form_linear(self):
        emb, params, t = random_instance(LINEAR, seed=33)
        grads = energy_gradients(t, emb, params)
        el, er = emb.vectors[t.lhs], emb.vectors[t.rel]
        left = params.w_l1 @ el + params.w_l2 @ er + params.b_l
        assert np.allclose(grads.d_rhs, -(params.w_r1.T @ left), atol=1e-12)

        def f():
            return energy(t, emb, params)

        fd = finite_difference(f, emb.vectors[t.rhs])
        assert np.allclose(fd, grads.d_rhs, atol=1e-7)


def batch_instance(form, seed, m, n=8, d=3, p=2):
    """A random model and m triples whose ids repeat; relations 6 and 7 are
    flagged, but every relation slot may hold any id."""
    rng = np.random.default_rng(seed)
    emb, params, _ = random_instance(form, seed, n=n, d=d, p=p)
    emb.relation_ids = frozenset({6, 7})
    lhs, rel, rhs = (rng.integers(0, n, size=m) for _ in range(3))
    return emb, params, lhs, rel, rhs


def formula_energy(emb, params, t):
    el, er, eh = emb.vectors[t.lhs], emb.vectors[t.rel], emb.vectors[t.rhs]
    if isinstance(params, LinearParams):
        return energy_linear_formula(el, er, eh, *params.arrays())
    return energy_bilinear_formula(el, er, eh, *params.arrays())


class TestBatchEnergies:
    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_matches_scalar_energy(self, form):
        rng = np.random.default_rng(4)
        emb = init_embeddings(8, 3, rng, frozenset({6, 7}))
        params = init_params(form, 3, 2, rng)
        lhs = rng.integers(0, 6, size=25)
        rel = rng.integers(6, 8, size=25)
        rhs = rng.integers(0, 6, size=25)
        batch = energies_batch(emb, params, lhs, rel, rhs)
        for i in range(25):
            single = energy(Triple(int(lhs[i]), int(rel[i]), int(rhs[i])), emb, params)
            assert abs(batch[i] - single) < 1e-12

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_matches_formula_oracle_and_energy(self, form, monkeypatch):
        # 4-record gather steps, so 61 records take 16 steps and a 1-record tail
        monkeypatch.setattr(model_module, "_STEP", 4)
        emb, params, lhs, rel, rhs = batch_instance(form, seed=31, m=61)
        assert not set(rel) <= emb.relation_ids     # unflagged ids in the slot
        assert len(set(zip(lhs, rel))) < len(lhs)   # repeated (lhs, rel) pairs
        batch = energies_batch(emb, params, lhs, rel, rhs)
        for i, t in enumerate(map(Triple, lhs.tolist(), rel.tolist(), rhs.tolist())):
            assert abs(batch[i] - formula_energy(emb, params, t)) < 1e-12
            assert abs(batch[i] - energy(t, emb, params)) < 1e-12

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_more_rows_than_one_gather_step(self, form):
        m = 2 * model_module._STEP + 3
        emb, params, lhs, rel, rhs = batch_instance(form, seed=32, m=m)
        expect, _ = forward(emb.vectors, params, lhs, rel, rhs)
        assert np.abs(energies_batch(emb, params, lhs, rel, rhs) - expect).max() < 1e-12

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_empty_input(self, form):
        emb, params, lhs, rel, rhs = batch_instance(form, seed=33, m=0)
        out = energies_batch(emb, params, lhs, rel, rhs)
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    @pytest.mark.parametrize("per_block", [1, 2, 3])
    def test_relation_blocks_match_one_block_bitwise(self, form, per_block, monkeypatch):
        n, p = 8, 2
        emb, params, lhs, rel, rhs = batch_instance(form, seed=34, m=500, n=n, p=p)
        assert np.all(params.b_l != 0) and np.all(params.b_r != 0)
        one_block = energies_batch(emb, params, lhs, rel, rhs)
        # one relation's two tables take 2 * n * p * 8 bytes
        monkeypatch.setattr(model_module, "_TABLE_BYTES", per_block * 2 * n * p * 8)
        blocks = energies_batch(emb, params, lhs, rel, rhs)
        assert np.array_equal(blocks, one_block)

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_tables_stay_within_budget(self, form, monkeypatch):
        n, p = 8, 2
        emb, params, lhs, rel, rhs = batch_instance(form, seed=36, m=200, n=n, p=p)
        budget = 3 * 2 * n * p * 8
        monkeypatch.setattr(model_module, "_TABLE_BYTES", budget)
        sizes = []
        project = model_module._project

        def spy(*args):
            table = project(*args)
            sizes.append(table.nbytes)
            return table

        monkeypatch.setattr(model_module, "_project", spy)
        energies_batch(emb, params, lhs, rel, rhs)
        # both sides of 8 relations, 3 relations a block: 3 blocks, 6 tables
        assert len(sizes) == 6 and 2 * max(sizes) <= budget

    def test_rejects_bad_ids(self):
        rng = np.random.default_rng(4)
        emb = init_embeddings(4, 3, rng)
        params = init_params(LINEAR, 3, 2, rng)
        with pytest.raises(LookupIdError):
            energies_batch(emb, params, np.array([0]), np.array([9]), np.array([1]))

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [-1, 8])
    def test_rejects_out_of_range_id_in_any_slot(self, form, slot, bad):
        emb, params, *ids = batch_instance(form, seed=35, m=10)
        ids[slot][7] = bad
        with pytest.raises(LookupIdError):
            energies_batch(emb, params, *ids)


def test_normalize_rows():
    rng = np.random.default_rng(8)
    emb = init_embeddings(10, 4, rng)
    emb.normalize_rows()
    norms = np.linalg.norm(emb.vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_normalize_rows_rejects_overflowing_norm():
    # the squared norm of a finite row of 1e200 overflows; dividing by it
    # would silently zero the row
    emb = EmbeddingTable(np.array([[1e200, 1e200], [3.0, 4.0]]))
    with pytest.raises(NumericalError, match="norm"), np.errstate(over="ignore"):
        emb.normalize_rows()
