import io
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sme import trainer
from sme.dataset import Triple, TripleSet, load_triples, make_folds, positives_of
from sme.errors import ConfigError, NumericalError, ShapeError
from sme.model import (BILINEAR, LINEAR, EmbeddingTable, Workspace, energies_batch,
                       energy, energy_gradients, init_embeddings, init_params)
from sme.trainer import (TrainConfig, _corrupt_batch, _sgd_step_arrays, corrupt,
                         ranking_loss, sgd_step, train, train_folds)

from conftest import two_group_records, write_triples
from oracles import (energy_bilinear_formula, energy_linear_formula,
                     finite_difference, fold_masks)


class TestCorrupt:
    def test_rhs_mode_changes_only_rhs(self):
        rng = np.random.default_rng(0)
        entities = np.arange(5)
        t = Triple(0, 10, 1)
        for _ in range(50):
            c = corrupt(t, "rhs", rng, entities)
            assert c.lhs == t.lhs and c.rel == t.rel and c.rhs != t.rhs

    def test_lhs_mode_changes_only_lhs(self):
        rng = np.random.default_rng(0)
        c = corrupt(Triple(0, 10, 1), "lhs", rng, np.arange(5))
        assert c.rhs == 1 and c.rel == 10 and c.lhs != 0

    def test_two_entities_forced_choice(self):
        rng = np.random.default_rng(1)
        c = corrupt(Triple(0, 10, 1), "rhs", rng, np.array([0, 1]))
        assert c.rhs == 0

    def test_single_entity_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigError):
            corrupt(Triple(0, 10, 0), "rhs", rng, np.array([0]))

    def test_uniform_sampling(self):
        rng = np.random.default_rng(2)
        entities = np.arange(5)
        t = Triple(0, 10, 4)
        counts = {}
        n = 10000
        for _ in range(n):
            c = corrupt(t, "rhs", rng, entities)
            counts[c.rhs] = counts.get(c.rhs, 0) + 1
        assert set(counts) == {0, 1, 2, 3}
        for v in counts.values():
            assert abs(v / n - 0.25) < 0.02


    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(3)
        ids = np.array([0, 1, 2])
        with pytest.raises(ConfigError, match="corruption_mode"):
            corrupt(Triple(0, 10, 1), "middle", rng, ids)
        with pytest.raises(ConfigError, match="corruption_mode"):
            _corrupt_batch(ids, ids, "middle", rng, ids)

    def test_wrapper_draws_like_a_batch_of_one(self):
        entities = np.arange(6)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for t in [Triple(0, 10, 1), Triple(5, 11, 5), Triple(2, 10, 3)] * 5:
            c = corrupt(t, "both", rng_a, entities)
            lhs, rhs = _corrupt_batch(np.array([t.lhs]), np.array([t.rhs]), "both", rng_b,
                                      entities)
            assert c == Triple(int(lhs[0]), t.rel, int(rhs[0]))


class TestRankingLoss:
    def test_satisfied_margin(self):
        assert ranking_loss(-2.0, -1.0, 1.0) == 0.0

    def test_tie_costs_margin(self):
        assert ranking_loss(0.7, 0.7, 1.0) == 1.0

    def test_direct_formula(self):
        assert ranking_loss(0.5, -0.25, 1.0) == 1.75

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            e1, e2 = rng.normal(size=2) * 10
            assert ranking_loss(e1, e2, float(rng.uniform(0.1, 5))) >= 0.0


def make_state(form, seed=0, n=6, d=3, p=3):
    rng = np.random.default_rng(seed)
    emb = init_embeddings(n, d, rng)
    params = init_params(form, d, p, rng)
    return emb, params


class TestSgdStep:
    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_satisfied_batch_is_noop(self, form):
        emb, params = make_state(form)
        config = TrainConfig(margin=1e-9)
        pos = Triple(0, 4, 1)
        neg = Triple(0, 4, 2)
        # pick an ordering that already satisfies the tiny margin
        if energy(pos, emb, params) + config.margin >= energy(neg, emb, params):
            pos, neg = neg, pos
        before_emb = emb.vectors.copy()
        before_params = [a.copy() for a in params.arrays()]
        loss = sgd_step([(pos, neg)], emb, params, config)
        assert loss == 0.0
        assert np.array_equal(emb.vectors, before_emb)
        for a, b in zip(params.arrays(), before_params):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_single_pair_matches_analytic_gradients(self, form):
        emb, params = make_state(form, seed=8)
        lr = 1e-3
        config = TrainConfig(learning_rate=lr, margin=10.0)  # force active hinge
        pos = Triple(0, 4, 1)
        neg = Triple(2, 4, 3)
        g_pos = energy_gradients(pos, emb, params)
        g_neg = energy_gradients(neg, emb, params)
        expect_params = [a - lr * (gp - gn) for a, gp, gn in
                         zip((x.copy() for x in params.arrays()),
                             g_pos.params.arrays(), g_neg.params.arrays())]
        expect_emb = emb.vectors.copy()
        for t, g, sign in [(pos, g_pos, +1.0), (neg, g_neg, -1.0)]:
            expect_emb[t.lhs] -= lr * sign * g.d_lhs
            expect_emb[t.rel] -= lr * sign * g.d_rel
            expect_emb[t.rhs] -= lr * sign * g.d_rhs
        loss = sgd_step([(pos, neg)], emb, params, config)
        assert loss > 0
        for got, want in zip(params.arrays(), expect_params):
            assert np.allclose(got, want, atol=1e-10)
        assert np.allclose(emb.vectors, expect_emb, atol=1e-10)

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_batch_gradient_matches_oracle(self, form):
        # Ids 0-3 are entities and 4-5 relations. Eight pairs over four
        # entities repeat ids in every slot; each corruption keeps its
        # positive's relation, as the pair kernel requires.
        emb, params = make_state(form, seed=21, n=6, d=3, p=2)
        rng = np.random.default_rng(22)
        emb.vectors[:] = rng.uniform(-1, 1, size=emb.vectors.shape)
        for a in params.arrays():
            a[:] = rng.uniform(-1, 1, size=a.shape)
        pos = np.array([[0, 4, 1], [1, 4, 2], [2, 5, 3], [3, 5, 0],
                        [0, 5, 2], [1, 4, 3], [2, 4, 0], [3, 5, 1]])
        neg = pos.copy()
        neg[:4, 2] = [3, 0, 1, 2]   # rhs corrupted
        neg[4:, 0] = [1, 2, 3, 0]   # lhs corrupted
        formula = energy_linear_formula if form == LINEAR else energy_bilinear_formula
        vectors = emb.vectors

        def energies(rows):
            return np.array([formula(vectors[l], vectors[r], vectors[h],
                                     *params.arrays()) for l, r, h in rows])

        # a margin in the widest gap between the pairs' energy differences,
        # so some pairs are active, some are not, and none sits near the kink
        diffs = np.sort(energies(neg) - energies(pos))
        gaps = [(b - a, (a + b) / 2) for a, b in zip(diffs, diffs[1:]) if a > 0]
        gap, margin = max(gaps)
        assert gap > 1e-2
        active = (energies(neg) - energies(pos)) < margin
        assert active.any() and not active.all()

        def loss():
            return np.maximum(0.0, margin + energies(pos) - energies(neg)).sum()

        targets = list(params.arrays()) + [emb.vectors]
        expect = [finite_difference(loss, a.reshape(-1)).reshape(a.shape)
                  for a in targets]
        before = [a.copy() for a in targets]
        pair_ids = np.stack((pos[:, 0], neg[:, 0], pos[:, 2], neg[:, 2], pos[:, 1]))
        _sgd_step_arrays(np.ones(len(pos), dtype=bool), pair_ids,
                         Workspace(emb.vectors, params, len(pos)),
                         TrainConfig(learning_rate=1.0, margin=margin))
        for i, (a, b, fd) in enumerate(zip(targets, before, expect)):
            analytic = b - a   # learning rate 1: the step is the gradient
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-5)
            rel_err = np.abs(fd - analytic) / denom
            assert rel_err.max() < 1e-4, f"{form} array {i}: {rel_err.max()}"

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    @pytest.mark.parametrize("case", ["mixed", "all active", "all inactive"])
    def test_step_runs_on_the_active_pairs(self, form, case):
        # One batch of 32 pairs over entities 0-9 and relations 10-11.
        # Pairs 28-31 alone name entity 9 and relation 11, and are not
        # counted; the margin sits in the widest gap of the other pairs'
        # energy gaps, so some counted pairs are active and some not. The
        # update must be the gradient of the active pairs' hinge losses by
        # the oracle formulas, and rows no active pair names stay bitwise.
        n, m = 12, 32
        emb, params = make_state(form, seed=31, n=n, d=3, p=2)
        rng = np.random.default_rng(32)
        emb.vectors[:] = rng.uniform(-1, 1, size=emb.vectors.shape)
        params.buf[:] = rng.uniform(-1, 1, size=params.buf.shape)
        pos = rng.integers(0, 9, size=(m, 3))
        pos[:, 1] = 10
        pos[28:] = [[9, 11, 0], [1, 11, 9], [9, 11, 9], [2, 11, 3]]
        neg = pos.copy()
        side = rng.integers(0, 2, size=m) * 2   # the lhs or the rhs corrupted
        for i in range(m):
            neg[i, side[i]] = (pos[i, side[i]] + 1 + rng.integers(8)) % 9
        neg[28:, 0] = 9
        formula = energy_linear_formula if form == LINEAR else energy_bilinear_formula
        vectors = emb.vectors

        def energies(rows):
            return np.array([formula(vectors[l], vectors[r], vectors[h],
                                     *params.arrays()) for l, r, h in rows])

        gaps = energies(neg) - energies(pos)
        counted = np.ones(m, dtype=bool)
        if case == "all active":
            margin = float(gaps.max()) + 1.0
        else:
            counted[28:] = False
            cuts = np.sort(gaps[:28])
            width, margin = max((b - a, (a + b) / 2) for a, b in zip(cuts, cuts[1:]))
            assert width > 1e-2
            if case == "all inactive":
                counted[:] = False
        active = counted & (gaps < margin)
        if case == "mixed":
            assert 0 < active.sum() < counted.sum()
            named = [set(np.concatenate([pos[mask], neg[mask]]).ravel()) for mask in (active, ~active)]
            assert {9, 11} <= named[1] - named[0] and named[0] & named[1]
        assert active.any() == (case != "all inactive") and active.all() == (case == "all active")

        def loss():
            return np.maximum(0.0, margin + energies(pos) - energies(neg))[active].sum()

        targets = [params.buf, emb.vectors]
        expect = [finite_difference(loss, a.reshape(-1)).reshape(a.shape) for a in targets]
        before = [a.copy() for a in targets]
        pair_ids = np.stack((pos[:, 0], neg[:, 0], pos[:, 2], neg[:, 2], pos[:, 1]))
        losses = _sgd_step_arrays(counted, pair_ids, Workspace(emb.vectors, params, m),
                                  TrainConfig(learning_rate=1.0, margin=margin))
        assert np.array_equal(losses > 0, gaps < margin)
        untouched = sorted(set(range(n)) - set(np.concatenate([pos[active], neg[active]]).ravel()))
        assert emb.vectors[untouched].tobytes() == before[1][untouched].tobytes()
        if case == "all inactive":
            assert params.buf.tobytes() == before[0].tobytes()
        for i, (a, b, fd) in enumerate(zip(targets, before, expect)):
            analytic = b - a   # learning rate 1: the step is the gradient
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-5)
            assert (np.abs(fd - analytic) / denom).max() < 1e-4, (form, case, i)

    def test_only_touched_rows_change(self):
        emb, params = make_state(LINEAR, seed=4, n=20)
        before = emb.vectors.copy()
        pos = Triple(0, 4, 1)
        neg = Triple(2, 4, 1)
        sgd_step([(pos, neg)], emb, params, TrainConfig(margin=10.0))
        touched = {0, 1, 2, 4}
        for i in range(20):
            if i not in touched:
                assert np.array_equal(emb.vectors[i], before[i]), i

    def test_empty_batch_is_config_error(self):
        emb, params = make_state(LINEAR)
        with pytest.raises(ConfigError, match="at least one pair"):
            sgd_step([], emb, params, TrainConfig())

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_pair_with_two_relations_is_config_error(self, form):
        emb, params = make_state(form)
        before = (emb.vectors.copy(), params.buf.copy())
        batch = [(Triple(0, 4, 1), Triple(2, 4, 1)), (Triple(0, 4, 1), Triple(0, 5, 2))]
        with pytest.raises(ConfigError, match="relation"):
            sgd_step(batch, emb, params, TrainConfig(margin=10.0))
        assert np.array_equal(emb.vectors, before[0]) and np.array_equal(params.buf, before[1])

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_pair_sums_match_per_triple_gradients(self, form):
        # A stack of two models, eight pairs each over four entities (ids
        # 0-3) and two relations (4-5), ids repeating in every slot, some
        # pairs active, some not and one not counted. The step sums each
        # pair's terms before they meet its relation; its update must still
        # be the +- sum of the per-triple gradients of the active pairs, to
        # rounding. A regrouping or slot-order error would show far above
        # 1e-12, where the finite-difference oracle (1e-4) cannot see it.
        n, k = 6, 2
        rng = np.random.default_rng(41)
        states = []
        for f in range(k):
            emb, params = make_state(form, seed=40 + f, n=n, d=3, p=2)
            emb.vectors[:] = rng.uniform(-1, 1, size=emb.vectors.shape)
            params.buf[:] = rng.uniform(-1, 1, size=params.buf.shape)
            states.append((emb, params))
        pos = rng.integers(0, 4, size=(k, 8, 3))
        pos[..., 1] = rng.integers(4, 6, size=(k, 8))
        neg = pos.copy()
        side = rng.integers(0, 2, size=(k, 8)) * 2   # the lhs or the rhs corrupted
        for f, i in np.ndindex(k, 8):
            neg[f, i, side[f, i]] = (pos[f, i, side[f, i]] + 1 + rng.integers(3)) % 4
        counted = np.ones((k, 8), dtype=bool)
        counted[1, 3] = False

        def triples(a):
            return [Triple(*map(int, row)) for row in a]

        gaps = [[energy(t_neg, *states[f]) - energy(t_pos, *states[f])
                 for t_pos, t_neg in zip(triples(pos[f]), triples(neg[f]))]
                for f in range(k)]
        # a margin in the widest gap between the pairs' energy gaps that
        # leaves both models with active and inactive counted pairs
        cuts = sorted(np.concatenate(gaps))
        width, margin = max((b - a, (a + b) / 2) for a, b in zip(cuts, cuts[1:])
                            if all(0 < sum(g < (a + b) / 2 for g in np.array(fg)[counted[f]])
                                   < counted[f].sum() for f, fg in enumerate(gaps)))
        assert width > 1e-3

        want_params = [params.buf.copy() for _, params in states]
        want_emb = [emb.vectors.copy() for emb, _ in states]
        for f, (emb, params) in enumerate(states):
            for i, (t_pos, t_neg) in enumerate(zip(triples(pos[f]), triples(neg[f]))):
                if not (counted[f, i] and gaps[f][i] < margin):
                    continue
                for t, sign in ((t_pos, 1.0), (t_neg, -1.0)):
                    g = energy_gradients(t, emb, params)
                    want_params[f] -= sign * g.params.buf
                    for row, d_row in zip((t.lhs, t.rel, t.rhs), g.d_rows):
                        want_emb[f][row] -= sign * d_row

        emb = EmbeddingTable(np.stack([emb.vectors for emb, _ in states]))
        params = states[0][1].from_buffer(np.stack([p.buf for _, p in states]), 2, 3)
        ids = np.stack((pos[..., 0], neg[..., 0], pos[..., 2], neg[..., 2], pos[..., 1]),
                       axis=1) + n * np.arange(k)[:, None, None]
        _sgd_step_arrays(counted, ids, Workspace(emb.vectors, params, 8),
                         TrainConfig(learning_rate=1.0, margin=margin))
        for f in range(k):
            assert np.abs(params.buf[f] - want_params[f]).max() <= 1e-12, (form, f)
            assert np.abs(emb.vectors[f] - want_emb[f]).max() <= 1e-12, (form, f)
            assert not np.array_equal(params.buf[f], states[f][1].buf)   # it did update

    def test_nonfinite_aborts(self):
        emb, params = make_state(LINEAR)
        emb.vectors[0, 0] = np.nan
        with pytest.raises(NumericalError):
            sgd_step([(Triple(0, 4, 1), Triple(2, 4, 1))], emb, params, TrainConfig())

    def test_overflowing_update_aborts_before_any_write(self):
        # every gradient is finite, but not once scaled by the learning rate:
        # the step checks what it would apply, so the model stays as it was
        emb, params = make_state(LINEAR, seed=3)
        params.buf *= 50
        before = (emb.vectors.tobytes(), params.buf.tobytes())
        batch = [(Triple(0, 4, 1), Triple(2, 4, 3))]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            sgd_step(batch, emb, params, TrainConfig(learning_rate=1.7e308, margin=1e4))
        assert (emb.vectors.tobytes(), params.buf.tobytes()) == before

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_repeated_rows_take_every_update(self, form):
        # eight active pairs over four entities and two relations: each
        # entity row is in the batch 8 times and each relation row 4 times.
        # The step subtracts a row's updates one by one; the result must be
        # E minus the exactly rounded sum of them, to the rounding that 8
        # subtractions allow (8 * 2**-53 < 1e-15 of the terms' magnitudes)
        n, m, d = 6, 8, 3
        emb, params = make_state(form, seed=70, n=n, d=d, p=2)
        pair = np.arange(m)
        ids = np.stack([(pair + slot) % 4 for slot in range(4)] + [4 + pair % 2])
        ws = Workspace(emb.vectors, params, m)
        before = emb.vectors.copy()
        config = TrainConfig(margin=1e3, learning_rate=0.5)
        assert (_sgd_step_arrays(np.ones(m, dtype=bool), ids, ws, config) > 0).any()
        updates = ws.d_rows.copy()   # the row gradients the step subtracted
        assert not np.array_equal(emb.vectors, before)
        for row, j in np.ndindex(n, d):
            terms = [before[row, j], *(-updates[ids == row][:, j])]
            assert len(terms) == (9 if row < 4 else 5)
            want = math.fsum(terms)
            assert abs(emb.vectors[row, j] - want) <= 1e-15 * sum(map(abs, terms)), (row, j)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_embeddings_updated_in_place(self, layout):
        emb, params = make_state(LINEAR, seed=12)
        want_emb, want_params = EmbeddingTable(emb.vectors.copy()), params.copy()
        batch = [(Triple(0, 4, 1), Triple(2, 4, 3)), (Triple(1, 5, 0), Triple(1, 5, 2))]
        config = TrainConfig(margin=10.0)
        sgd_step(batch, want_emb, want_params, config)
        if layout == "fortran":
            vectors = np.asfortranarray(emb.vectors)
        else:   # every other column of a wider array
            vectors = np.repeat(emb.vectors, 2, axis=1)[:, ::2]
        assert not vectors.flags.c_contiguous
        table = EmbeddingTable(vectors)
        sgd_step(batch, table, params, config)
        assert table.vectors is vectors
        assert vectors.tobytes() == want_emb.vectors.tobytes()
        assert params.buf.tobytes() == want_params.buf.tobytes()

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    @pytest.mark.parametrize("layout", ["C", "fortran", "strided"])
    def test_is_the_epochs_step_bitwise(self, form, layout):
        # sgd_step runs _sgd_step_arrays on the batch's rows: its loss,
        # embeddings and parameters are bitwise those of that step on a
        # workspace over the whole table, a C-contiguous copy. Eight active
        # pairs over four entities and two relations of a 20-row table
        # repeat rows in every slot.
        n, m = 20, 8
        emb, params = make_state(form, seed=90, n=n, d=3, p=2)
        pair = np.arange(m)
        ents, rels = np.array([3, 7, 11, 15]), np.array([17, 19])
        ids = np.stack([ents[(pair + slot) % 4] for slot in range(4)] + [rels[pair % 2]])
        batch = [(Triple(int(l), int(r), int(h)), Triple(int(cl), int(r), int(ch)))
                 for l, cl, h, ch, r in ids.T]
        config = TrainConfig(margin=1e3, learning_rate=0.5)
        want_vectors, want_params = emb.vectors.copy(), params.copy()
        ws = Workspace(want_vectors, want_params, m)
        want_loss = float(_sgd_step_arrays(np.ones(m, dtype=bool), ids, ws, config).mean())
        assert not np.array_equal(want_vectors, emb.vectors)   # it did update
        if layout == "fortran":
            vectors = np.asfortranarray(emb.vectors)
        elif layout == "strided":   # every other column of a wider array
            vectors = np.repeat(emb.vectors, 2, axis=1)[:, ::2]
        else:
            vectors = emb.vectors
        assert vectors.flags.c_contiguous == (layout == "C")
        loss = sgd_step(batch, EmbeddingTable(vectors), params, config)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert np.ascontiguousarray(vectors).tobytes() == want_vectors.tobytes()
        assert params.buf.tobytes() == want_params.buf.tobytes()

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_one_call_allocates_nothing_the_size_of_the_table(self, form):
        # energy, energy_gradients and sgd_step build their workspace over
        # the rows their triples name, so at a WordNet-sized table what a
        # call allocates is bounded by its batch, not by the table
        n, d = 40_961, 10
        emb, params = make_state(form, seed=91, n=n, d=d, p=d)
        pos, neg = Triple(5, n - 1, 40_000), Triple(20_000, n - 1, 40_000)
        calls = [lambda: energy(pos, emb, params),
                 lambda: energy_gradients(pos, emb, params),
                 lambda: sgd_step([(pos, neg)], emb, params, TrainConfig(margin=1e3))]
        for call in calls:
            call()
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < emb.vectors.nbytes // 8, (call, peak)

    def test_mean_loss_reported_before_update(self):
        emb, params = make_state(BILINEAR, seed=9)
        config = TrainConfig(margin=5.0)
        pos, neg = Triple(0, 4, 1), Triple(2, 4, 3)
        expect = ranking_loss(energy(pos, emb, params), energy(neg, emb, params),
                              config.margin)
        got = sgd_step([(pos, neg)], emb, params, config)
        assert got == pytest.approx(expect, abs=1e-12)


class TestWorkspace:
    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    @pytest.mark.parametrize("k", [1, 3])
    def test_reuse_carries_no_state(self, form, k):
        # An epoch runs every step through one workspace. A step after an
        # all-inactive step (the early return) and a step after one with
        # another mask must each be bitwise the same step on a fresh one.
        n, m = 8, 16
        rng = np.random.default_rng(50 + k)
        states = [make_state(form, seed=60 + f, n=n, d=3, p=2) for f in range(k)]
        emb = EmbeddingTable(np.stack([e.vectors for e, _ in states]))
        params = states[0][1].from_buffer(np.stack([p.buf for _, p in states]), 2, 3)

        def batch():
            ids = rng.integers(0, 4, size=(k, 5, m))
            ids[:, 4] = rng.integers(4, n, size=(k, m))   # the relation slot
            return ids + n * np.arange(k)[:, None, None]

        # the prior steps' pairs all pass the hinge; the step under test has
        # pairs on both sides of it
        wide, narrow = TrainConfig(margin=10.0, learning_rate=0.1), TrainConfig(margin=1e-3)
        ws = Workspace(emb.vectors, params, m)
        mask = rng.integers(0, 2, size=(k, m)).astype(bool)
        mask[:, 0] = True
        before = (emb.vectors.copy(), params.buf.copy())
        priors = [(np.zeros((k, m), dtype=bool), "all inactive"), (~mask, "another mask")]
        for prior, label in priors:
            _sgd_step_arrays(prior, batch(), ws, wide)
            if label == "all inactive":
                assert np.array_equal(emb.vectors, before[0]), label
                assert np.array_equal(params.buf, before[1]), label
            ids = batch()
            fresh_emb, fresh_params = EmbeddingTable(emb.vectors.copy()), params.copy()
            fresh = Workspace(fresh_emb.vectors, fresh_params, m)
            want = _sgd_step_arrays(mask, ids, fresh, narrow).copy()
            assert (want[mask] > 0).any() and (want[mask] == 0).any(), label
            got = _sgd_step_arrays(mask, ids, ws, narrow)
            assert got.tobytes() == want.tobytes(), label
            assert emb.vectors.tobytes() == fresh_emb.vectors.tobytes(), label
            assert params.buf.tobytes() == fresh_params.buf.tobytes(), label
        assert not np.array_equal(params.buf, before[1])   # the steps did update

    @staticmethod
    def stack(form, k, seed, n=8):
        """k models' embeddings and parameters; k = 0: one model, no stack axis."""
        states = [make_state(form, seed=seed + f, n=n, d=3, p=2) for f in range(max(k, 1))]
        vectors = np.stack([e.vectors for e, _ in states])
        params = states[0][1].from_buffer(np.stack([p.buf for _, p in states]), 2, 3)
        return (vectors[0], params[0]) if k == 0 else (vectors, params)

    @staticmethod
    def batches(k, steps, m, seed, n=8):
        """Each step's ids, rows of the flat view in the pair layout, and mask."""
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(steps):
            ids = rng.integers(0, 4, size=(max(k, 1), 5, m))
            ids[:, 4] = rng.integers(4, n, size=(max(k, 1), m))   # the relation slot
            ids += n * np.arange(max(k, 1))[:, None, None]
            mask = rng.integers(0, 4, size=(max(k, 1), m)) > 0
            out.append((ids[0], mask[0]) if k == 0 else (ids, mask))
        return out

    @pytest.mark.parametrize("stacked_form", [LINEAR, BILINEAR])
    def test_live_workspaces_step_apart(self, stacked_form):
        # Each workspace binds its kernel to its own arrays: three live at
        # once and stepped in turn must each give, bit for bit, the same
        # steps run alone on copies
        m, steps, config = 6, 4, TrainConfig(margin=2.0, learning_rate=0.1)
        cases = [(LINEAR, 0, 10), (BILINEAR, 0, 20), (stacked_form, 3, 30)]
        states = [self.stack(form, k, seed) for form, k, seed in cases]
        plans = [self.batches(k, steps, m, seed) for _, k, seed in cases]
        alone = []
        for (vectors, params), plan in zip(states, plans):
            vectors, params = vectors.copy(), params.copy()
            ws = Workspace(vectors, params, m)
            losses = [_sgd_step_arrays(mask, ids, ws, config).copy() for ids, mask in plan]
            alone.append((losses, vectors, params.buf))
        spaces = [Workspace(vectors, params, m) for vectors, params in states]
        together = [[] for _ in cases]
        for step in range(steps):
            for ws, plan, losses in zip(spaces, plans, together):
                ids, mask = plan[step]
                losses.append(_sgd_step_arrays(mask, ids, ws, config).copy())
        for (vectors, params), losses, (want_losses, want_vectors, want_buf) in zip(
                states, together, alone):
            assert [x.tobytes() for x in losses] == [x.tobytes() for x in want_losses]
            assert vectors.tobytes() == want_vectors.tobytes()
            assert params.buf.tobytes() == want_buf.tobytes()
            assert any((x > 0).any() for x in losses)   # the steps did update

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_rebuilt_workspace_steps_the_kept_folds(self, form):
        # train_folds rebuilds the workspace over vectors[keep] and
        # params[keep], copies, when a fold leaves: the rebuilt one steps
        # those and leaves the dropped stack's arrays as they were
        m, config = 6, TrainConfig(margin=2.0, learning_rate=0.1)
        vectors, params = self.stack(form, 3, 40)
        (ids, mask), = self.batches(3, 1, m, 41)
        _sgd_step_arrays(mask, ids, Workspace(vectors, params, m), config)
        keep = [0, 2]
        kept_vectors, kept_params = vectors[keep], params[keep]
        dropped = (vectors.tobytes(), params.buf.tobytes())
        before = (kept_vectors.copy(), kept_params.buf.copy())
        ws = Workspace(kept_vectors, kept_params, m)
        (ids, mask), = self.batches(2, 1, m, 42)
        assert (_sgd_step_arrays(mask, ids, ws, config) > 0).any()
        assert (vectors.tobytes(), params.buf.tobytes()) == dropped
        assert not np.array_equal(kept_vectors, before[0])
        assert not np.array_equal(kept_params.buf, before[1])

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_refuses_a_table_that_is_not_c_contiguous(self, k, layout):
        # the step scatters through E as one axis: of any other array that
        # is a copy, and the step would leave E as it was
        states = [make_state(LINEAR, seed=95 + f, n=8, d=3, p=2) for f in range(k)]
        vectors = np.stack([e.vectors for e, _ in states])
        params = states[0][1].from_buffer(np.stack([p.buf for _, p in states]), 2, 3)
        if k == 1:   # one model: no stack axis
            vectors, params = vectors[0], params[0]
        if layout == "fortran":
            vectors = np.asfortranarray(vectors)
        else:   # every other column of a wider array
            vectors = np.repeat(vectors, 2, axis=-1)[..., ::2]
        with pytest.raises(ShapeError, match="C-contiguous"):
            Workspace(vectors, params, 4)
        Workspace(np.ascontiguousarray(vectors), params, 4)

    def test_epoch_steps_through_the_module_attribute(self, toy_split, monkeypatch):
        # The benchmark's tracer wraps trainer._sgd_step_arrays and counts a
        # step's pairs from its first argument, the counted mask: each epoch
        # must make one call per batch through that name.
        d, split = toy_split
        folds = [split.fold_sets(f) for f in range(2)]
        positives = [positives_of(train_ts) for train_ts, _, _ in folds]
        calls = []
        step = trainer._sgd_step_arrays

        def counting(*args, **kwargs):
            calls.append(args[0].copy())
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer, "_sgd_step_arrays", counting)
        config = TrainConfig(epochs_max=3, patience=10, batch_size=8)
        train_folds(positives, [valid_ts for _, valid_ts, _ in folds], d, LINEAR, 4, 4,
                    config, [1, 2])
        n_batches = -(-max(map(len, positives)) // config.batch_size)
        assert len(calls) == config.epochs_max * n_batches
        for epoch in range(config.epochs_max):
            counted = np.stack(calls[epoch * n_batches:(epoch + 1) * n_batches])
            assert counted.dtype == bool and counted.shape == (n_batches, 2, 8)
            assert counted.sum(axis=(0, 2)).tolist() == list(map(len, positives))

    def test_one_workspace_per_stack(self, tmp_path, monkeypatch):
        # train_folds builds the stack's workspace once and again only at
        # the end of an epoch at which a fold stopped and others go on
        d, ts = load_triples(write_triples(tmp_path / "toy.tsv", two_group_records()))
        split = make_folds(ts, 10, seed=0)
        folds = [split.fold_sets(f) for f in range(10)]
        built = []
        workspace = trainer.Workspace

        def counting(E, params, m):
            built.append(len(E))
            return workspace(E, params, m)

        monkeypatch.setattr(trainer, "Workspace", counting)
        config = TrainConfig(epochs_max=6, patience=2, batch_size=8, learning_rate=0.05)
        traces = [trace for _, trace in train_folds(
            [positives_of(train_ts) for train_ts, _, _ in folds],
            [valid_ts for _, valid_ts, _ in folds], d, BILINEAR, 4, 4, config,
            [100 + f for f in range(10)])]
        # the folds left in the stack after epoch e: those that ran past it,
        # and those epochs_max stopped at it; then the sizes at which it shrank
        runs = [len(t.epochs) for t in traces]
        sizes = [sum(r > e + 1 or (r == e + 1 and t.stop_reason == "epochs_max")
                     for r, t in zip(runs, traces)) for e in range(max(runs))]
        shrunk = [k for k, before in zip(sizes, [10] + sizes) if 0 < k < before]
        assert len(shrunk) >= 2 and len(shrunk) + 1 < max(runs)
        assert built == [10] + shrunk

    @pytest.mark.parametrize("k", [1, 3])
    def test_epoch_allocates_nothing_the_size_of_the_table(self, k):
        # a WordNet-sized table: an epoch's steps write only their batches'
        # rows, so what it allocates is bounded by its batches, not the table
        n, d, m = 40_961, 10, 32
        states = [make_state(BILINEAR, seed=80 + f, n=n, d=d, p=d) for f in range(k)]
        vectors = np.stack([e.vectors for e, _ in states])
        params = states[0][1].from_buffer(np.stack([p.buf for _, p in states]), d, d)
        ws = Workspace(vectors, params, m)
        rng = np.random.default_rng(81)
        positives = [TripleSet(rng.integers(0, n - 50, 3 * m), rng.integers(n - 50, n, 3 * m),
                               rng.integers(0, n - 50, 3 * m), np.ones(3 * m, dtype=np.int8))
                     for _ in range(k)]
        entity_ids = np.arange(n - 50)
        config = TrainConfig(margin=1e3, learning_rate=1e-6, batch_size=m)   # every pair active

        def epoch():
            rngs = [np.random.default_rng(f) for f in range(k)]
            return trainer._sgd_epoch(positives, rngs, ws, config, entity_ids)

        epoch()
        before = vectors.copy()
        tracemalloc.start()
        try:
            _, active = epoch()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert active.tolist() == [1.0] * k
        assert not np.array_equal(vectors, before)
        batch_bytes = k * 5 * m * d * 8   # one batch's row gradients
        assert peak <= 16 * batch_bytes < vectors.nbytes // 8, peak


@pytest.fixture
def toy_split(tmp_path):
    path = write_triples(tmp_path / "toy.tsv", two_group_records())
    d, ts = load_triples(path)
    split = make_folds(ts, 5, seed=0)
    return d, split


class TestTrain:
    def test_single_entity_rejected_before_any_epoch(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SME_LOG", "info")
        path = write_triples(tmp_path / "one.tsv", [("a", f"r{i}", "a", 1) for i in range(4)])
        d, ts = load_triples(path)
        train_ts, valid_ts, _ = make_folds(ts, 2, seed=0).fold_sets(0)
        with pytest.raises(ConfigError, match="at least 2 entities"):
            train(train_ts, valid_ts, d, LINEAR, 4, 4, TrainConfig())
        assert capsys.readouterr().out == ""

    def test_epochs_max_zero_rejected(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        with pytest.raises(ConfigError):
            train(train_ts, valid_ts, d, LINEAR, 4, 4, TrainConfig(epochs_max=0))

    def test_negative_seed_rejected(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            train(train_ts, valid_ts, d, LINEAR, 4, 4, TrainConfig(seed=-1))

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_training_positives_train_as_whole_training_set(self, k, tmp_path):
        # run_fold trains on fold_sets(i)[:2]; the model is bitwise the one
        # trained on the fold's whole training set, negatives included,
        # selected by full-length masks
        d, ts = load_triples(write_triples(tmp_path / "toy.tsv", two_group_records()))
        split = make_folds(ts, k, seed=3)
        config = TrainConfig(epochs_max=4, patience=2, batch_size=8, learning_rate=0.05, seed=7)
        for i in range(k):
            positives, valid_ts = split.fold_sets(i)[:2]
            in_train, in_valid, _ = fold_masks(split, i)
            whole = ts.subset(in_train)
            assert 0 < len(positives) < len(whole)
            for form in (LINEAR, BILINEAR):
                got, _ = train(positives, valid_ts, d, form, 4, 4, config)
                want, _ = train(whole, ts.subset(in_valid), d, form, 4, 4, config)
                assert got.emb.vectors.tobytes() == want.emb.vectors.tobytes(), (k, i, form)
                assert got.params.buf.tobytes() == want.params.buf.tobytes(), (k, i, form)

    def test_single_epoch_returns_post_epoch_snapshot(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        config = TrainConfig(epochs_max=1, patience=10**9, seed=1)
        model, trace = train(train_ts, valid_ts, d, LINEAR, 4, 4, config)
        assert len(trace.epochs) == 1
        norms = np.linalg.norm(model.emb.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_unit_norm_after_every_epoch(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        config = TrainConfig(epochs_max=4, patience=10, seed=2)
        model, trace = train(train_ts, valid_ts, d, BILINEAR, 4, 4, config)
        norms = np.linalg.norm(model.emb.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_determinism(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        config = TrainConfig(epochs_max=5, patience=10, seed=7)
        m1, _ = train(train_ts, valid_ts, d, BILINEAR, 4, 4, config)
        m2, _ = train(train_ts, valid_ts, d, BILINEAR, 4, 4, config)
        assert np.array_equal(m1.emb.vectors, m2.emb.vectors)
        for a, b in zip(m1.params.arrays(), m2.params.arrays()):
            assert np.array_equal(a, b)

    def test_early_stopping_respects_patience(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        config = TrainConfig(epochs_max=200, patience=3, seed=3,
                             learning_rate=1e-9)  # no real progress
        _, trace = train(train_ts, valid_ts, d, LINEAR, 4, 4, config)
        assert len(trace.epochs) < 200

    @pytest.mark.parametrize("aucs, best_epoch, stop_reason", [
        ([.5, .6, .6, .55, .7, .7, .7, .7], 4, "patience"),   # a tie is no improvement
        ([.5, .6, .7, .8, .9, .91, .92, .93], 7, "epochs_max"),
    ])
    def test_early_stopping_rule(self, toy_split, monkeypatch, aucs, best_epoch, stop_reason):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        config = TrainConfig(epochs_max=8, patience=3, seed=3)
        scripted = iter(aucs)
        monkeypatch.setattr(trainer.evaluator, "auc_pr", lambda scored: next(scripted))
        model, trace = train(train_ts, valid_ts, d, LINEAR, 4, 4, config)
        assert len(trace.epochs) == 8
        assert [r.val_auc for r in trace.epochs] == aucs
        assert (trace.best_epoch, trace.stop_reason) == (best_epoch, stop_reason)
        # the snapshot is the model after the best epoch
        scripted = iter(aucs)
        expect, _ = train(train_ts, valid_ts, d, LINEAR, 4, 4,
                          replace(config, epochs_max=best_epoch + 1))
        assert np.array_equal(model.emb.vectors, expect.emb.vectors)
        assert np.array_equal(model.params.buf, expect.params.buf)

    def test_trace_line_format(self, toy_split, capsys, monkeypatch):
        monkeypatch.setenv("SME_LOG", "info")
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        train(train_ts, valid_ts, d, LINEAR, 4, 4,
              TrainConfig(epochs_max=1, seed=0))
        out = capsys.readouterr().out
        assert out.startswith("epoch=0 loss=")
        assert "val_auc=" in out and "secs=" in out

    def test_epoch_lines_flushed_whole(self, toy_split, monkeypatch):
        """Each epoch line reaches the stream's flush before anything else is
        written, so the block buffers of ``--jobs`` workers sharing a file
        cannot split a line."""
        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.chunks = [""]   # what was written between flushes

            def write(self, text):
                self.chunks[-1] += text
                return super().write(text)

            def flush(self):
                self.chunks.append("")

        monkeypatch.setenv("SME_LOG", "info")
        recorder = Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        train(train_ts, valid_ts, d, LINEAR, 4, 4, TrainConfig(epochs_max=3, patience=5, seed=0))
        lines = recorder.getvalue().splitlines(keepends=True)
        assert len(lines) == 3 and all(line.startswith("epoch=") for line in lines)
        assert recorder.chunks == lines + [""]

    def test_loss_trend_on_learnable_data(self, toy_split):
        # mean epoch loss should head downward on an easy dataset
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        down = 0
        for seed in range(10):
            config = TrainConfig(epochs_max=30, patience=100, seed=seed)
            _, trace = train(train_ts, valid_ts, d, BILINEAR, 6, 6, config)
            losses = [r.loss for r in trace.epochs]
            if losses[-1] <= losses[0]:
                down += 1
        assert down >= 9

    def test_learns_toy_dataset(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        config = TrainConfig(epochs_max=120, patience=120, seed=0)
        _, trace = train(train_ts, valid_ts, d, BILINEAR, 6, 6, config)
        assert max(r.val_auc for r in trace.epochs) > 0.9

    def test_umls_loss_non_increasing_first_epochs(self):
        from conftest import load_canonical
        d, ts = load_canonical("umls")
        split = make_folds(ts, 10, seed=0)
        train_ts, valid_ts, _ = split.fold_sets(1)
        train_pos = positives_of(train_ts)
        assert len(train_pos) > 0
        down = 0
        for seed in range(10):
            config = TrainConfig(epochs_max=5, patience=100, seed=seed)
            _, trace = train(train_ts, valid_ts, d, BILINEAR, 10, 10, config)
            losses = [r.loss for r in trace.epochs]
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                down += 1
        assert down >= 9


class TestStackedFolds:
    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_fold_alone_matches_fold_in_stack(self, form, tmp_path):
        d, ts = load_triples(write_triples(tmp_path / "toy.tsv", two_group_records()))
        split = make_folds(ts, 10, seed=0)
        positives, valid = [], []
        for f in range(10):
            train_ts, valid_ts, _ = split.fold_sets(f)
            positives.append(positives_of(train_ts))
            valid.append(valid_ts)
        seeds = [100 + f for f in range(10)]
        # odd batch and output sizes too: the kernel's sums over the pairs
        # and over p are BLAS products, whose row and tail handling may
        # depend on the shape; each patience gives both stop reasons
        for batch, dim_d, dim_p, patience in [(8, 4, 4, 2), (5, 5, 3, 3), (3, 7, 2, 3)]:
            config = TrainConfig(epochs_max=6, patience=patience, batch_size=batch,
                                 learning_rate=0.05)
            stacked = train_folds(positives, valid, d, form, dim_d, dim_p, config, seeds)
            # the folds' batch counts differ by more than one, and some folds
            # stop on patience while others run on to epochs_max
            batches = [-(-len(pos) // config.batch_size) for pos in positives]
            assert max(batches) - min(batches) > 1
            assert {trace.stop_reason for _, trace in stacked} == {"patience", "epochs_max"}
            for f, (model, trace) in enumerate(stacked):
                train_ts, valid_ts, _ = split.fold_sets(f)
                alone, alone_trace = train(train_ts, valid_ts, d, form, dim_d, dim_p,
                                           replace(config, seed=seeds[f]))
                at = (batch, dim_d, dim_p, f)
                assert model.emb.vectors.tobytes() == alone.emb.vectors.tobytes(), at
                for a, b in zip(model.params.arrays(), alone.params.arrays()):
                    assert a.tobytes() == b.tobytes(), at
                assert ([(r.loss, r.val_auc) for r in trace.epochs]
                        == [(r.loss, r.val_auc) for r in alone_trace.epochs]), at
                assert trace.best_epoch == alone_trace.best_epoch, at
                assert trace.stop_reason == alone_trace.stop_reason, at

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    @pytest.mark.parametrize("batch", [32, 13])
    def test_fold_alone_matches_fold_in_stack_at_d25(self, form, batch, tmp_path, monkeypatch):
        # The backward runs on each step's active pairs, a stack at its
        # largest fold's count with the other folds padded by zero-weight
        # pairs. At d = p = 25, at the default batch and an odd one, the
        # folds' active counts differ within the stack's steps, and each
        # fold trained alone is bitwise that fold in the stack.
        d, ts = load_triples(write_triples(tmp_path / "toy.tsv", two_group_records()))
        split = make_folds(ts, 4, seed=0)
        sets = [split.fold_sets(f) for f in range(4)]
        positives = [positives_of(train_ts) for train_ts, _, _ in sets]
        valid = [valid_ts for _, valid_ts, _ in sets]
        seeds = [200 + f for f in range(4)]
        config = TrainConfig(epochs_max=4, patience=4, batch_size=batch, learning_rate=0.05)
        counts, step = [], trainer._sgd_step_arrays

        def spy(counted, ids, ws, config):
            losses = step(counted, ids, ws, config)
            counts.append(np.count_nonzero((losses > 0) & counted, axis=-1))
            return losses

        monkeypatch.setattr(trainer, "_sgd_step_arrays", spy)
        stacked = train_folds(positives, valid, d, form, 25, 25, config, seeds)
        monkeypatch.setattr(trainer, "_sgd_step_arrays", step)
        # steps whose folds' counts differ, some below the batch's width
        differ = [c for c in counts if c.min() < c.max()]
        assert len(differ) > len(counts) // 2 and any(c.max() < batch for c in differ)
        for f, (model, trace) in enumerate(stacked):
            [(alone, alone_trace)] = train_folds([positives[f]], [valid[f]], d, form, 25, 25,
                                                 config, [seeds[f]])
            assert model.emb.vectors.tobytes() == alone.emb.vectors.tobytes(), f
            assert model.params.buf.tobytes() == alone.params.buf.tobytes(), f
            assert ([(r.loss, r.val_auc, r.active) for r in trace.epochs]
                    == [(r.loss, r.val_auc, r.active) for r in alone_trace.epochs]), f

    def test_validation_plan_built_once_per_fold(self, tmp_path, monkeypatch):
        d, ts = load_triples(write_triples(tmp_path / "toy.tsv", two_group_records()))
        split = make_folds(ts, 4, seed=0)
        positives, valid = [], []
        for f in range(4):
            train_ts, valid_ts, _ = split.fold_sets(f)
            positives.append(positives_of(train_ts))
            valid.append(valid_ts)
        built, scored = [], []
        plan_of = trainer.scoring_plan

        def count_plans(n, p, lhs, *args):
            built.append(lhs)
            return plan_of(n, p, lhs, *args)

        def count_scores(emb, params, lhs, rel, rhs, plan=None):
            scored.append((lhs, plan))
            return energies_batch(emb, params, lhs, rel, rhs, plan=plan)

        monkeypatch.setattr(trainer, "scoring_plan", count_plans)
        monkeypatch.setattr(trainer, "energies_batch", count_scores)
        config = TrainConfig(epochs_max=5, patience=2, batch_size=8, learning_rate=0.05)
        trained = trainer.train_folds(positives, valid, d, LINEAR, 4, 4, config, [1, 2, 3, 4])
        # one plan per fold, built before the first epoch, each scoring its
        # own fold's validation set every epoch the fold ran
        assert [id(lhs) for lhs in built] == [id(val.lhs) for val in valid]
        assert len(scored) == sum(len(trace.epochs) for _, trace in trained) > 2 * len(valid)
        plans = {id(lhs): plan for lhs, plan in scored}
        assert len(plans) == len(valid) and None not in plans.values()
        assert len({id(plan) for plan in plans.values()}) == len(valid)

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_returned_models_own_their_memory(self, form, tmp_path):
        d, ts = load_triples(write_triples(tmp_path / "toy.tsv", two_group_records()))
        split = make_folds(ts, 4, seed=0)
        positives, valid = [], []
        for f in range(4):
            train_ts, valid_ts, _ = split.fold_sets(f)
            positives.append(positives_of(train_ts))
            valid.append(valid_ts)
        config = TrainConfig(epochs_max=12, patience=2, batch_size=8, learning_rate=0.05)
        seeds = [30 + f for f in range(4)]
        trained = train_folds(positives, valid, d, form, 4, 4, config, seeds)
        # the best epoch is not the last, so later epochs ran after the snapshot
        assert any(t.best_epoch < len(t.epochs) - 1 for _, t in trained)
        for f, (model, trace) in enumerate(trained):
            [(at_best, _)] = train_folds([positives[f]], [valid[f]], d, form, 4, 4,
                                         replace(config, epochs_max=trace.best_epoch + 1),
                                         [seeds[f]])
            assert model.emb.vectors.tobytes() == at_best.emb.vectors.tobytes(), f
            assert model.params.buf.tobytes() == at_best.params.buf.tobytes(), f
        models = [model for model, _ in trained]
        for model in models:
            before = [(m.emb.vectors.tobytes(), m.params.buf.tobytes()) for m in models]
            model.emb.vectors[...] = np.nan
            model.params.buf[...] = np.nan
            for other, state in zip(models, before):
                if other is not model:
                    assert (other.emb.vectors.tobytes(), other.params.buf.tobytes()) == state

    def test_active_share_counts_positive_hinges(self, toy_split, monkeypatch):
        # each epoch's share of a fold's pairs with a positive hinge, against
        # a count taken from every step's losses and counted mask
        d, split = toy_split
        folds = [split.fold_sets(f) for f in range(2)]
        positives = [positives_of(train_ts) for train_ts, _, _ in folds]
        counts = []
        step = trainer._sgd_step_arrays

        def counting(counted, *args):
            losses = step(counted, *args)
            counts.append(((losses > 0) & counted).sum(axis=-1))
            return losses

        monkeypatch.setattr(trainer, "_sgd_step_arrays", counting)
        config = TrainConfig(epochs_max=5, patience=10, batch_size=8, learning_rate=0.1)
        trained = train_folds(positives, [valid_ts for _, valid_ts, _ in folds], d, BILINEAR,
                              4, 4, config, [1, 2])
        per_epoch = np.reshape(counts, (config.epochs_max, -1, 2)).sum(axis=1)
        for f, (_, trace) in enumerate(trained):
            shares = [r.active for r in trace.epochs]
            assert shares == (per_epoch[:, f] / len(positives[f])).tolist(), f
            assert 0 < shares[-1] < shares[0] <= 1, shares

    @pytest.mark.parametrize("where", ["embedding", "parameter"])
    def test_nan_mid_epoch_ends_training_at_that_epoch(self, toy_split, monkeypatch,
                                                       capsys, where):
        # no step checks what it computes: a NaN planted in the second step
        # of epoch 2 ends training at the end of that epoch, before its line
        monkeypatch.setenv("SME_LOG", "info")
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        config = TrainConfig(epochs_max=5, patience=10, batch_size=8)
        n_batches = -(-train_ts.n_positive // config.batch_size)
        steps = []
        step = trainer._sgd_step_arrays

        def planting(counted, ids, ws, config):
            steps.append(len(steps))
            if len(steps) == 2 * n_batches + 2:
                if where == "embedding":
                    ws.flat[ids[..., 0, 0]] = np.nan
                else:
                    ws.param_buf[..., 0] = np.nan
            return step(counted, ids, ws, config)

        monkeypatch.setattr(trainer, "_sgd_step_arrays", planting)
        with pytest.raises(NumericalError, match="non-finite"):
            train(train_ts, valid_ts, d, LINEAR, 4, 4, config)
        assert len(steps) == 3 * n_batches
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["epoch=0", "epoch=1"]

    def test_epoch_loss_is_mean_pair_loss(self, toy_split):
        # With a vanishing learning rate the weights stay put, so the epoch's
        # loss is the mean hinge of its pairs at the initial weights, drawn
        # here from the same stream. The last batch is short.
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        config = TrainConfig(epochs_max=1, batch_size=8, learning_rate=1e-300, seed=4)
        pos = positives_of(train_ts)
        assert len(pos) % config.batch_size > 1
        _, trace = train(train_ts, valid_ts, d, LINEAR, 4, 4, config)

        rng = np.random.Generator(np.random.PCG64(config.seed))
        emb = init_embeddings(len(d), 4, rng)
        emb.normalize_rows()
        params = init_params(LINEAR, 4, 4, rng)
        perm = rng.permutation(len(pos))
        lhs, rel, rhs = pos.lhs[perm], pos.rel[perm], pos.rhs[perm]
        c_lhs, c_rhs = _corrupt_batch(lhs, rhs, "both", rng, d.entity_id_array())
        hinge = np.maximum(0.0, config.margin + energies_batch(emb, params, lhs, rel, rhs)
                           - energies_batch(emb, params, c_lhs, rel, c_rhs))
        assert trace.epochs[0].loss == pytest.approx(hinge.mean(), rel=1e-12)

    def test_summary(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        _, trace = train(train_ts, valid_ts, d, LINEAR, 4, 4,
                         TrainConfig(epochs_max=3, patience=10, seed=1))
        summary = trace.summary()
        assert summary["epochs_run"] == 3 and summary["stop_reason"] == "epochs_max"
        aucs = [r.val_auc for r in trace.epochs]
        assert summary["best_epoch"] == aucs.index(max(aucs))
        assert summary["secs"] == sum(r.secs for r in trace.epochs) > 0
        assert summary["active"] == [r.active for r in trace.epochs]
        assert all(0 < share <= 1 for share in summary["active"])
