from dataclasses import replace

import numpy as np
import pytest

from sme import trainer
from sme.dataset import Triple, load_triples, make_folds, positives_of
from sme.errors import ConfigError, NumericalError
from sme.model import (BILINEAR, LINEAR, energies_batch, energy, energy_gradients,
                       init_embeddings, init_params)
from sme.trainer import (TrainConfig, _corrupt_batch, _sgd_step_arrays, corrupt,
                         ranking_loss, sgd_step, train, train_folds)

from conftest import two_group_records, write_triples
from oracles import (energy_bilinear_formula, energy_linear_formula,
                     finite_difference)


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
            _corrupt_batch(ids, ids + 10, ids, "middle", rng, ids)

    def test_wrapper_draws_like_a_batch_of_one(self):
        entities = np.arange(6)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for t in [Triple(0, 10, 1), Triple(5, 11, 5), Triple(2, 10, 3)] * 5:
            c = corrupt(t, "both", rng_a, entities)
            lhs, rel, rhs = _corrupt_batch(np.array([t.lhs]), np.array([t.rel]),
                                           np.array([t.rhs]), "both", rng_b, entities)
            assert c == Triple(int(lhs[0]), int(rel[0]), int(rhs[0]))


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
    emb = init_embeddings(n, d, rng, frozenset({4, 5}))
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
        # entities repeat ids in every slot, and pair 0's corruption has a
        # different relation from its positive.
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
        neg[0, 1] = 5
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
        _sgd_step_arrays(np.ones(len(pos), dtype=bool), np.concatenate((pos, neg)).T,
                         emb, params, TrainConfig(learning_rate=1.0, margin=margin))
        for i, (a, b, fd) in enumerate(zip(targets, before, expect)):
            analytic = b - a   # learning rate 1: the step is the gradient
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-5)
            rel_err = np.abs(fd - analytic) / denom
            assert rel_err.max() < 1e-4, f"{form} array {i}: {rel_err.max()}"

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

    def test_nonfinite_aborts(self):
        emb, params = make_state(LINEAR)
        emb.vectors[0, 0] = np.nan
        with pytest.raises(NumericalError):
            sgd_step([(Triple(0, 4, 1), Triple(2, 4, 1))], emb, params, TrainConfig())

    def test_mean_loss_reported_before_update(self):
        emb, params = make_state(BILINEAR, seed=9)
        config = TrainConfig(margin=5.0)
        pos, neg = Triple(0, 4, 1), Triple(2, 5, 3)
        expect = ranking_loss(energy(pos, emb, params), energy(neg, emb, params),
                              config.margin)
        got = sgd_step([(pos, neg)], emb, params, config)
        assert got == pytest.approx(expect, abs=1e-12)


@pytest.fixture
def toy_split(tmp_path):
    path = write_triples(tmp_path / "toy.tsv", two_group_records())
    d, ts = load_triples(path)
    split = make_folds(ts, 5, seed=0)
    return d, split


class TestTrain:
    def test_epochs_max_zero_rejected(self, toy_split):
        d, split = toy_split
        train_ts, valid_ts, _ = split.fold_sets(0)
        with pytest.raises(ConfigError):
            train(train_ts, valid_ts, d, LINEAR, 4, 4, TrainConfig(epochs_max=0))

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
            train_mask, valid_mask, _ = split.roles(f)
            positives.append(split.triples.subset(train_mask & (split.triples.label == 1)))
            valid.append(split.triples.subset(valid_mask))
        config = TrainConfig(epochs_max=6, patience=2, batch_size=8, learning_rate=0.05)
        seeds = [100 + f for f in range(10)]
        stacked = train_folds(positives, valid, d, form, 4, 4, config, seeds)
        # the folds' batch counts differ by more than one, and some folds
        # stop on patience while others run on to epochs_max
        batches = [-(-len(pos) // config.batch_size) for pos in positives]
        assert max(batches) - min(batches) > 1
        assert {trace.stop_reason for _, trace in stacked} == {"patience", "epochs_max"}
        for f, (model, trace) in enumerate(stacked):
            train_ts, valid_ts, _ = split.fold_sets(f)
            alone, alone_trace = train(train_ts, valid_ts, d, form, 4, 4,
                                       replace(config, seed=seeds[f]))
            assert model.emb.vectors.tobytes() == alone.emb.vectors.tobytes(), f
            for a, b in zip(model.params.arrays(), alone.params.arrays()):
                assert a.tobytes() == b.tobytes(), f
            assert ([(r.loss, r.val_auc) for r in trace.epochs]
                    == [(r.loss, r.val_auc) for r in alone_trace.epochs]), f
            assert trace.best_epoch == alone_trace.best_epoch
            assert trace.stop_reason == alone_trace.stop_reason

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_returned_models_own_their_memory(self, form, tmp_path):
        d, ts = load_triples(write_triples(tmp_path / "toy.tsv", two_group_records()))
        split = make_folds(ts, 4, seed=0)
        positives, valid = [], []
        for f in range(4):
            train_mask, valid_mask, _ = split.roles(f)
            positives.append(split.triples.subset(train_mask & (split.triples.label == 1)))
            valid.append(split.triples.subset(valid_mask))
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
        emb = init_embeddings(len(d), 4, rng, frozenset(d.relation_ids))
        emb.normalize_rows()
        params = init_params(LINEAR, 4, 4, rng)
        perm = rng.permutation(len(pos))
        ids = pos.lhs[perm], pos.rel[perm], pos.rhs[perm]
        neg = _corrupt_batch(*ids, "both", rng, d.entity_id_array())
        hinge = np.maximum(0.0, config.margin + energies_batch(emb, params, *ids)
                           - energies_batch(emb, params, *neg))
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
