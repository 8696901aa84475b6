import json

import numpy as np
import pytest

from sme import evaluator
from sme.dataset import Triple, TripleSet, make_folds
from sme.errors import ConfigError, MetricError
from sme.evaluator import (ScoredSet, _area, aggregate, auc_pr, cross_validate,
                           pr_curve, run_fold, score_set)
from sme.model import BILINEAR, LINEAR, EmbeddingTable, LinearParams, Model, energy
from sme.trainer import TrainConfig

from oracles import auc_pr_enumeration, pr_curve_enumeration


def scored(scores, labels):
    return ScoredSet(np.asarray(scores, dtype=np.float64),
                     np.asarray(labels, dtype=np.int64))


def full_curve(scores, labels):
    """Every threshold's (recall, precision) point after (0, 1), from a
    stable sort, and the curve's area by sequential trapezoid sums."""
    order = np.argsort(-scores, kind="stable")
    y, ranked = labels[order], scores[order]
    ends = np.append(np.nonzero(np.diff(ranked))[0], len(ranked) - 1)
    tp = np.cumsum(y)[ends].astype(np.float64)
    recall = np.concatenate([[0.0], tp / (labels == 1).sum()])
    precision = np.concatenate([[1.0], tp / (ends + 1)])
    terms = (recall[1:] - recall[:-1]) * (precision[1:] + precision[:-1]) * 0.5
    return recall, precision, float(np.cumsum(terms)[-1])


def thinned(recall, precision):
    """The first and last point of each run of equal recall."""
    keep = np.ones(len(recall), dtype=bool)
    keep[1:-1] = (recall[1:-1] != recall[:-2]) | (recall[1:-1] != recall[2:])
    return recall[keep], precision[keep]


class TestAucPr:
    def test_perfect_separation(self):
        assert auc_pr(scored([4, 3, 2, 1], [1, 1, 0, 0])) == 1.0

    def test_small_case_matches_oracle(self):
        s = scored([3, 2, 1], [1, 0, 1])
        assert auc_pr(s) == auc_pr_enumeration([3, 2, 1], [1, 0, 1])

    def test_curve_starts_at_zero_one(self):
        recall, precision = pr_curve(scored([3, 2, 1], [1, 0, 1]))
        assert recall[0] == 0.0
        assert precision[0] == 1.0

    def test_undefined_for_single_class(self):
        with pytest.raises(MetricError):
            auc_pr(scored([1, 2], [1, 1]))
        with pytest.raises(MetricError):
            auc_pr(scored([1, 2], [0, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        s = scored([bad, 0.5, 0.1, bad], [1, 0, 1, 0])
        with pytest.raises(MetricError, match="non-finite"):
            pr_curve(s)
        with pytest.raises(MetricError, match="non-finite"):
            auc_pr(s)

    def test_random_scores_give_prevalence(self):
        rng = np.random.default_rng(123)
        n = 10000
        labels = np.concatenate([np.ones(n // 2), np.zeros(n // 2)]).astype(np.int64)
        scores = rng.uniform(size=n)
        assert auc_pr(ScoredSet(scores, labels)) == pytest.approx(0.5, abs=0.02)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0], labels[1] = 0, 1
            scores = rng.normal(size=n)
            base = auc_pr(ScoredSet(scores, labels))
            warped = auc_pr(ScoredSet(np.exp(scores) + 3.0, labels))
            # strictly increasing map preserves ranks and tie structure
            assert warped == base

    def test_duplication_invariance(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        values = rng.integers(0, 5, size=20).astype(np.float64)  # tie-heavy
        base = auc_pr(ScoredSet(values, labels))
        doubled = auc_pr(ScoredSet(np.concatenate([values, values]),
                                   np.concatenate([labels, labels])))
        assert abs(doubled - base) < 1e-12

    def test_tie_heavy_matches_stable_sort_bitwise(self):
        # the curve and the AUC do not depend on the order inside a tied
        # group; the curve is the stable-sort curve thinned, and its area
        # is the whole stable-sort curve's
        def score_sets():   # drawn lazily, each before its labels
            for n in [3, 40, 500, 5000, 20000]:
                for decimals in [0, 1, 2]:
                    yield np.round(rng.normal(size=n), decimals)
            # -0.0 and 0.0 compare equal, so they share one tied group
            for n in [3, 40, 500, 5000]:
                for values in ([-0.0, 0.0], [-0.0, 0.0, 1.0, -1.0]):
                    yield rng.choice(values, size=n)

        rng = np.random.default_rng(17)
        reordered = 0
        for scores in score_sets():
            labels = rng.integers(0, 2, size=len(scores))
            labels[:2] = [0, 1]
            full_r, full_p, want_auc = full_curve(scores, labels)
            want_r, want_p = thinned(full_r, full_p)
            s = ScoredSet(scores, labels)
            recall, precision = pr_curve(s)
            assert recall.tobytes() == want_r.tobytes()
            assert precision.tobytes() == want_p.tobytes()
            assert auc_pr(s) == want_auc
            reordered += not np.array_equal(np.argsort(-scores),
                                            np.argsort(-scores, kind="stable"))
        assert reordered   # some tied groups did come out in another order

    def test_curve_matches_enumeration_oracle_bitwise(self):
        rng = np.random.default_rng(23)
        sets = 0
        for _ in range(300):
            n = int(rng.integers(2, 121))
            kind = rng.integers(4)
            if kind == 0:     # few distinct values: long tied groups
                scores = rng.integers(-2, 3, size=n).astype(np.float64)
            elif kind == 1:   # -0.0 and 0.0 tie
                scores = rng.choice([-0.0, 0.0, 0.5, -1.0], size=n)
            elif kind == 2:   # rounded: ties and long runs of negatives
                scores = np.round(rng.normal(size=n), 1)
            else:
                scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n) * (rng.uniform(size=n) < rng.uniform())
            if labels.sum() in (0, n):
                continue
            recall, precision = pr_curve(ScoredSet(scores, labels))
            want_r, want_p = pr_curve_enumeration(scores.tolist(), labels.tolist())
            assert recall.tobytes() == np.array(want_r).tobytes()
            assert precision.tobytes() == np.array(want_p).tobytes()
            sets += 1
        assert sets > 200

    def test_tie_heavy_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            values = rng.integers(0, 4, size=n).astype(np.float64)
            got = auc_pr(ScoredSet(values, labels))
            want = auc_pr_enumeration(list(values), list(labels))
            assert got == want


def hand_model():
    symbols = ["a", "b", "r"]
    emb = EmbeddingTable(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    params = LinearParams(np.eye(2), np.zeros((2, 2)), np.eye(2),
                          np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    return Model(symbols, frozenset({2}), emb, params)


class TestScoreSet:
    def test_zero_parameter_model(self):
        m = hand_model()
        m.params = LinearParams(*(np.zeros((2, 2)) for _ in range(4)),
                                np.zeros(2), np.zeros(2))
        ts = TripleSet(np.array([0, 1]), np.array([2, 2]), np.array([1, 0]),
                       np.array([1, 0]))
        s = score_set(m, ts)
        assert np.array_equal(s.scores, [0.0, 0.0])
        assert not np.signbit(s.scores).any()   # a zero energy scores +0, not -0

    def test_purity(self):
        m = hand_model()
        ts = TripleSet(np.array([0, 1, 0]), np.array([2, 2, 2]),
                       np.array([1, 0, 0]), np.array([1, 0, 1]))
        s1 = score_set(m, ts)
        s2 = score_set(m, ts)
        assert np.array_equal(s1.scores, s2.scores)

    def test_hand_computed_scores(self):
        m = hand_model()
        ts = TripleSet(np.array([0, 1, 0]), np.array([2, 2, 2]),
                       np.array([1, 0, 0]), np.array([1, 0, 1]))
        s = score_set(m, ts)
        for i in range(3):
            expect = -energy(Triple(int(ts.lhs[i]), int(ts.rel[i]), int(ts.rhs[i])),
                             m.emb, m.params)
            assert s.scores[i] == pytest.approx(expect, abs=1e-15)
        # with identity transforms the score is just e_lhs . e_rhs
        assert s.scores[0] == pytest.approx(0.0, abs=1e-15)
        assert s.scores[2] == pytest.approx(1.0, abs=1e-15)


class TestCrossValidate:
    def test_two_fold_aggregation(self, toy_dataset):
        d, ts = toy_dataset
        split = make_folds(ts, 2, seed=0)
        config = TrainConfig(epochs_max=3, patience=5, seed=0)
        report = cross_validate(d, split, LINEAR, 4, 4, config, dataset_name="toy")
        assert len(report.per_fold_auc) == 2
        assert report.mean == pytest.approx(np.mean(report.per_fold_auc))
        m, s = aggregate(report.per_fold_auc)
        assert report.mean == m and report.std == s

    def test_report_round_trip(self, toy_dataset, tmp_path):
        d, ts = toy_dataset
        split = make_folds(ts, 2, seed=0)
        config = TrainConfig(epochs_max=2, patience=5, seed=0)
        report = cross_validate(d, split, LINEAR, 4, 4, config, dataset_name="toy")
        report.save(tmp_path / "r.json", tmp_path / "r.txt")
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["per_fold_auc"] == report.per_fold_auc
        assert loaded["mean"] == report.mean
        assert f"mean={report.mean:.6f}" in (tmp_path / "r.txt").read_text()

    def test_parallel_matches_serial(self, toy_dataset):
        d, ts = toy_dataset
        split = make_folds(ts, 2, seed=0)
        config = TrainConfig(epochs_max=2, patience=5, seed=0)
        serial = cross_validate(d, split, LINEAR, 4, 4, config)
        parallel = cross_validate(d, split, LINEAR, 4, 4, config, jobs=2)
        assert serial.per_fold_auc == parallel.per_fold_auc

    def test_worker_groups_match_one_stack(self, toy_dataset):
        # five folds in two workers: groups [0, 1, 2] and [3, 4]
        d, ts = toy_dataset
        split = make_folds(ts, 5, seed=0)
        config = TrainConfig(epochs_max=4, patience=2, seed=2)
        one = cross_validate(d, split, LINEAR, 4, 4, config)
        grouped = cross_validate(d, split, LINEAR, 4, 4, config, jobs=2)
        assert grouped.per_fold_auc == one.per_fold_auc
        assert grouped.pr_curves == one.pr_curves

        def without_secs(runs):
            return [{k: v for k, v in r.items() if k != "secs"} for r in runs]
        assert without_secs(grouped.per_fold_run) == without_secs(one.per_fold_run)

    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_fold_trains_alike_in_any_stack_at_any_batch(self, toy_dataset, form):
        # at a batch above some folds' training positives and below others',
        # a fold alone, in the --jobs 1 stack of every fold and in its
        # --jobs 2 group trains at one width, the split's, to the same bits
        d, ts = toy_dataset
        split = make_folds(ts, 5, seed=0)
        sizes = sorted(split.fold_sets(f)[0].n_positive for f in range(split.k))
        config = TrainConfig(epochs_max=3, patience=5, seed=4, batch_size=sizes[0] + 1)
        assert config.batch_size < sizes[-1]
        stack = run_fold(d, split, list(range(split.k)), form, 4, 4, config)
        groups = [g.tolist() for g in np.array_split(np.arange(split.k), 2)]
        grouped = [r for g in groups for r in run_fold(d, split, g, form, 4, 4, config)]
        for f, (model, _) in enumerate(stack):
            [alone] = run_fold(d, split, [f], form, 4, 4, config)
            for (other, _), how in ((alone, "alone"), (grouped[f], "group")):
                assert other.emb.vectors.tobytes() == model.emb.vectors.tobytes(), (f, how)
                assert other.params.buf.tobytes() == model.params.buf.tobytes(), (f, how)

    def test_one_stack_trains_through_run_fold(self, toy_dataset, monkeypatch):
        # at jobs=1 every fold trains in one run_fold call, the runner the
        # tests call and the benchmark's tracer times
        calls = []

        def counting(d, split, folds, *args):
            calls.append(list(folds))
            return run_fold(d, split, folds, *args)

        monkeypatch.setattr(evaluator, "run_fold", counting)
        d, ts = toy_dataset
        split = make_folds(ts, 4, seed=0)
        report = cross_validate(d, split, LINEAR, 4, 4, TrainConfig(epochs_max=2, seed=0))
        assert calls == [[0, 1, 2, 3]]
        assert len(report.per_fold_auc) == 4

    @pytest.mark.parametrize("change, match", [
        pytest.param(dict(config=TrainConfig(learning_rate=-1.0)), "learning_rate", id="lr"),
        pytest.param(dict(config=TrainConfig(seed=-1)), "seed", id="seed"),
        pytest.param(dict(dim_p=0), "dimensions must be", id="dim-p"),
        pytest.param(dict(dim_d=1 << 60), "addressed", id="addressable"),
        pytest.param(dict(form="bilinaer"), "form", id="form"),
    ])
    def test_bad_settings_refused_before_any_worker(self, toy_dataset, monkeypatch,
                                                    change, match):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(evaluator, "ProcessPoolExecutor", no_pool)
        d, ts = toy_dataset
        split = make_folds(ts, 4, seed=0)
        args = {"form": LINEAR, "dim_d": 4, "dim_p": 4, "config": TrainConfig(epochs_max=1),
                **change}
        with pytest.raises(ConfigError, match=match) as parallel:
            cross_validate(d, split, jobs=2, **args)
        with pytest.raises(ConfigError) as serial:
            cross_validate(d, split, jobs=1, **args)
        assert str(parallel.value) == str(serial.value)

    def test_per_fold_run_summary(self, toy_dataset):
        d, ts = toy_dataset
        split = make_folds(ts, 2, seed=0)
        config = TrainConfig(epochs_max=6, patience=2, seed=1)
        report = cross_validate(d, split, LINEAR, 4, 4, config)
        runs = report.per_fold_run
        assert [r["stop_reason"] for r in runs] == ["epochs_max", "patience"]
        assert runs[0]["epochs_run"] == 6
        # patience: the best epoch, then `patience` epochs without a better one
        assert runs[1]["epochs_run"] == runs[1]["best_epoch"] + 1 + config.patience
        for r in runs:
            assert 0 <= r["best_epoch"] < r["epochs_run"] and r["secs"] > 0
            # one active share per epoch, in the JSON report and not the text one
            assert len(r["active"]) == r["epochs_run"]
            assert all(0 < share <= 1 for share in r["active"])
        assert json.loads(report.to_json())["per_fold_run"] == runs
        assert "active" not in report.to_text()


class TestStoredCurves:
    """The report keeps only the ends of each run of equal recall."""

    def test_stored_area_is_fold_auc_bitwise(self, toy_dataset):
        d, ts = toy_dataset
        split = make_folds(ts, 4, seed=0)
        report = cross_validate(d, split, LINEAR, 4, 4, TrainConfig(epochs_max=3, seed=3))
        for curve, auc in zip(report.pr_curves, report.per_fold_auc):
            area = _area(np.array(curve["recall"]), np.array(curve["precision"]))
            assert area == auc

    def test_dropped_points_lie_between_kept_neighbours(self, toy_dataset):
        d, ts = toy_dataset
        split = make_folds(ts, 4, seed=0)
        config = TrainConfig(epochs_max=3, seed=3)
        report = cross_validate(d, split, LINEAR, 4, 4, config)
        models = [model for model, _ in run_fold(d, split, [0, 1, 2, 3], LINEAR, 4, 4, config)]
        dropped = 0
        for model, auc, curve, (_, _, test) in zip(models, report.per_fold_auc, report.pr_curves,
                                                   map(split.fold_sets, range(4))):
            s = score_set(model, test)
            recall, precision, area = full_curve(s.scores, s.labels)
            assert area == auc
            full = list(zip(recall.tolist(), precision.tolist()))
            stored = list(zip(curve["recall"], curve["precision"]))
            # the stored points are the full curve's, in order, with both ends
            assert stored[0] == full[0] and stored[-1] == full[-1]
            points = iter(full)
            assert all(point in points for point in stored)
            # recall never falls, so a recall's points are one run, and its
            # stored ends are consecutive
            segments = [(r1, p1, p2) for (r1, p1), (r2, p2) in zip(stored, stored[1:])
                        if r1 == r2]
            for r, p in set(full) - set(stored):
                assert any(r == r1 and p1 >= p >= p2 for r1, p1, p2 in segments), (r, p)
            dropped += len(full) - len(stored)
        assert dropped > 0
