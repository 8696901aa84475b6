"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria that need the canonical benchmark triple files (umls.tsv,
kinships.tsv, nations.tsv under ./data or $SME_DATA_DIR) skip with an
explicit message when the files are absent; everything else always runs.
"""

import time

import numpy as np
import pytest

from sme import cli
from sme.dataset import load_triples, make_folds
from sme.evaluator import ScoredSet, auc_pr, cross_validate
from sme.model import BILINEAR, LINEAR, energy, energy_gradients
from sme.trainer import TrainConfig

from conftest import load_canonical, two_group_records, write_triples
from oracles import (auc_pr_enumeration, energy_bilinear_formula,
                     energy_linear_formula, finite_difference)
from planted import permutation_records
from test_model import gradient_pairs, random_instance


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


BENCH_CONFIG = TrainConfig()  # defaults: lr 0.01, margin 1, batch 32, patience 10
BENCH_D = 10
BENCH_P = 10

_cv_cache = {}


def bench_cv(name: str, form: str):
    """Cross-validate a benchmark dataset once per (dataset, form)."""
    key = (name, form)
    if key not in _cv_cache:
        d, ts = load_canonical(name)
        split = make_folds(ts, 10, seed=0)
        t0 = time.perf_counter()
        rep = cross_validate(d, split, form, BENCH_D, BENCH_P, BENCH_CONFIG,
                             dataset_name=name)
        _cv_cache[key] = (rep, time.perf_counter() - t0)
    return _cv_cache[key]


class TestCriterion1UMLS:
    def test_table2_umls(self):
        rep_bi, secs_bi = bench_cv("umls", BILINEAR)
        rep_li, secs_li = bench_cv("umls", LINEAR)
        total = secs_bi + secs_li
        report("1-umls-bilinear", rep_bi.mean >= 0.95,
               f"mean={rep_bi.mean:.3f} std={rep_bi.std:.3f}")
        report("1-umls-linear", rep_li.mean >= 0.95,
               f"mean={rep_li.mean:.3f} std={rep_li.std:.3f}")
        report("1-umls-runtime", total < 1200.0, f"{total:.0f}s")


class TestCriterion2Kinships:
    def test_table2_kinships(self):
        rep_bi, _ = bench_cv("kinships", BILINEAR)
        rep_li, _ = bench_cv("kinships", LINEAR)
        report("2-kinships-bilinear", rep_bi.mean >= 0.80,
               f"mean={rep_bi.mean:.3f} std={rep_bi.std:.3f}")
        report("2-kinships-linear", rep_li.mean <= 0.40,
               f"mean={rep_li.mean:.3f} std={rep_li.std:.3f}")
        report("2-kinships-gap", rep_bi.mean - rep_li.mean >= 0.5,
               f"gap={rep_bi.mean - rep_li.mean:.3f}")


class TestCriterion2Planted:
    """Criterion 2's form gap on the planted file of ``planted.py``, which
    needs no canonical data. Generator seeds 0-9 gave 5-fold means of
    0.9994-1.000 (bilinear) and 0.157-0.213 (linear); the thresholds are
    tighter than criterion 2's and keep a margin of 0.049, 0.087 and 0.136."""

    def test_only_bilinear_fits_permuted_types(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SME_LOG", "quiet")
        d, ts = load_triples(write_triples(tmp_path / "planted.tsv", permutation_records(0)))
        split = make_folds(ts, 5, seed=0)
        rep_bi, rep_li = (cross_validate(d, split, form, BENCH_D, BENCH_P, BENCH_CONFIG)
                          for form in (BILINEAR, LINEAR))
        report("2-planted-bilinear", rep_bi.mean >= 0.95,
               f"mean={rep_bi.mean:.3f} std={rep_bi.std:.3f}")
        report("2-planted-linear", rep_li.mean <= 0.30,
               f"mean={rep_li.mean:.3f} std={rep_li.std:.3f}")
        report("2-planted-gap", rep_bi.mean - rep_li.mean >= 0.65,
               f"gap={rep_bi.mean - rep_li.mean:.3f}")


class TestCriterion3Nations:
    def test_table2_nations(self):
        rep_bi, _ = bench_cv("nations", BILINEAR)
        rep_li, _ = bench_cv("nations", LINEAR)
        report("3-nations-bilinear", rep_bi.mean >= 0.78,
               f"mean={rep_bi.mean:.3f} std={rep_bi.std:.3f}")
        report("3-nations-bilinear-beats-linear", rep_bi.mean > rep_li.mean,
               f"bilinear={rep_bi.mean:.3f} linear={rep_li.mean:.3f}")


class TestCriterion4Ingestion:
    @pytest.mark.parametrize("name,expect", [
        ("umls", "entities=135 relations=49 records=893025"),
        ("kinships", "entities=104 relations=26 records=281216"),
        ("nations", "entities=14 relations=56 records=11191"),
    ])
    def test_table1_counts(self, name, expect, capsys):
        from conftest import require_canonical
        path = require_canonical(name)
        code = cli.main(["inspect", "--dataset", str(path)])
        out = capsys.readouterr().out.strip()
        with capsys.disabled():
            report(f"4-ingestion-{name}", code == 0 and out.startswith(expect), out)


class TestCriterion5Gradients:
    def test_gradient_suite(self):
        t0 = time.perf_counter()
        worst = 0.0
        for form in (LINEAR, BILINEAR):
            for seed in range(20):
                emb, params, t = random_instance(form, seed)
                grads = energy_gradients(t, emb, params)

                def f():
                    return energy(t, emb, params)

                for arr, analytic, _ in gradient_pairs(emb, params, grads, t):
                    flat = arr.reshape(-1)
                    fd = finite_difference(f, flat, step=1e-5).reshape(arr.shape)
                    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-5)
                    worst = max(worst, float((np.abs(fd - analytic) / denom).max()))
        secs = time.perf_counter() - t0
        report("5-gradients", worst < 1e-4 and secs < 10.0,
               f"max_rel_err={worst:.2e} secs={secs:.1f}")


class TestCriterion6EnergyOracle:
    def test_energy_oracle_suite(self):
        worst = 0.0
        for form in (LINEAR, BILINEAR):
            for seed in range(100):
                emb, params, t = random_instance(form, seed)
                el, er, eh = (emb.vectors[t.lhs], emb.vectors[t.rel],
                              emb.vectors[t.rhs])
                if form == LINEAR:
                    expect = energy_linear_formula(el, er, eh, *params.arrays())
                else:
                    expect = energy_bilinear_formula(el, er, eh, *params.arrays())
                worst = max(worst, abs(energy(t, emb, params) - expect))
        report("6-energy-oracle", worst < 1e-12, f"max_abs_err={worst:.2e}")


class TestCriterion7AucOracle:
    def test_auc_oracle_suite(self):
        rng = np.random.default_rng(20240101)
        checked = 0
        exact = True
        while checked < 1000:
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            if rng.integers(2) == 0:
                scores = rng.normal(size=n)  # mostly distinct
            else:
                scores = rng.integers(0, max(2, n // 4), size=n).astype(float)  # ties
            got = auc_pr(ScoredSet(scores, labels))
            want = auc_pr_enumeration(list(scores), list(labels))
            if got != want:
                exact = False
                break
            checked += 1
        report("7-auc-oracle", exact, f"{checked} sets matched exactly")


class TestCriterion8Determinism:
    def test_cmd_train_bitwise(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SME_LOG", "quiet")
        write_triples(tmp_path / "toy.tsv", two_group_records())
        (tmp_path / "toy.json").write_text(
            '{"name": "toy", "triples": "toy.tsv", "folds": 4, "seed": 5}')
        out1, out2 = tmp_path / "m1.sme", tmp_path / "m2.sme"
        args = ["train", "--dataset", str(tmp_path / "toy.json"), "--fold", "0",
                "--form", "bilinear", "--dim-d", "6", "--dim-p", "6",
                "--epochs", "5", "--seed", "42"]
        c1 = cli.main(args + ["--out", str(out1)])
        c2 = cli.main(args + ["--out", str(out2)])
        same = c1 == 0 and c2 == 0 and out1.read_bytes() == out2.read_bytes()
        report("8-determinism", same, f"{out1.stat().st_size} bytes each")
