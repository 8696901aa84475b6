"""A quality floor for changes that move a model's bits: gate-shaped 10-fold
cross-validation (the defaults, one process) on a Kinships-shaped file from
``perfbench/gen.py``, for both forms, must keep its mean AUC-PR inside a band.

The bands are the spread of the mean over generator seeds 0-7 and split
seeds 0-1 (16 runs a form), widened to the seeds' mean +- 4 sample standard
deviations and rounded outwards to 0.01:
bilinear 0.5945 +- 4 * 0.0051, linear 0.5512 +- 4 * 0.0101. The seeds
checked are the ones the gate-shaped runs have used all along (generator
seed 3, split seed 0), not picked to pass. The generator is read, never
changed."""

import importlib.util
from pathlib import Path

import pytest

from sme import trainer
from sme.dataset import load_triples, make_folds
from sme.evaluator import cross_validate

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
GEN_SEED, SPLIT_SEED = 3, 0


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="module")
def kinships_split(tmp_path_factory):
    out = tmp_path_factory.mktemp("kinships")
    load_gen().generate("kinships", GEN_SEED, out)
    d, ts = load_triples(out / "kinships.tsv")
    return d, make_folds(ts, 10, SPLIT_SEED)


@pytest.mark.parametrize("form, low, high", [("bilinear", 0.57, 0.62),
                                             ("linear", 0.51, 0.60)])
def test_mean_auc_pr_in_band(kinships_split, monkeypatch, form, low, high):
    monkeypatch.setenv("SME_LOG", "quiet")
    d, split = kinships_split
    report = cross_validate(d, split, form, 10, 10, trainer.TrainConfig(seed=SPLIT_SEED))
    assert low <= report.mean <= high, report.mean
