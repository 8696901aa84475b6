"""Scoring and precision-recall evaluation, per fold and aggregated.

The AUC estimator groups tied scores into a single threshold, walks
thresholds from the highest score down, starts the curve at (recall=0,
precision=1), and integrates precision over recall with the trapezoid
rule. Recall changes only at a threshold that holds a positive, so the
curve is built from one sort of all scores and the distinct positive
scores alone: of each run of equal recall only its first and last point
are made. The points between them lie on the vertical segment joining
the two and would add exact zeros to the area, so the area is that of
every threshold's point, bitwise. Spread across folds is reported as the
sample standard deviation.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import modelfile, trainer
from .dataset import Dictionary, FoldSplit, TripleSet
from .errors import ConfigError, MetricError
from .model import Model, energies_batch


@dataclass
class ScoredSet:
    """Parallel (score, label) sequences; score = -energy."""

    scores: np.ndarray
    labels: np.ndarray


def score_set(model: Model, triples: TripleSet) -> ScoredSet:
    e = energies_batch(model.emb, model.params, triples.lhs, triples.rel, triples.rhs)
    return ScoredSet(np.subtract(0.0, e, out=e), triples.label.copy())


def pr_curve(s: ScoredSet) -> tuple[np.ndarray, np.ndarray]:
    """(recall, precision) points, tie-grouped, starting at (0, 1): the
    first and last point of each run of equal recall, in threshold order.
    A NaN or infinite score has no place in the ranking and raises
    MetricError."""
    labels = np.asarray(s.labels)
    scores = np.asarray(s.scores, dtype=np.float64)
    require_both_classes(labels, "the scored set")
    positives = scores[labels == 1]
    n_pos = len(positives)
    if not np.isfinite(scores).all():
        raise MetricError("AUC-PR undefined: non-finite score")
    ranked = np.sort(scores)
    q, counts = np.unique(positives, return_counts=True)
    q, n = q[::-1], len(ranked)   # the distinct positive scores, descending
    # run j of equal recall spans the thresholds from q[j] down to the one
    # just above q[j + 1] (to the lowest score for the last run): its first
    # point counts the records scored at least q[j], its last those scored
    # above q[j + 1]; the two are one point when no threshold lies between
    first = n - np.searchsorted(ranked, q, "left")
    above = n - np.searchsorted(ranked, q, "right")
    last = np.append(above[1:], n)
    seen = np.stack((first, last), axis=1).astype(np.float64).ravel()
    tp = np.repeat(np.cumsum(counts[::-1]).astype(np.float64), 2)
    keep = np.ones(len(seen), dtype=bool)
    keep[1::2] = last > first
    tp, seen = tp[keep], seen[keep]
    # the run of recall 0: (0, 1), then (0, 0) at the threshold above q[0]
    head = 2 if above[0] else 1
    recall = np.concatenate([[0.0, 0.0][:head], tp / n_pos])
    precision = np.concatenate([[1.0, 0.0][:head], tp / seen])
    return recall, precision


def auc_pr(s: ScoredSet) -> float:
    return _area(*pr_curve(s))


def require_both_classes(labels: np.ndarray, where: str) -> None:
    """MetricError naming the set ``where`` if its labels lack a positive or
    a negative: its AUC-PR is undefined, so training must not start."""
    if not ((labels == 1).any() and (labels == 0).any()):
        raise MetricError(f"AUC-PR undefined on {where}: "
                          "need at least one positive and one negative")


def _area(recall: np.ndarray, precision: np.ndarray) -> float:
    """Trapezoid area under a ``pr_curve``."""
    terms = (recall[1:] - recall[:-1]) * (precision[1:] + precision[:-1]) * 0.5
    # sequential accumulation keeps the value independent of summation blocking
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


@dataclass
class EvalReport:
    dataset: str
    form: str
    per_fold_auc: list[float]
    mean: float
    std: float
    config: dict
    pr_curves: list[dict] = field(default_factory=list)
    # per fold: epochs_run, best_epoch, stop_reason, secs, active (TrainTrace.summary)
    # and model_sha256, the SHA-256 of the bytes save_model writes for its model
    per_fold_run: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        # the fields in declaration order; vars, unlike asdict, copies no curve
        return json.dumps(vars(self), separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"dataset={self.dataset} form={self.form} folds={len(self.per_fold_auc)}",
            "# spread is the sample standard deviation over folds",
        ]
        for i, a in enumerate(self.per_fold_auc):
            lines.append(f"fold={i} auc={a:.6f}")
        lines.append(f"mean={self.mean:.6f} std={self.std:.6f}")
        return "\n".join(lines) + "\n"

    def save(self, json_path, text_path) -> None:
        Path(json_path).write_text(self.to_json(), encoding="utf-8")
        Path(text_path).write_text(self.to_text(), encoding="utf-8")


def aggregate(per_fold: list[float]) -> tuple[float, float]:
    arr = np.asarray(per_fold, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, std


def run_fold(d: Dictionary, split: FoldSplit, folds: list[int], form: str,
             dim_d: int, dim_p: int, config) -> list[tuple[Model, trainer.TrainTrace]]:
    """Train ``folds`` in one stacked loop: the one route from a fold number
    to its model, which ``sme train --fold`` writes and ``sme eval`` scores.
    Fold f trains on the first two of its ``fold_sets`` from
    ``fold_seed(config.seed, f)`` at one batch width for the split, so
    alike in any stack. Returns (model, trace) per fold; a fold outside
    [0, k) is refused before training. Reads no test set."""
    positives, valid = zip(*(split.fold_sets(f)[:2] for f in folds))
    seeds = [trainer.fold_seed(config.seed, f) for f in folds]
    largest = max(sum(len(split.positives[j]) for j in split.role_folds(f)[0])
                  for f in range(split.k))   # a wider batch would only add padding
    config = replace(config, batch_size=min(config.batch_size, largest))
    return trainer.train_folds(positives, valid, d, form, dim_d, dim_p, config, seeds, folds)


def _fold_group_job(args) -> list[tuple[float, dict, dict]]:
    """Worker process: one contiguous group of folds, trained stacked by
    ``run_fold``, then each fold's test set scored. Returns (auc, curve,
    run) per fold; the curve is the fold's ``pr_curve``, the run its
    trace's summary and its model's ``model_sha256``."""
    _, split, folds = args[:3]
    results = []
    for f, (model, trace) in zip(folds, run_fold(*args)):
        recall, precision = pr_curve(score_set(model, split.triples.subset(split.members[f])))
        curve = {"recall": recall.tolist(), "precision": precision.tolist()}
        run = {**trace.summary(),
               "model_sha256": hashlib.sha256(modelfile.model_bytes(model)).hexdigest()}
        results.append((_area(recall, precision), curve, run))
    return results


def cross_validate(d: Dictionary, split: FoldSplit, form: str,
                   dim_d: int, dim_p: int, config,
                   dataset_name: str = "dataset", jobs: int = 1) -> EvalReport:
    """Train a fresh model per fold and aggregate test AUC-PR across folds.

    All folds train in one stacked loop, or with ``jobs`` > 1 in that many
    contiguous groups, each stacked in a worker process. Every fold's model
    is the same either way. A one-class test set or a refused setting ends
    the run before any fold trains.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    for f, rows in enumerate(split.members):
        require_both_classes(split.triples.label[rows], f"fold {f}'s test set")
    groups = [g.tolist() for g in np.array_split(np.arange(split.k), min(jobs, split.k))]
    trainer.check_settings(config, d, form, dim_d, dim_p, max(map(len, groups)))
    args = [(d, split, group, form, dim_d, dim_p, config) for group in groups]
    if len(groups) == 1:
        results = _fold_group_job(args[0])
    else:
        with ProcessPoolExecutor(max_workers=len(groups),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = [r for part in pool.map(_fold_group_job, args) for r in part]
    per_fold = [auc for auc, _, _ in results]
    mean, std = aggregate(per_fold)
    cfg_echo = {"form": form, "dim_d": dim_d, "dim_p": dim_p, **vars(config), "folds": split.k}
    return EvalReport(dataset_name, form, per_fold, mean, std, cfg_echo,
                      [curve for _, curve, _ in results], [run for _, _, run in results])
