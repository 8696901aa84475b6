"""Scoring and precision-recall evaluation, per fold and aggregated.

The AUC estimator groups tied scores into a single threshold, walks
thresholds from the highest score down, starts the curve at (recall=0,
precision=1), and integrates precision over recall with the trapezoid
rule. The thresholds come from one sort of the scores, and the true
positives at each from a ``searchsorted`` in the sorted positive scores.
Spread across folds is reported as the sample standard deviation.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    return ScoredSet(-e, triples.label.copy())


def pr_curve(s: ScoredSet) -> tuple[np.ndarray, np.ndarray]:
    """(recall, precision) points, tie-grouped, starting at (0, 1). One sort
    ranks the scores; a group's true positives are the positives scored at
    least its threshold, counted by ``searchsorted`` in the sorted positive
    scores. A NaN or infinite score has no place in the ranking and raises
    MetricError."""
    labels = np.asarray(s.labels)
    scores = np.asarray(s.scores, dtype=np.float64)
    positives = scores[labels == 1]
    n_pos, n_neg = len(positives), int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC-PR undefined: need at least one positive and one negative")
    if not np.isfinite(scores).all():
        raise MetricError("AUC-PR undefined: non-finite score")
    # descending scores; a tied group is cut only at its end, where tp and
    # seen count the whole group: every record scored at least the threshold
    ranked = np.sort(scores)[::-1]
    ends = np.append(np.nonzero(np.diff(ranked))[0], len(ranked) - 1)
    tp = (n_pos - np.searchsorted(np.sort(positives), ranked[ends], "left")).astype(np.float64)
    seen = (ends + 1).astype(np.float64)
    recall = np.concatenate([[0.0], tp / n_pos])
    precision = np.concatenate([[1.0], tp / seen])
    return recall, precision


def auc_pr(s: ScoredSet) -> float:
    return _area(*pr_curve(s))


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
    # per fold: epochs_run, best_epoch, stop_reason, secs (TrainTrace.summary)
    per_fold_run: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        # the fields in declaration order; vars, unlike asdict, copies no curve
        return json.dumps(vars(self), separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "EvalReport":
        payload = json.loads(text)
        return EvalReport(payload["dataset"], payload["form"],
                          payload["per_fold_auc"], payload["mean"],
                          payload["std"], payload["config"],
                          payload.get("pr_curves", []),
                          payload.get("per_fold_run", []))

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


def _fold_seed(base_seed: int, fold: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(fold,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_fold(d: Dictionary, split: FoldSplit, fold: int, form: str,
             dim_d: int, dim_p: int, config) -> tuple[Model, float, dict]:
    """Train on one fold and score its test set. Returns (model, auc, curve)."""
    model, auc, curve, _ = _run_folds(d, split, [fold], form, dim_d, dim_p, config)[0]
    return model, auc, curve


def _run_folds(d: Dictionary, split: FoldSplit, folds: list[int], form: str,
               dim_d: int, dim_p: int, config) -> list[tuple[Model, float, dict, dict]]:
    """Train ``folds`` in one stacked loop, then score each fold's test set.
    Returns (model, auc, curve, run summary) per fold; the curve keeps the
    ``pr_curve`` points that shape its area. During training only
    each fold's training positives and validation set are held, never its
    whole training set."""
    from . import trainer  # local import: trainer also uses this module

    # every set keeps record order: the trainer's permutations index into it
    members = split.members()
    fold_positives = [m[split.triples.label[m] == 1] for m in members]
    positives, valid = [], []
    for f in folds:
        train, val = split.role_folds(f)
        rows = np.sort(np.concatenate([fold_positives[j] for j in train]))
        positives.append(split.triples.subset(rows))
        valid.append(split.triples.subset(members[val]))
    seeds = [_fold_seed(config.seed, f) for f in folds]
    trained = trainer.train_folds(positives, valid, d, form, dim_d, dim_p, config, seeds)
    del positives, valid
    results = []
    for f, (model, trace) in zip(folds, trained):
        recall, precision = pr_curve(score_set(model, split.triples.subset(members[f])))
        # a run of equal recall is a vertical segment: its inner points add 0.0
        keep = np.ones(len(recall), dtype=bool)
        keep[1:-1] = (recall[1:-1] != recall[:-2]) | (recall[1:-1] != recall[2:])
        curve = {"recall": recall[keep].tolist(), "precision": precision[keep].tolist()}
        results.append((model, _area(recall, precision), curve, trace.summary()))
    return results


def _fold_group_job(args) -> list[tuple[float, dict, dict]]:
    """Worker process: one contiguous group of folds, stacked."""
    return [result[1:] for result in _run_folds(*args)]


def cross_validate(d: Dictionary, split: FoldSplit, form: str,
                   dim_d: int, dim_p: int, config,
                   dataset_name: str = "dataset", jobs: int = 1) -> EvalReport:
    """Train a fresh model per fold and aggregate test AUC-PR across folds.

    All folds train in one stacked loop, or with ``jobs`` > 1 in that many
    contiguous groups, each stacked in a worker process. Every fold's model
    is the same either way while the batch size is at most every fold's
    training positives: a stack cuts wider batches to its largest one.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    groups = [g.tolist() for g in np.array_split(np.arange(split.k), min(jobs, split.k))]
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
