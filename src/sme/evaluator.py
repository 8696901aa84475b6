"""Scoring and precision-recall evaluation, per fold and aggregated.

The AUC estimator groups tied scores into a single threshold, walks
thresholds from the highest score down, starts the curve at (recall=0,
precision=1), and integrates precision over recall with the trapezoid
rule. Spread across folds is reported as the sample standard deviation.
"""

from __future__ import annotations

import json
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
    """(recall, precision) points, tie-grouped, starting at (0, 1). A NaN or
    infinite score has no place in the ranking and raises MetricError."""
    labels = np.asarray(s.labels)
    scores = np.asarray(s.scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC-PR undefined: need at least one positive and one negative")
    if not np.isfinite(scores).all():
        raise MetricError("AUC-PR undefined: non-finite score")
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    sorted_scores = scores[order]
    # last index of each tied-score group
    ends = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.append(ends, len(sorted_scores) - 1)
    tp = np.cumsum(y)[ends].astype(np.float64)
    seen = (ends + 1).astype(np.float64)
    recall = np.concatenate([[0.0], tp / n_pos])
    precision = np.concatenate([[1.0], tp / seen])
    return recall, precision


def auc_pr(s: ScoredSet) -> float:
    recall, precision = pr_curve(s)
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

    def to_json(self) -> str:
        return json.dumps({
            "dataset": self.dataset,
            "form": self.form,
            "per_fold_auc": self.per_fold_auc,
            "mean": self.mean,
            "std": self.std,
            "config": self.config,
            "pr_curves": self.pr_curves,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "EvalReport":
        payload = json.loads(text)
        return EvalReport(payload["dataset"], payload["form"],
                          payload["per_fold_auc"], payload["mean"],
                          payload["std"], payload["config"],
                          payload.get("pr_curves", []))

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
    from . import trainer  # local import: trainer also uses this module

    from dataclasses import replace
    train_ts, valid_ts, test_ts = split.fold_sets(fold)
    fold_config = replace(config, seed=_fold_seed(config.seed, fold))
    model, _ = trainer.train(train_ts, valid_ts, d, form, dim_d, dim_p, fold_config)
    scored = score_set(model, test_ts)
    auc = auc_pr(scored)
    recall, precision = pr_curve(scored)
    curve = {"recall": recall.tolist(), "precision": precision.tolist()}
    return model, auc, curve


def _run_fold_job(args):
    d, split, fold, form, dim_d, dim_p, config = args
    _, auc, curve = run_fold(d, split, fold, form, dim_d, dim_p, config)
    return fold, auc, curve


def cross_validate(d: Dictionary, split: FoldSplit, form: str,
                   dim_d: int, dim_p: int, config,
                   dataset_name: str = "dataset", jobs: int = 1) -> EvalReport:
    """Train a fresh model per fold and aggregate test AUC-PR across folds."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    results: dict[int, tuple[float, dict]] = {}
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        args = [(d, split, f, form, dim_d, dim_p, config) for f in range(split.k)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for fold, auc, curve in pool.map(_run_fold_job, args):
                results[fold] = (auc, curve)
    else:
        for fold in range(split.k):
            _, auc, curve = run_fold(d, split, fold, form, dim_d, dim_p, config)
            results[fold] = (auc, curve)
    per_fold = [results[f][0] for f in range(split.k)]
    curves = [results[f][1] for f in range(split.k)]
    mean, std = aggregate(per_fold)
    cfg_echo = {
        "form": form, "dim_d": dim_d, "dim_p": dim_p,
        "learning_rate": config.learning_rate, "margin": config.margin,
        "epochs_max": config.epochs_max, "batch_size": config.batch_size,
        "corruption_mode": config.corruption_mode, "patience": config.patience,
        "seed": config.seed, "folds": split.k,
    }
    return EvalReport(dataset_name, form, per_fold, mean, std, cfg_echo, curves)
