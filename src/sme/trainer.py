"""Margin-ranking SGD over corrupted triples with early stopping on
validation AUC-PR.

Each epoch pairs every training positive with one corruption, runs
shuffled mini-batches, then projects every embedding row back to unit
norm. The best-validation snapshot is what training returns.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluator
from .dataset import Dictionary, Triple, TripleSet, positives_of
from .errors import ConfigError, NumericalError
from .model import (EmbeddingTable, Model, Params, backward, energies_batch,
                    forward, init_embeddings, init_params)

CORRUPTION_MODES = ("lhs", "rhs", "both")


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    margin: float = 1.0
    epochs_max: int = 500
    batch_size: int = 32
    corruption_mode: str = "both"
    patience: int = 10
    seed: int = 0

    def validate(self) -> None:
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.margin > 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")
        if self.epochs_max < 1:
            raise ConfigError(f"epochs_max must be >= 1, got {self.epochs_max}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.corruption_mode not in CORRUPTION_MODES:
            raise ConfigError(f"corruption_mode must be one of {CORRUPTION_MODES}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


@dataclass
class EpochRecord:
    loss: float
    val_auc: float
    secs: float


@dataclass
class TrainTrace:
    epochs: list[EpochRecord] = field(default_factory=list)


def ranking_loss(e_pos: float, e_neg: float, margin: float) -> float:
    """Hinge on energies: positives must sit at least `margin` below corruptions."""
    return max(0.0, margin + e_pos - e_neg)


def corrupt(t: Triple, mode: str, rng: np.random.Generator,
            entity_ids: np.ndarray) -> Triple:
    """Replace one entity slot of t with a different, uniformly drawn entity."""
    lhs, rel, rhs = _corrupt_batch(np.array([t.lhs]), np.array([t.rel]),
                                   np.array([t.rhs]), mode, rng, np.asarray(entity_ids))
    return Triple(int(lhs[0]), int(rel[0]), int(rhs[0]))


def _corrupt_batch(lhs, rel, rhs, mode, rng, entity_ids):
    """One corrupted copy per input triple: the lhs or rhs slot (per ``mode``;
    a fair coin per triple for "both") replaced by a different, uniformly
    drawn entity."""
    if mode not in CORRUPTION_MODES:
        raise ConfigError(f"corruption_mode must be one of {CORRUPTION_MODES}")
    if len(entity_ids) < 2:
        raise ConfigError("corruption needs at least 2 entities")
    m = len(lhs)
    if mode == "lhs":
        take_lhs = np.ones(m, dtype=bool)
    elif mode == "rhs":
        take_lhs = np.zeros(m, dtype=bool)
    else:
        take_lhs = rng.integers(2, size=m) == 0
    original = np.where(take_lhs, lhs, rhs)
    draws = entity_ids[rng.integers(len(entity_ids), size=m)]
    clash = draws == original
    while clash.any():
        draws[clash] = entity_ids[rng.integers(len(entity_ids), size=int(clash.sum()))]
        clash = draws == original
    c_lhs = np.where(take_lhs, draws, lhs)
    c_rhs = np.where(take_lhs, rhs, draws)
    return c_lhs, rel.copy(), c_rhs


def sgd_step(batch: list[tuple[Triple, Triple]], emb: EmbeddingTable,
             params: Params, config: TrainConfig) -> float:
    """One mini-batch update. Returns the mean ranking loss before the update."""
    pos = np.array([[p.lhs, p.rel, p.rhs] for p, _ in batch], dtype=np.int64)
    neg = np.array([[n.lhs, n.rel, n.rhs] for _, n in batch], dtype=np.int64)
    return _sgd_step_arrays(pos[:, 0], pos[:, 1], pos[:, 2],
                            neg[:, 0], neg[:, 1], neg[:, 2],
                            emb, params, config)


def _sgd_step_arrays(p_lhs, p_rel, p_rhs, n_lhs, n_rel, n_rhs,
                     emb: EmbeddingTable, params: Params,
                     config: TrainConfig) -> float:
    # positives and corruptions go through one forward, positives first
    m = len(p_lhs)
    lhs = np.concatenate((p_lhs, n_lhs))
    rel = np.concatenate((p_rel, n_rel))
    rhs = np.concatenate((p_rhs, n_rhs))
    energies, cache = forward(emb.vectors, params, lhs, rel, rhs)
    losses = np.maximum(0.0, config.margin + energies[:m] - energies[m:])
    if not np.all(np.isfinite(losses)):
        raise NumericalError("non-finite ranking loss; training aborted")
    mean_loss = float(losses.mean())
    active = losses > 0
    k = int(active.sum())
    if k == 0:
        return mean_loss

    # an active pair's loss is margin + energy(pos) - energy(neg): its
    # positive row is weighted +1 and its corruption -1
    rows = np.concatenate((active, active))
    grads = backward(params, cache.take(rows), np.repeat([1.0, -1.0], k))
    for grad in grads.params.arrays():
        if not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite parameter gradient; training aborted")
    ids = np.concatenate((lhs[rows], rel[rows], rhs[rows]))
    touched, slot = np.unique(ids, return_inverse=True)
    g_emb = np.zeros((len(touched), emb.dim))
    np.add.at(g_emb, slot, np.concatenate((grads.d_lhs, grads.d_rel, grads.d_rhs)))
    if not np.all(np.isfinite(g_emb)):
        raise NumericalError("non-finite embedding gradient; training aborted")
    for target, grad in zip(params.arrays(), grads.params.arrays()):
        target -= config.learning_rate * grad
    emb.vectors[touched] -= config.learning_rate * g_emb
    return mean_loss


def _log_enabled() -> bool:
    return os.environ.get("SME_LOG", "info") != "quiet"


def train(train_ts: TripleSet, valid_ts: TripleSet, d: Dictionary,
          form: str, dim_d: int, dim_p: int,
          config: TrainConfig) -> tuple[Model, TrainTrace]:
    """Run SGD epochs with early stopping; returns the best-validation model."""
    config.validate()
    if dim_d < 1 or dim_p < 1:
        raise ConfigError(f"dimensions must be >= 1, got d={dim_d} p={dim_p}")
    if len(train_ts) == 0:
        raise ConfigError("training set is empty")
    if len(valid_ts) == 0:
        raise ConfigError("validation set is empty")
    pos = positives_of(train_ts)
    if len(pos) == 0:
        raise ConfigError("training set has no positive triples")
    entity_ids = d.entity_id_array()
    if len(entity_ids) < 2:
        raise ConfigError("corruption needs at least 2 entities")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    emb = init_embeddings(len(d), dim_d, rng, frozenset(d.relation_ids))
    emb.normalize_rows()
    params = init_params(form, dim_d, dim_p, rng)

    trace = TrainTrace()
    best: Model | None = None
    best_auc = -np.inf
    stale = 0
    for epoch in range(config.epochs_max):
        t0 = time.perf_counter()
        perm = rng.permutation(len(pos))
        lhs, rel, rhs = pos.lhs[perm], pos.rel[perm], pos.rhs[perm]
        c_lhs, c_rel, c_rhs = _corrupt_batch(lhs, rel, rhs, config.corruption_mode,
                                             rng, entity_ids)
        total = 0.0
        for start in range(0, len(lhs), config.batch_size):
            sl = slice(start, start + config.batch_size)
            batch_loss = _sgd_step_arrays(lhs[sl], rel[sl], rhs[sl],
                                          c_lhs[sl], c_rel[sl], c_rhs[sl],
                                          emb, params, config)
            total += batch_loss * (len(lhs[sl]))
        emb.normalize_rows()
        mean_loss = total / len(lhs)

        val_scores = -energies_batch(emb, params, valid_ts.lhs, valid_ts.rel,
                                     valid_ts.rhs)
        val_auc = evaluator.auc_pr(evaluator.ScoredSet(val_scores, valid_ts.label))
        secs = time.perf_counter() - t0
        trace.epochs.append(EpochRecord(mean_loss, val_auc, secs))
        if _log_enabled():
            print(f"epoch={epoch} loss={mean_loss:.6f} val_auc={val_auc:.6f} "
                  f"secs={secs:.3f}")

        if val_auc > best_auc:
            best_auc = val_auc
            best = Model(form, list(d.symbols), frozenset(d.relation_ids),
                         emb.copy(), params.copy())
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    assert best is not None
    return best, trace
