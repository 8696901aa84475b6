"""Margin-ranking SGD over corrupted triples with early stopping on
validation AUC-PR.

Each epoch pairs every training positive with one corruption, runs
shuffled mini-batches, then projects every embedding row back to unit
norm. The best-validation snapshot, a copy, is what training returns.

One loop trains K independent models side by side, such as the K folds of
a cross-validation; ``train`` is its K = 1 call. The embeddings and the
parameter buffer carry a leading fold axis and one SGD step updates every
fold. Each fold draws its initial weights, permutations and corruptions
from its own PCG64 stream, and its pairs past the end of its epoch weigh
0, so a fold's model is bitwise the model that training it alone gives. A
fold that stops early leaves the stack.

Each epoch steps the stack through one ``model.Workspace``, whose
``step`` is the SGD step; ``train_folds`` builds it with the stack and
again only when a fold leaves. ``_sgd_epoch`` lays out an epoch's ids
once, range-checked and offset to rows of the flat (K * n, d) embedding
view, as (batch, K, 5, m) with the mask of the pairs that count, and
checks the epoch's losses and parameters once, after its last step;
``normalize_rows`` checks the embeddings.
Validation scores each fold's validation set every epoch through the
``model.ScoringPlan`` built for it once, before the first epoch, when a
set without both classes is refused.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluator
from .dataset import Dictionary, Triple, TripleSet, positives_of
from .errors import ConfigError, NumericalError
# ranking_loss is re-exported: trainer.ranking_loss is the public name
from .model import (FORMS, PARAMS, EmbeddingTable, Model, Params, Workspace,
                    _batch_workspace, _check_ids, energies_batch, init_embeddings,
                    init_params, ranking_loss, scoring_plan)

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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ConfigError(f"margin must be finite and > 0, got {self.margin}")
        if self.epochs_max < 1:
            raise ConfigError(f"epochs_max must be >= 1, got {self.epochs_max}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.corruption_mode not in CORRUPTION_MODES:
            raise ConfigError(f"corruption_mode must be one of {CORRUPTION_MODES}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochRecord:
    loss: float
    val_auc: float
    secs: float   # an equal share of the stacked epoch, plus the fold's validation
    active: float   # the share of the epoch's pairs with a positive hinge


@dataclass
class TrainTrace:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1    # the epoch whose snapshot training returned
    stop_reason: str = ""   # "patience" or "epochs_max"

    def summary(self) -> dict:
        """What ``EvalReport`` records of the run, per fold."""
        return {"epochs_run": len(self.epochs), "best_epoch": self.best_epoch,
                "stop_reason": self.stop_reason,
                "secs": sum(r.secs for r in self.epochs),
                "active": [r.active for r in self.epochs]}


def corrupt(t: Triple, mode: str, rng: np.random.Generator,
            entity_ids: np.ndarray) -> Triple:
    """Replace one entity slot of t with a different, uniformly drawn entity."""
    lhs, rhs = _corrupt_batch(np.array([t.lhs]), np.array([t.rhs]), mode, rng,
                              np.asarray(entity_ids))
    return Triple(int(lhs[0]), t.rel, int(rhs[0]))


def _corrupt_batch(lhs, rhs, mode, rng, entity_ids):
    """The lhs and rhs of one corrupted copy per input triple, whose
    relation it keeps: the lhs or rhs slot (per ``mode``; a fair coin per
    triple for "both") replaced by a different, uniformly drawn entity."""
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
    return c_lhs, c_rhs


def sgd_step(batch: list[tuple[Triple, Triple]], emb: EmbeddingTable,
             params: Params, config: TrainConfig) -> float:
    """One mini-batch update on (positive, corruption) pairs, each pair
    sharing its relation: ``_sgd_step_arrays``, the step an epoch runs, on
    a copy of the rows the batch names and of the parameters, written back
    in place into ``emb.vectors``, of any memory layout, and ``params``.
    Returns the mean ranking loss before the update; a non-finite loss,
    row or parameter raises NumericalError before any write."""
    if not batch:
        raise ConfigError("an SGD step needs at least one pair")
    if any(pos.rel != neg.rel for pos, neg in batch):
        raise ConfigError("a corruption must keep its positive's relation")
    ids = np.array([(pos.lhs, neg.lhs, pos.rhs, neg.rhs, pos.rel) for pos, neg in batch],
                   dtype=np.int64).T   # the kernel's pair layout
    ws, rows, at = _batch_workspace(emb.vectors, params.copy(), ids)
    losses = _sgd_step_arrays(np.ones(len(batch), dtype=bool), at, ws, config)
    if not all(np.isfinite(a).all() for a in (losses, ws.E, ws.param_buf)):
        raise NumericalError("non-finite ranking loss or update; training aborted")
    emb.vectors[rows] = ws.E
    params.buf[...] = ws.param_buf
    return float(losses.mean())


def _sgd_step_arrays(counted: np.ndarray, ids: np.ndarray, ws: Workspace,
                     config: TrainConfig) -> np.ndarray:
    """``ws.step`` under ``config``: one mini-batch update on the checked
    ``ids``, rows of ``ws.E`` in the pair layout (see ``sme.model``), of
    the pairs ``counted`` marks; returns each pair's loss before it."""
    return ws.step(counted, ids, config.margin, config.learning_rate)


def _log_enabled() -> bool:
    return os.environ.get("SME_LOG", "info") != "quiet"


def fold_seed(seed: int, fold: int) -> int:
    """The seed fold ``fold`` of a run seeded ``seed`` trains from, in
    ``evaluator.run_fold``: so ``sme eval`` and ``sme train --fold`` build
    the same model."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(fold,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def train(train_ts: TripleSet, valid_ts: TripleSet, d: Dictionary,
          form: str, dim_d: int, dim_p: int,
          config: TrainConfig) -> tuple[Model, TrainTrace]:
    """Run SGD epochs with early stopping; returns the best-validation model.
    A fold of a split trains through ``evaluator.run_fold`` instead."""
    positives = positives_of(train_ts)   # a wider batch would only add padding
    config = replace(config, batch_size=min(config.batch_size, max(len(positives), 1)))
    return train_folds([positives], [valid_ts], d, form, dim_d, dim_p, config, [config.seed])[0]


def check_settings(config: TrainConfig, d: Dictionary, form: str,
                   dim_d: int, dim_p: int, k: int) -> None:
    """The checks of ``train_folds`` that read no records, for a stack of k models."""
    config.validate()
    if form not in FORMS:
        raise ConfigError(f"form must be one of {FORMS}, got {form!r}")
    if dim_d < 1 or dim_p < 1:
        raise ConfigError(f"dimensions must be >= 1, got d={dim_d} p={dim_p}")
    # the stack's bytes, in Python ints: past what numpy can address, an
    # allocation fails with a ValueError, not a MemoryError
    blocks = PARAMS[form].shapes(dim_p, dim_d)
    if 8 * k * max(len(d) * dim_d, sum(map(math.prod, blocks))) > np.iinfo(np.intp).max:
        raise ConfigError(f"dimensions d={dim_d} p={dim_p} need more memory than can be addressed")


def train_folds(positives: list[TripleSet], valid: list[TripleSet], d: Dictionary,
                form: str, dim_d: int, dim_p: int, config: TrainConfig,
                seeds: list[int], fold_ids: list[int] | None = None,
                ) -> list[tuple[Model, TrainTrace]]:
    """Train one model per fold in one stacked SGD loop. Fold f learns from
    the training positives ``positives[f]``, early-stops on ``valid[f]`` and
    draws from PCG64(seeds[f]). Returns each fold's best-validation model
    and its trace. Epoch lines come epoch-major: every fold still training
    logs epoch e before any logs epoch e + 1. ``fold_ids`` numbers the sets in
    error messages (by default 0, 1, ...); a validation set without both
    classes is refused before the first epoch. Each validation set's
    ``scoring_plan`` is built once, for every epoch's scoring."""
    check_settings(config, d, form, dim_d, dim_p, len(seeds))
    entity_ids = d.entity_id_array()
    if len(entity_ids) < 2:
        raise ConfigError("corruption needs at least 2 entities")
    for f, pos, val in zip(fold_ids or range(len(seeds)), positives, valid):
        if len(val) == 0:
            raise ConfigError("validation set is empty")
        if len(pos) == 0:
            raise ConfigError("training set has no positive triples")
        evaluator.require_both_classes(val.label, f"fold {f}'s validation set")
    plans = [scoring_plan(len(d), dim_p, val.lhs, val.rel, val.rhs) for val in valid]

    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    inits = [(init_embeddings(len(d), dim_d, rng).vectors, init_params(form, dim_d, dim_p, rng))
             for rng in rngs]   # each fold's embeddings, then its parameters
    emb = EmbeddingTable(np.stack([vectors for vectors, _ in inits]))
    emb.normalize_rows()
    params = inits[0][1].from_buffer(np.stack([p.buf for _, p in inits]), dim_p, dim_d)
    ws = Workspace(emb.vectors, params, config.batch_size)

    # every snapshot shares one copy of the symbol table, which nothing mutates
    symbols, relation_ids = list(d.symbols), frozenset(d.relation_ids)
    folds = list(range(len(seeds)))   # the fold in each row of the stack
    traces = [TrainTrace() for _ in folds]
    best: list[Model | None] = [None for _ in folds]
    # an overflow shows as a non-finite loss, parameter, norm or score, which
    # the checks report as one NumericalError or MetricError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs_max):
            t0 = time.perf_counter()
            mean_loss, active = _sgd_epoch([positives[f] for f in folds],
                                           [rngs[f] for f in folds], ws, config, entity_ids)
            emb.normalize_rows()
            share = (time.perf_counter() - t0) / len(folds)
            keep = []
            for row, f in enumerate(folds):
                t1 = time.perf_counter()
                fold_emb = EmbeddingTable(emb.vectors[row])
                fold_params = params[row]
                val = valid[f]
                val_scores = energies_batch(fold_emb, fold_params, val.lhs, val.rel, val.rhs,
                                            plan=plans[f])
                np.subtract(0.0, val_scores, out=val_scores)
                val_auc = evaluator.auc_pr(evaluator.ScoredSet(val_scores, val.label))
                secs = share + time.perf_counter() - t1
                trace = traces[f]
                trace.epochs.append(EpochRecord(float(mean_loss[row]), val_auc, secs,
                                                float(active[row])))
                if _log_enabled():   # flushed whole: --jobs workers may share one file
                    print(f"epoch={epoch} loss={mean_loss[row]:.6f} val_auc={val_auc:.6f} "
                          f"secs={secs:.3f}", flush=True)

                # a tie is not an improvement; epochs[e] is epoch e of the fold
                if trace.best_epoch < 0 or val_auc > trace.epochs[trace.best_epoch].val_auc:
                    best[f] = Model(symbols, relation_ids, fold_emb.copy(), fold_params.copy())
                    trace.best_epoch = epoch
                elif epoch - trace.best_epoch >= config.patience:
                    trace.stop_reason = "patience"
                    continue
                keep.append(row)
            if not keep:
                break
            if len(keep) < len(folds):
                emb.vectors = emb.vectors[keep]
                params = params[keep]
                folds = [folds[row] for row in keep]
                ws = Workspace(emb.vectors, params, config.batch_size)
        else:
            for f in folds:
                traces[f].stop_reason = "epochs_max"
    return list(zip(best, traces))


def _sgd_epoch(positives: list[TripleSet], rngs: list[np.random.Generator],
               ws: Workspace, config: TrainConfig,
               entity_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One epoch of every fold in the stack whose workspace is ``ws``; row r
    of the stack trains on ``positives[r]`` with ``rngs[r]``. Returns each
    fold's mean loss and share of pairs with a positive hinge; a
    non-finite loss or parameter raises NumericalError after the last step."""
    k, n = len(positives), ws.E.shape[-2]
    counts, size = np.array([len(pos) for pos in positives]), config.batch_size
    n_batches = -(-counts.max() // size)
    cols = np.arange(n_batches * size)
    # (batch, fold, 5, pair), the shuffled positives and their corruptions in
    # the pair layout; past its end a fold repeats its last pair, weighted 0
    ids = np.empty((n_batches, k, 5, size), dtype=np.int64)
    for row, (pos, rng) in enumerate(zip(positives, rngs)):
        perm = rng.permutation(len(pos))
        lhs, rel, rhs = pos.lhs[perm], pos.rel[perm], pos.rhs[perm]
        c_lhs, c_rhs = _corrupt_batch(lhs, rhs, config.corruption_mode, rng, entity_ids)
        at = np.minimum(cols, len(pos) - 1).reshape(n_batches, size)
        for slot, a in enumerate((lhs, c_lhs, rhs, c_rhs, rel)):
            ids[:, row, slot] = a[at]
    _check_ids(ids, n)
    ids += n * np.arange(k)[:, None, None]   # rows of the flat (K * n, d) view
    counted = (cols < counts[:, None]).reshape(k, n_batches, size).swapaxes(0, 1)
    losses = np.empty((n_batches, k, size))
    for b, (mask, batch) in enumerate(zip(counted, ids)):
        losses[b] = _sgd_step_arrays(mask, batch, ws, config)
    if not (np.isfinite(losses).all() and np.isfinite(ws.param_buf).all()):
        raise NumericalError("non-finite ranking loss or parameter; training aborted")
    # each batch's sum per fold, then the batches' sums one after another,
    # the order a running total adds them in
    kept = np.where(counted, losses, 0.0)
    sums = kept.sum(axis=-1)
    return np.cumsum(sums, axis=0)[-1] / counts, np.count_nonzero(kept, axis=(0, 2)) / counts
