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

``_sgd_epoch`` lays out an epoch's ids once, range-checked and offset to
rows of the flat (K * n, d) embedding view, as (batch, slot, fold, pair),
with the mask of the pairs that count, so the step only slices them. A
batch size above the stack's largest training set is cut to it for the
run: wider batches would only add padding.
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
from .model import (_TAKE, PARAMS, EmbeddingTable, Model, Params, _check_ids, _forward,
                    backward, energies_batch, init_embeddings, init_params)

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


@dataclass
class EpochRecord:
    loss: float
    val_auc: float
    secs: float   # an equal share of the stacked epoch, plus the fold's validation


@dataclass
class TrainTrace:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1    # the epoch whose snapshot training returned
    stop_reason: str = ""   # "patience" or "epochs_max"

    def summary(self) -> dict:
        """What ``EvalReport`` records of the run, per fold."""
        return {"epochs_run": len(self.epochs), "best_epoch": self.best_epoch,
                "stop_reason": self.stop_reason,
                "secs": sum(r.secs for r in self.epochs)}


def ranking_loss(e_pos, e_neg, margin: float):
    """Hinge on energies, elementwise: positives must sit at least `margin`
    below their corruptions."""
    return np.maximum(0.0, margin + e_pos - e_neg)


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
    ids = np.array([[t.lhs, t.rel, t.rhs] for pair in zip(*batch) for t in pair],
                   dtype=np.int64).T   # positives, then corruptions
    _check_ids(ids, emb.n)
    return float(_sgd_step_arrays(np.ones(len(batch), dtype=bool), ids, emb, params,
                                  config).mean())


def _sgd_step_arrays(counted: np.ndarray, ids: np.ndarray, emb: EmbeddingTable,
                     params: Params, config: TrainConfig, grad: Params | None = None,
                     elements: np.ndarray | None = None) -> np.ndarray:
    """One mini-batch update; returns each pair's ranking loss before it.

    ``ids`` (3, 2m), range-checked by the caller, holds the lhs, rel and rhs
    rows of ``emb.vectors``: m positives, then their m corruptions. A stack
    of K models takes (3, K, 2m) rows of the flat (K * n, d) view and a
    (K, m) ``counted``, which marks the pairs that count; the others pad a
    fold's short or spent batch. A counted pair with positive loss weighs
    +1 on its positive and -1 on its corruption; every other row weighs 0
    and changes nothing. ``grad`` (laid out as ``params``) takes the
    parameter gradients. Row i of ``elements``, ``arange(emb.vectors.size)``
    as (rows, d), holds the flat indices of embedding row i's elements.
    """
    energies, cache = _forward(emb.vectors, params, ids)
    m = ids.shape[-1] // 2
    losses = ranking_loss(energies[..., :m], energies[..., m:], config.margin)
    if not np.isfinite(losses).all():
        raise NumericalError("non-finite ranking loss; training aborted")
    active = (losses > 0) & counted
    if not active.any():
        return losses

    w = active.astype(np.float64)
    grads = backward(params, cache, np.concatenate((w, -w), axis=-1), grad)
    if not np.isfinite(grads.params.buf).all():
        raise NumericalError("non-finite parameter gradient; training aborted")
    # one scatter-add of every row gradient, element by element, through the
    # flat view of the embeddings; bincount adds in input order, as np.add.at
    # does, at a fraction of its per-element cost
    if elements is None:
        elements = np.arange(emb.vectors.size).reshape(-1, emb.dim)
    at = np.take(elements, ids, **_TAKE)
    g_emb = np.bincount(at.ravel(), weights=grads.d_rows.ravel(), minlength=emb.vectors.size)
    if not np.isfinite(g_emb).all():
        raise NumericalError("non-finite embedding gradient; training aborted")
    params.buf -= config.learning_rate * grads.params.buf
    emb.vectors -= config.learning_rate * g_emb.reshape(emb.vectors.shape)
    return losses


def _log_enabled() -> bool:
    return os.environ.get("SME_LOG", "info") != "quiet"


def train(train_ts: TripleSet, valid_ts: TripleSet, d: Dictionary,
          form: str, dim_d: int, dim_p: int,
          config: TrainConfig) -> tuple[Model, TrainTrace]:
    """Run SGD epochs with early stopping; returns the best-validation model."""
    return train_folds([positives_of(train_ts)], [valid_ts], d, form,
                       dim_d, dim_p, config, [config.seed])[0]


def train_folds(positives: list[TripleSet], valid: list[TripleSet], d: Dictionary,
                form: str, dim_d: int, dim_p: int, config: TrainConfig,
                seeds: list[int]) -> list[tuple[Model, TrainTrace]]:
    """Train one model per fold in one stacked SGD loop. Fold f learns from
    the training positives ``positives[f]``, early-stops on ``valid[f]`` and
    draws from PCG64(seeds[f]). Returns each fold's best-validation model
    and its trace. Epoch lines come epoch-major: every fold still training
    logs epoch e before any logs epoch e + 1."""
    config.validate()
    if dim_d < 1 or dim_p < 1:
        raise ConfigError(f"dimensions must be >= 1, got d={dim_d} p={dim_p}")
    # the stack's bytes, in Python ints: past what numpy can address, an
    # allocation fails with a ValueError, not a MemoryError
    blocks = PARAMS[form].shapes(dim_p, dim_d) if form in PARAMS else ()
    if 8 * len(seeds) * max(len(d) * dim_d, sum(map(math.prod, blocks))) > np.iinfo(np.intp).max:
        raise ConfigError(f"dimensions d={dim_d} p={dim_p} need more memory than can be addressed")
    for pos, val in zip(positives, valid):
        if len(val) == 0:
            raise ConfigError("validation set is empty")
        if len(pos) == 0:
            raise ConfigError("training set has no positive triples")
    entity_ids = d.entity_id_array()
    if len(entity_ids) < 2:
        raise ConfigError("corruption needs at least 2 entities")
    # fixed for the run, so a fold leaving the stack keeps the others' batches
    config = replace(config, batch_size=min(config.batch_size, max(map(len, positives))))

    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    relation_ids = frozenset(d.relation_ids)
    inits = [(init_embeddings(len(d), dim_d, rng).vectors, init_params(form, dim_d, dim_p, rng))
             for rng in rngs]   # each fold's embeddings, then its parameters
    emb = EmbeddingTable(np.stack([vectors for vectors, _ in inits]), relation_ids)
    emb.normalize_rows()
    params = inits[0][1].from_buffer(np.stack([p.buf for _, p in inits]), dim_p, dim_d)

    folds = list(range(len(seeds)))   # the fold in each row of the stack
    traces = [TrainTrace() for _ in folds]
    best: list[Model | None] = [None for _ in folds]
    # an overflow shows as a non-finite loss, gradient, norm or score, which
    # the checks report as one NumericalError or MetricError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs_max):
            t0 = time.perf_counter()
            mean_loss = _sgd_epoch([positives[f] for f in folds], [rngs[f] for f in folds],
                                   emb, params, config, entity_ids)
            emb.normalize_rows()
            share = (time.perf_counter() - t0) / len(folds)
            keep = []
            for row, f in enumerate(folds):
                t1 = time.perf_counter()
                fold_emb = EmbeddingTable(emb.vectors[row], relation_ids)
                fold_params = params[row]
                val = valid[f]
                val_scores = -energies_batch(fold_emb, fold_params, val.lhs, val.rel, val.rhs)
                val_auc = evaluator.auc_pr(evaluator.ScoredSet(val_scores, val.label))
                secs = share + time.perf_counter() - t1
                trace = traces[f]
                trace.epochs.append(EpochRecord(float(mean_loss[row]), val_auc, secs))
                if _log_enabled():
                    print(f"epoch={epoch} loss={mean_loss[row]:.6f} val_auc={val_auc:.6f} "
                          f"secs={secs:.3f}")

                # a tie is not an improvement; epochs[e] is epoch e of the fold
                if trace.best_epoch < 0 or val_auc > trace.epochs[trace.best_epoch].val_auc:
                    best[f] = Model(form, list(d.symbols), relation_ids,
                                    fold_emb.copy(), fold_params.copy())
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
        else:
            for f in folds:
                traces[f].stop_reason = "epochs_max"
    return list(zip(best, traces))


def _sgd_epoch(positives: list[TripleSet], rngs: list[np.random.Generator],
               emb: EmbeddingTable, params: Params, config: TrainConfig,
               entity_ids: np.ndarray) -> np.ndarray:
    """One epoch of every fold in the stack; row r of the stack trains on
    ``positives[r]`` with ``rngs[r]``. Returns each fold's mean loss."""
    k, n = len(positives), emb.n
    counts, size = np.array([len(pos) for pos in positives]), config.batch_size
    n_batches = -(-counts.max() // size)
    cols = np.arange(n_batches * size)
    # lhs, rel, rhs of each fold's shuffled positives, then of their
    # corruptions; past its end a fold repeats its last pair, weighted 0
    ids = np.empty((6, k, len(cols)), dtype=np.int64)
    for row, (pos, rng) in enumerate(zip(positives, rngs)):
        perm = rng.permutation(len(pos))
        lhs, rel, rhs = pos.lhs[perm], pos.rel[perm], pos.rhs[perm]
        corrupted = _corrupt_batch(lhs, rel, rhs, config.corruption_mode, rng, entity_ids)
        at = np.minimum(cols, len(pos) - 1)
        for slot, a in enumerate((lhs, rel, rhs, *corrupted)):
            ids[slot, row] = a[at]
    _check_ids(ids, n)
    ids += n * np.arange(k)[:, None]   # rows of the flat (K * n, d) view
    # batch-major: batch, slot, fold, then the batch's positives and corruptions
    batches = (ids.reshape(2, 3, k, n_batches, size).transpose(3, 1, 2, 0, 4)
               .reshape(n_batches, 3, k, 2 * size))
    counted = (cols < counts[:, None]).reshape(k, n_batches, size).swapaxes(0, 1)
    grad = params.empty_like()
    elements = np.arange(emb.vectors.size).reshape(k * n, emb.dim)
    total = np.zeros(k)
    for mask, batch in zip(counted, batches):
        losses = _sgd_step_arrays(mask, batch, emb, params, config, grad, elements)
        total += np.where(mask, losses, 0.0).sum(axis=-1)
    return total / counts
