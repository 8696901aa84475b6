"""Traced runs: wrappers around the program's layer boundaries.

Each wrapped function records a span (name, start, end, parent, run id and
a size such as rows or bytes) in memory. Spans are written out once, at the
end of the benchmark, and self time is computed from them: a span's
duration minus the durations of its direct children.

A name is patched on the module object where callers look it up. Modules
that import a function by name hold their own binding, so such a function
is wrapped once per module (``energies_batch`` on ``sme.trainer`` and
``sme.evaluator``, ``load_triples`` and ``make_folds`` on ``sme.cli``).
A name that no longer exists is skipped, and the metrics that depend on
it are reported as absent rather than failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import os
import statistics
import time
from collections import Counter
from pathlib import Path


def _nbytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _rows(args) -> int:
    return len(args[2])            # energies_batch(emb, params, lhs, rel, rhs)


def _pairs_attempted(args) -> int:
    return len(args[0])            # _sgd_step_arrays(p_lhs, ...)


def _pairs_active(args) -> int:
    # _accumulate_gradients(emb, params, lhs, rel, rhs, sign, ...) runs once
    # for the positives (sign +1) and once for the corruptions of the
    # active pairs; count the pairs once.
    return len(args[2]) if args[5] > 0 else 0


def _saved_bytes(args) -> int:
    return _nbytes(args[1])        # save_model(model, path)


def _report_bytes(args) -> int:
    return _nbytes(args[1]) + _nbytes(args[2])   # EvalReport.save(self, json, text)


# (module, attribute path, span name, size of one call)
TARGETS = [
    ("sme.dataset", "load_triples", "dataset.load_triples", None),
    ("sme.cli", "load_triples", "dataset.load_triples", None),
    ("sme.dataset", "make_folds", "dataset.make_folds", None),
    ("sme.cli", "make_folds", "dataset.make_folds", None),
    ("sme.dataset", "FoldSplit.fold_sets", "dataset.fold_sets", None),
    ("sme.trainer", "train", "trainer.train", None),
    ("sme.trainer", "_corrupt_batch", "trainer.corrupt", None),
    ("sme.trainer", "_sgd_step_arrays", "trainer.sgd_step", _pairs_attempted),
    ("sme.trainer", "_accumulate_gradients", "trainer.gradients", _pairs_active),
    ("sme.trainer", "energies_batch", "model.energies_batch", _rows),
    ("sme.evaluator", "energies_batch", "model.energies_batch", _rows),
    ("sme.model", "energy", "model.energy", None),
    ("sme.model", "EmbeddingTable.normalize_rows", "model.normalize_rows", None),
    ("numpy", "einsum", "numpy.einsum", None),
    ("sme.evaluator", "auc_pr", "evaluator.auc_pr", None),
    ("sme.evaluator", "pr_curve", "evaluator.pr_curve", None),
    ("sme.evaluator", "score_set", "evaluator.score_set", None),
    ("sme.evaluator", "run_fold", "evaluator.run_fold", None),
    ("sme.evaluator", "EvalReport.save", "evaluator.report_save", _report_bytes),
    ("sme.modelfile", "save_model", "modelfile.save_model", _saved_bytes),
    ("sme.modelfile", "load_model", "modelfile.load_model", None),
    ("sme.cli", "main", "cli", None),     # span named cli.<command>
]

# Per-layer metric -> (unit, span names it is computed from).
METRICS = {
    "dataset.load_triples.s": ("s", ["dataset.load_triples"]),
    "dataset.make_folds.s": ("s", ["dataset.make_folds"]),
    "dataset.fold_sets.s": ("s", ["dataset.fold_sets"]),
    "trainer.train.s": ("s", ["trainer.train"]),
    "trainer.corrupt.s": ("s", ["trainer.corrupt"]),
    "trainer.sgd_step.s": ("s", ["trainer.sgd_step"]),
    "trainer.sgd_step.calls": ("count", ["trainer.sgd_step"]),
    "trainer.sgd_step.self_s": ("s", ["trainer.sgd_step"]),
    "trainer.gradients.s": ("s", ["trainer.gradients"]),
    "trainer.gradients.calls": ("count", ["trainer.gradients"]),
    "trainer.validate.s": ("s", ["trainer.train", "model.energies_batch",
                                 "evaluator.auc_pr"]),
    "trainer.pairs": ("count", ["trainer.sgd_step"]),
    "trainer.active_pairs": ("count", ["trainer.gradients"]),
    "trainer.active_frac": ("fraction", ["trainer.sgd_step", "trainer.gradients"]),
    "model.energies_batch.train.s": ("s", ["model.energies_batch", "trainer.sgd_step"]),
    "model.energies_batch.train.calls": ("count", ["model.energies_batch",
                                                   "trainer.sgd_step"]),
    "model.energies_batch.train.us_per_call": ("us", ["model.energies_batch",
                                                      "trainer.sgd_step"]),
    "model.energies_batch.bulk.s": ("s", ["model.energies_batch"]),
    "model.energies_batch.bulk.rows_per_s": ("1/s", ["model.energies_batch"]),
    "model.energy.s": ("s", ["model.energy"]),
    "model.energy.calls": ("count", ["model.energy"]),
    "model.normalize_rows.s": ("s", ["model.normalize_rows"]),
    "numpy.einsum.calls": ("count", ["numpy.einsum"]),
    "numpy.einsum.s": ("s", ["numpy.einsum"]),
    "evaluator.auc_pr.s": ("s", ["evaluator.auc_pr"]),
    "evaluator.auc_pr.calls": ("count", ["evaluator.auc_pr"]),
    "evaluator.pr_curve.s": ("s", ["evaluator.pr_curve"]),
    "evaluator.score_set.s": ("s", ["evaluator.score_set"]),
    "evaluator.run_fold.s": ("s", ["evaluator.run_fold"]),
    "evaluator.run_fold.self_s": ("s", ["evaluator.run_fold"]),
    "evaluator.report_save.s": ("s", ["evaluator.report_save"]),
    "evaluator.report_bytes": ("B", ["evaluator.report_save"]),
    "modelfile.save_model.s": ("s", ["modelfile.save_model"]),
    "modelfile.load_model.s": ("s", ["modelfile.load_model"]),
    "modelfile.bytes": ("B", ["modelfile.save_model"]),
    "cli.inspect.self_s": ("s", ["cli"]),
    "cli.score.self_s": ("s", ["cli"]),
}


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path under a module, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


class Tracer:
    """Installs the wrappers for one traced pass at a time."""

    def __init__(self):
        # span: [name, start, end, parent index, run id, size, children's time]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.run_id = -1
        found = {name for module, path, name, _ in TARGETS
                 if _resolve(module, path) is not None}
        self.missing = {name for _, _, name, _ in TARGETS} - found

    def install(self, run_id: int) -> None:
        self.run_id = run_id
        for module, path, name, size in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, size))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name
            if name == "cli":   # cli.main(argv): one span name per command
                span_name = f"cli.{args[0][0]}" if args and args[0] else "cli.main"
            index = len(spans)
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1,
                    self.run_id, 0, 0.0]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][6] += span[2] - span[1]
                if size is not None:
                    try:
                        span[5] = size(args)
                    except (IndexError, TypeError):
                        pass    # a changed signature leaves the size at 0

        traced.__wrapped__ = fn
        return traced

    def absent(self) -> list[str]:
        """Per-layer metrics whose wrapped name does not exist."""
        return sorted(m for m, (_, names) in METRICS.items()
                      if any(n in self.missing for n in names))

    def metrics(self, scales) -> dict[str, float]:
        """Median over the traced runs of each per-layer metric; run i's
        times are multiplied by scales[i] (calib.py)."""
        per_run = []
        for run_id, scale in enumerate(scales):
            values = self._run_metrics(run_id)
            for m, (unit, _) in METRICS.items():
                if unit in ("s", "us"):
                    values[m] *= scale
                elif unit == "1/s":
                    values[m] /= scale
            per_run.append(values)
        return {m: statistics.median(v[m] for v in per_run) for m in METRICS}

    def _run_metrics(self, run_id: int) -> dict[str, float]:
        spans = self.spans
        idx = [i for i, s in enumerate(spans) if s[4] == run_id]
        total, calls, self_s, size = Counter(), Counter(), Counter(), Counter()
        for i in idx:
            name, start, end, _, _, n, children = spans[i]
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - children
            size[name] += n

        def parent_name(i):
            p = spans[i][3]
            return spans[p][0] if p >= 0 else ""

        eb_train = [i for i in idx if spans[i][0] == "model.energies_batch"
                    and parent_name(i) == "trainer.sgd_step"]
        eb_bulk = [i for i in idx if spans[i][0] == "model.energies_batch"
                   and parent_name(i) != "trainer.sgd_step"]
        validate = [i for i in idx if parent_name(i) == "trainer.train"
                    and spans[i][0] in ("model.energies_batch", "evaluator.auc_pr")]

        def dur(ids):
            return sum(spans[i][2] - spans[i][1] for i in ids)

        eb_train_s, bulk_s = dur(eb_train), dur(eb_bulk)
        bulk_rows = sum(spans[i][5] for i in eb_bulk)
        pairs = size.get("trainer.sgd_step", 0)
        active = size.get("trainer.gradients", 0)
        derived = {
            "trainer.validate.s": dur(validate),
            "trainer.pairs": pairs,
            "trainer.active_pairs": active,
            "trainer.active_frac": active / pairs if pairs else 0.0,
            "model.energies_batch.train.s": eb_train_s,
            "model.energies_batch.train.calls": len(eb_train),
            "model.energies_batch.train.us_per_call":
                1e6 * eb_train_s / len(eb_train) if eb_train else 0.0,
            "model.energies_batch.bulk.s": bulk_s,
            "model.energies_batch.bulk.rows_per_s": bulk_rows / bulk_s if bulk_s else 0.0,
            "evaluator.report_bytes": size.get("evaluator.report_save", 0),
            "modelfile.bytes": size.get("modelfile.save_model", 0),
        }
        # The rest are named "<span name>.<statistic>".
        stats = {"s": total, "calls": calls, "self_s": self_s}
        out = {}
        for metric in METRICS:
            if metric in derived:
                out[metric] = derived[metric]
            else:
                span, stat = metric.rsplit(".", 1)
                out[metric] = stats[stat].get(span, 0)
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: run, id, parent, name, start, end, size."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("run\tid\tparent\tname\tstart\tend\tsize\n")
            for i, (name, start, end, parent, run, n, _) in enumerate(self.spans):
                fh.write(f"{run}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t{n}\n")
