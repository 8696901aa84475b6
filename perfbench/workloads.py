"""The three benchmark workloads.

Each workload is one closed-loop caller: it issues the next call into the
program only after the previous one returns, as a CLI user does. A workload
has a set-up (timed on its own, repeated by the runner) and a pass (the
timed task, repeated until the run's time is up). A pass runs each of its
calls into the program as a stage of a ``calib.Stages``, which times it and
the calibration units around it. Every pass returns those stages, the items
it pushed through and the stage they took, its quality figure and the
outcome of each output check.

The program is reached only through its public modules (``sme.dataset``,
``sme.trainer``, ``sme.evaluator``, ``sme.modelfile``, ``sme.cli``), always
looked up as module attributes at call time, so the tracer in
``spans.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from calib import Stages

FOLDS = 10
DIM = 10          # d = p = 10, the CLI defaults
BATCH = 32        # the CLI default


@dataclass
class Pass:
    stages: Stages        # wall time and scale of each stage
    items: int            # SGD pairs, or rows scored in bulk
    items_stage: str      # the stage those items took
    auc: float
    checks: list[tuple[str, bool]] = field(default_factory=list)


def _cli(sme, argv) -> tuple[int, str]:
    """Run one `sme` command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sme.cli.main(argv)
    return code, out.getvalue()


def _above_chance(auc: float, positive_rate: float) -> bool:
    """A ranking that learned nothing scores about the positive rate."""
    return math.isfinite(auc) and auc > positive_rate


class Workload:
    name = ""
    shape = ""

    def __init__(self, sme, files: dict, seed: int, work: Path):
        self.sme, self.files, self.seed, self.work = sme, files, seed, work
        self.positive_rate = files["positives"] / files["records"]
        self.first_auc = None

    def setup(self):
        """Load what the timed passes need; returns the state for them."""
        raise NotImplementedError

    def run_pass(self, state, stages: Stages) -> Pass:
        raise NotImplementedError

    def _quality_checks(self, auc: float) -> list[tuple[str, bool]]:
        if self.first_auc is None:
            self.first_auc = auc
        return [("auc_above_chance", _above_chance(auc, self.positive_rate)),
                ("auc_repeatable", auc == self.first_auc)]


class UmlsBilinearTrain(Workload):
    """`trainer.train` on fold 0 for a fixed epoch count, then test scoring.

    The epoch count is fixed (patience = epochs) so a kernel that changes
    rounding cannot move the early stop and change the amount of work.
    """

    name = "umls-bilinear-train"
    shape = "umls"
    epochs = 5
    learning_rate = 0.03

    def setup(self):
        ds = self.sme.dataset
        d, ts = ds.load_triples(self.files["tsv"])
        split = ds.make_folds(ts, FOLDS, self.seed)
        train_ts, valid_ts, test_ts = split.fold_sets(0)
        return d, train_ts, valid_ts, test_ts

    def run_pass(self, state, stages: Stages) -> Pass:
        sme = self.sme
        d, train_ts, valid_ts, test_ts = state
        config = sme.trainer.TrainConfig(
            learning_rate=self.learning_rate, epochs_max=self.epochs,
            patience=self.epochs, batch_size=BATCH, seed=self.seed)
        model, _ = stages.run("train_s", lambda: sme.trainer.train(
            train_ts, valid_ts, d, "bilinear", DIM, DIM, config))
        auc = stages.run("test_score_s", lambda: sme.evaluator.auc_pr(
            sme.evaluator.score_set(model, test_ts)))
        pairs = self.epochs * train_ts.n_positive
        return Pass(stages, pairs, "train_s", auc, self._quality_checks(auc))


class KinshipsLinearEval(Workload):
    """A whole `sme eval`: linear form, 10 folds, --jobs 1, fixed epochs."""

    name = "kinships-linear-eval"
    shape = "kinships"
    epochs = 3

    def setup(self):
        # The same load and split `sme eval` starts with; warms the file
        # cache and yields the number of SGD pairs one eval runs.
        ds = self.sme.dataset
        _, ts = ds.load_triples(self.files["tsv"])
        split = ds.make_folds(ts, FOLDS, self.seed)
        return self.epochs * sum(split.fold_sets(i)[0].n_positive
                                 for i in range(FOLDS))

    def run_pass(self, pairs, stages: Stages) -> Pass:
        prefix = self.work / "report"
        argv = ["eval", "--dataset", str(self.files["tsv"]), "--form", "linear",
                "--folds", str(FOLDS), "--epochs", str(self.epochs),
                "--patience", str(self.epochs), "--batch", str(BATCH),
                "--dim-d", str(DIM), "--dim-p", str(DIM),
                "--seed", str(self.seed), "--jobs", "1", "--out", str(prefix)]
        code, out = stages.run("eval_s", lambda: _cli(self.sme, argv))
        checks = [("eval_exit_0", code == 0),
                  ("eval_stdout", out.startswith("dataset=kinships form=linear mean="))]
        auc = math.nan
        try:
            report = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
            folds = report["per_fold_auc"]
            ok = (len(folds) == FOLDS and all(math.isfinite(a) for a in folds)
                  and math.isclose(report["mean"], sum(folds) / FOLDS, rel_tol=1e-12))
            auc = float(report["mean"])
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        checks.append(("report_has_k_folds", ok))
        return Pass(stages, pairs, "eval_s", auc, checks + self._quality_checks(auc))


class UmlsIngestScore(Workload):
    """`sme inspect`, model save/load, bulk scoring of every record, and
    `sme score` on a seeded list of triples; the trainer does no work."""

    name = "umls-ingest-score"
    shape = "umls"
    n_score = 20000   # triples handed to one `sme score` call

    def setup(self):
        sme = self.sme
        d, ts = sme.dataset.load_triples(self.files["tsv"])
        model = sme.modelfile.load_model(self.files["model"])
        return d, ts, model

    def run_pass(self, state, stages: Stages) -> Pass:
        sme = self.sme
        d, ts, model = state
        rng = np.random.Generator(np.random.PCG64(self.seed))
        rows = rng.choice(len(ts), size=self.n_score, replace=False)
        triples = ["\t".join(d.symbols[i] for i in (ts.lhs[r], ts.rel[r], ts.rhs[r]))
                   for r in rows]
        path = self.work / "model.sme"

        def roundtrip():
            sme.modelfile.save_model(model, path)
            return sme.modelfile.load_model(path)

        code, out = stages.run("ingest_s", lambda: _cli(
            sme, ["inspect", "--dataset", str(self.files["tsv"])]))
        loaded = stages.run("roundtrip_s", roundtrip)
        scored = stages.run("bulk_score_s", lambda: sme.evaluator.score_set(loaded, ts))
        auc = stages.run("auc_s", lambda: sme.evaluator.auc_pr(scored))
        score_code, score_out = stages.run("cli_score_s", lambda: _cli(
            sme, ["score", "--model", str(path), *triples]))

        checks = [("inspect_line", code == 0
                   and out.strip() == self.files["inspect"]),
                  ("model_roundtrip_bitwise", _same_model(model, loaded)),
                  ("score_matches_bulk", score_code == 0 and _score_matches(
                      score_out, triples, scored.scores[rows]))]
        return Pass(stages, len(ts), "bulk_score_s", auc,
                    checks + self._quality_checks(auc))


def _same_model(a, b) -> bool:
    return (a.form == b.form and a.symbols == b.symbols
            and a.relation_ids == b.relation_ids
            and a.emb.vectors.tobytes() == b.emb.vectors.tobytes()
            and len(a.params.arrays()) == len(b.params.arrays())
            and all(x.tobytes() == y.tobytes()
                    for x, y in zip(a.params.arrays(), b.params.arrays())))


def _score_matches(out: str, triples: list[str], bulk: np.ndarray) -> bool:
    """`sme score` prints each triple and its score; the scalar and batched
    paths must agree to 1e-12 relative (1e-15 absolute near zero)."""
    lines = out.splitlines()
    if len(lines) != len(triples):
        return False
    for line, triple, want in zip(lines, triples, bulk.tolist()):
        head, _, value = line.rpartition("\t")
        try:
            got = float(value)
        except ValueError:
            return False
        if head != triple or not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15):
            return False
    return True


WORKLOADS = {w.name: w for w in (UmlsBilinearTrain, KinshipsLinearEval,
                                 UmlsIngestScore)}


def make_inputs(shape: str, seed: int, out: Path) -> dict:
    """Paths and expected counts of the generated files for one shape."""
    n_ent, n_rel, n_pos, _ = gen.SHAPES[shape]
    return {"tsv": out / f"{shape}.tsv", "model": out / f"{shape}.sme",
            "records": n_ent * n_ent * n_rel, "positives": n_pos,
            "inspect": gen.expected_inspect(shape)}
