import json
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sme import cli, trainer
from sme.dataset import load_triples, make_folds
from sme.errors import (ConfigError, IntegrityError, LookupIdError, MetricError,
                        NumericalError, OutOfDictionaryError, ParseError, ShapeError,
                        SmeError)
from sme.modelfile import load_model

from conftest import two_group_records, write_triples


@pytest.fixture
def toy_files(tmp_path):
    tsv = write_triples(tmp_path / "toy.tsv", two_group_records())
    manifest = tmp_path / "toy.json"
    manifest.write_text(json.dumps(
        {"name": "toy", "triples": "toy.tsv", "folds": 4, "seed": 0}))
    return tmp_path, manifest, tsv


def run(argv):
    return cli.main(argv)


class TestInspect:
    def test_toy_counts(self, toy_files, capsys):
        _, manifest, _ = toy_files
        assert run(["inspect", "--dataset", str(manifest)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("entities=12 relations=2 records=288 valid=")

    def test_percent_formatting(self, tmp_path, capsys):
        # 22.9% positives, like the most positive-heavy benchmark
        records = [(f"e{i}", "r", f"e{(i+1) % 1000}", 1 if i < 229 else 0)
                   for i in range(1000)]
        path = write_triples(tmp_path / "p.tsv", records)
        assert run(["inspect", "--dataset", str(path)]) == 0
        assert "valid=22.9%" in capsys.readouterr().out

    def test_empty_file_is_integrity_error(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        assert run(["inspect", "--dataset", str(path)]) == 3

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["inspect", "--dataset", str(tmp_path / "nope.tsv")]) == 2


class TestTrain:
    def test_writes_model_and_trace(self, toy_files, capsys, monkeypatch):
        monkeypatch.setenv("SME_LOG", "info")
        tmp_path, manifest, _ = toy_files
        out = tmp_path / "model.sme"
        code = run(["train", "--dataset", str(manifest), "--fold", "0",
                    "--form", "bilinear", "--dim-d", "4", "--dim-p", "4",
                    "--epochs", "3", "--out", str(out)])
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "epoch=0 loss=" in stdout
        model = load_model(out)
        assert model.form == "bilinear"

    def test_bitwise_deterministic(self, toy_files, monkeypatch):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        out1, out2 = tmp_path / "m1.sme", tmp_path / "m2.sme"
        args = ["train", "--dataset", str(manifest), "--fold", "1",
                "--form", "linear", "--dim-d", "4", "--dim-p", "4",
                "--epochs", "4", "--seed", "11"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_manifest_usage_exit(self, tmp_path):
        assert run(["train", "--dataset", str(tmp_path / "missing.json")]) == 2

    def test_no_arguments_usage_exit(self):
        assert run([]) == 2


class TestEval:
    def test_report_files(self, toy_files, capsys, monkeypatch):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        prefix = tmp_path / "report"
        code = run(["eval", "--dataset", str(manifest), "--form", "linear",
                    "--dim-d", "4", "--dim-p", "4", "--epochs", "2",
                    "--folds", "2", "--out", str(prefix)])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["dataset"] == "toy"
        assert len(payload["per_fold_auc"]) == 2
        summary = capsys.readouterr().out
        assert f"mean={payload['mean']:.6f}" in summary
        assert f"mean={payload['mean']:.6f}" in (tmp_path / "report.txt").read_text()


class TestScore:
    @pytest.fixture
    def trained_model(self, toy_files, monkeypatch):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        out = tmp_path / "model.sme"
        run(["train", "--dataset", str(manifest), "--epochs", "3",
             "--dim-d", "4", "--dim-p", "4", "--out", str(out)])
        return out

    def test_scores_printed(self, trained_model, capsys):
        code = run(["score", "--model", str(trained_model), "e0\tsame\te1"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        fields = out.split("\t")
        assert fields[:3] == ["e0", "same", "e1"]
        float(fields[3])

    def test_purity(self, trained_model, capsys):
        run(["score", "--model", str(trained_model), "e0\tsame\te1"])
        first = capsys.readouterr().out
        run(["score", "--model", str(trained_model), "e0\tsame\te1"])
        assert capsys.readouterr().out == first

    def test_unknown_symbol(self, trained_model, capsys):
        code = run(["score", "--model", str(trained_model), "e0\tsame\tunknown_guy"])
        assert code == 3
        assert "out-of-dictionary" in capsys.readouterr().err

    def test_malformed_triple(self, trained_model):
        assert run(["score", "--model", str(trained_model), "just-one-field"]) == 2


class TestCanonicalSmoke:
    def test_nations_two_fold_under_a_minute(self, tmp_path, monkeypatch):
        from conftest import require_canonical
        monkeypatch.setenv("SME_LOG", "quiet")
        path = require_canonical("nations")
        t0 = time.perf_counter()
        code = run(["eval", "--dataset", str(path), "--form", "bilinear",
                    "--folds", "2", "--seed", "0",
                    "--out", str(tmp_path / "nations_report")])
        secs = time.perf_counter() - t0
        assert code == 0
        assert secs < 60.0

    def test_umls_positives_outscore_corruptions(self):
        from conftest import load_canonical
        from sme.dataset import make_folds, positives_of
        from sme.evaluator import run_fold
        from sme.model import energies_batch
        from sme.trainer import TrainConfig, _corrupt_batch

        d, ts = load_canonical("umls")
        split = make_folds(ts, 10, seed=0)
        model, _, _ = run_fold(d, split, 0, "bilinear", 10, 10, TrainConfig())
        train_ts, _, _ = split.fold_sets(0)
        pos = positives_of(train_ts)
        rng = np.random.default_rng(0)
        take = rng.choice(len(pos), size=200, replace=False)
        lhs, rel, rhs = pos.lhs[take], pos.rel[take], pos.rhs[take]
        c_lhs, c_rel, c_rhs = _corrupt_batch(lhs, rel, rhs, "both", rng,
                                             d.entity_id_array())
        s_pos = -energies_batch(model.emb, model.params, lhs, rel, rhs)
        s_neg = -energies_batch(model.emb, model.params, c_lhs, c_rel, c_rhs)
        assert (s_pos > s_neg).mean() >= 0.90


class TestRejectsZeroSizes:
    @pytest.mark.parametrize("argv", [
        ["train", "--dim-d", "0"],
        ["train", "--dim-p", "0"],
        ["train", "--dim-d", "-3"],
        ["eval", "--dim-p", "0"],
        ["eval", "--jobs", "0"],
    ])
    def test_usage_exit_and_no_output(self, toy_files, capsys, monkeypatch, argv):
        monkeypatch.setenv("SME_LOG", "info")
        tmp_path, manifest, _ = toy_files
        out = tmp_path / "out"
        code = run([argv[0], "--dataset", str(manifest), "--epochs", "1",
                    "--out", str(out), *argv[1:]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not list(tmp_path.glob("out*"))


class TestOneLineErrors:
    """Bad settings and numeric aborts end in their exit code and exactly one
    stderr line. A numpy warning would print lines of its own before it, so
    warnings are raised as errors here."""

    def run_one_line(self, argv, capfd):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return code

    @pytest.mark.parametrize("argv, code", [
        (["train", "--lr", "inf"], 2),
        (["train", "--lr", "nan"], 2),
        (["train", "--margin", "inf"], 2),
        (["eval", "--margin", "nan"], 2),
        (["train", "--seed", "-1"], 2),
        (["train", "--lr", "1e308"], 4),
        (["train", "--lr", "1e100", "--form", "linear"], 4),
        (["eval", "--lr", "1e308", "--folds", "3"], 4),
    ])
    def test_exit_code_and_one_line(self, toy_files, capfd, monkeypatch, argv, code):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        assert self.run_one_line([argv[0], "--dataset", str(manifest), "--epochs", "3",
                                  "--out", str(tmp_path / "out"), *argv[1:]], capfd) == code

    @pytest.mark.parametrize("command, out", [("train", "nodir/m.sme"),
                                              ("eval", "nodir/sub/report")])
    def test_missing_output_directory_before_training(self, toy_files, capfd, monkeypatch,
                                                      command, out):
        tmp_path, manifest, _ = toy_files

        def refuse(*args, **kwargs):
            raise AssertionError("reached before the output directory was checked")

        monkeypatch.setattr(cli, "load_triples", refuse)
        monkeypatch.setattr(trainer, "train_folds", refuse)
        argv = [command, "--dataset", str(manifest), "--epochs", "1",
                "--out", str(tmp_path / out)]
        assert self.run_one_line(argv, capfd) == 3
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("payload", [
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": "abc"}', id="folds-text"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": null}', id="folds-null"),
        pytest.param(b'{"name": "toy", "triples": 5}', id="triples-number"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": true}', id="folds-bool"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": 4.5}', id="folds-float"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "seed": 1.0}', id="seed-float"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "seed": false}', id="seed-bool"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "seed": -1}', id="seed-negative"),
        pytest.param(b'{"name": "toy", "triples": "."}', id="triples-directory"),
        pytest.param(b'["toy", "toy.tsv"]', id="top-level-list"),
        pytest.param(b'"toy.tsv"', id="top-level-string"),
        pytest.param(b'{"name": "t\xe9", "triples": "toy.tsv"}', id="not-utf8"),
        pytest.param(b'[' * 100000, id="deep-nesting"),
    ])
    def test_bad_manifest_is_data_error(self, toy_files, capfd, payload):
        tmp_path, _, _ = toy_files
        manifest = tmp_path / "bad.json"
        manifest.write_bytes(payload)
        assert self.run_one_line(["inspect", "--dataset", str(manifest)], capfd) == 3


# every error class and the exit code it is documented to end a command with
EXIT_CODES = {ConfigError: 2, ShapeError: 3, LookupIdError: 3, OutOfDictionaryError: 3,
              ParseError: 3, IntegrityError: 3, NumericalError: 4, MetricError: 4}


class TestExitCodes:
    def test_every_error_class_has_a_documented_code(self):
        assert set(SmeError.__subclasses__()) == set(EXIT_CODES)

    @pytest.mark.parametrize("cls, code", EXIT_CODES.items(),
                             ids=[cls.__name__ for cls in EXIT_CODES])
    def test_code_and_one_line(self, monkeypatch, capsys, cls, code):
        def fail(args):
            raise cls("raised by the command")

        monkeypatch.setitem(cli._COMMANDS, "inspect", fail)
        assert run(["inspect", "--dataset", "unused.tsv"]) == code
        out, err = capsys.readouterr()
        assert out == "" and err == "error: raised by the command\n"


class TestNoAbbreviatedFlags:
    """A prefix of a flag is not that flag: ``--fold`` on ``eval`` does not
    mean ``--folds``, nor ``--epoch`` ``--epochs``."""

    @pytest.mark.parametrize("argv", [["eval", "--fold", "3"], ["train", "--epoch", "2"]],
                             ids=["eval-fold", "train-epoch"])
    def test_usage_exit_and_no_output(self, toy_files, capsys, monkeypatch, argv):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        code = run([argv[0], "--dataset", str(manifest), "--patience", "1",
                    "--out", str(tmp_path / "out"), *argv[1:]])
        assert code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))


def train_capped(tsv, out, flags, command="train", timeout=300):
    """``sme train`` (or ``command``) for one epoch, unless ``flags`` give
    ``--epochs``, in a child under a 1 GiB address-space limit, so no run
    can take more memory than that."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", SME_LOG="quiet",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "sme.cli", command, "--dataset", str(tsv), "--epochs", "1",
         "--out", str(out), *flags],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))


class TestOutOfMemory:
    """A size flag whose arrays do not fit ends in one line and exit 2."""

    @pytest.mark.parametrize("flags", [
        ["--dim-d", "100000"],                      # a 745 GiB bilinear tensor
        ["--dim-d", "3000", "--dim-p", "3000000"],  # a 196 TiB one
    ])
    def test_usage_exit_and_one_line(self, toy_files, flags):
        tmp, _, tsv = toy_files
        proc = train_capped(tsv, tmp / "m.sme", flags)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1


class TestUnaddressableDimensions:
    """A dimension whose arrays numpy could not even address is a usage
    error, found before anything is allocated."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("flag, value", [("--dim-d", 2**63 - 1), ("--dim-p", 2**63)])
    def test_usage_exit_before_allocation(self, toy_files, monkeypatch, capsys,
                                          command, flag, value):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp, _, tsv = toy_files

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(trainer, "init_embeddings", refuse)
        monkeypatch.setattr(trainer, "init_params", refuse)
        code = run([command, "--dataset", str(tsv), "--epochs", "1", "--out", str(tmp / "out"),
                    flag, str(value)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: dimensions ") and err.count("\n") == 1


class TestBatchCap:
    """A batch wider than the training positives trains as one batch of
    them all: a wider one would only add padding pairs."""

    @pytest.mark.parametrize("form", ["linear", "bilinear"])
    def test_any_wider_batch_gives_the_same_model(self, toy_files, monkeypatch, form):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp, _, tsv = toy_files
        _, ts = load_triples(tsv)
        count = make_folds(ts, 10, 0).fold_sets(0)[0].n_positive   # sme train's defaults

        def model_bytes(batch):
            out = tmp / f"m-{batch}.sme"
            assert run(["train", "--dataset", str(tsv), "--form", form, "--epochs", "1",
                        "--batch", str(batch), "--out", str(out)]) == 0
            return out.read_bytes()

        expect = model_bytes(count)
        for batch in (count + 1, 20 * count):
            assert model_bytes(batch) == expect, batch
        # the epoch is not padded to the batch: 100M pairs would need 4.47 GiB of ids
        proc = train_capped(tsv, tmp / "wide.sme", ["--form", form, "--batch", "100000000"])
        assert proc.returncode == 0, proc.stderr
        assert (tmp / "wide.sme").read_bytes() == expect
