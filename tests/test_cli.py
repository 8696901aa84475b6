import hashlib
import json
import os
import resource
import select
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from sme import cli, evaluator, trainer
from sme.dataset import TripleSet, load_triples, make_folds
from sme.errors import (EXIT_INTERRUPT, ConfigError, IntegrityError, LookupIdError,
                        MetricError, NumericalError, OutOfDictionaryError, ParseError,
                        ShapeError, SmeError)
from sme.modelfile import load_model

from conftest import (_child_env, negative_records, sme_capped, sme_piped, two_group_records,
                      write_triples)


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

    def test_fold_model_is_the_one_eval_scores(self, toy_files, monkeypatch):
        # sme train --fold f seeds fold f as sme eval does, so it writes
        # the model eval scores for that fold
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, tsv = toy_files
        out = tmp_path / "fold2.sme"
        assert run(["train", "--dataset", str(manifest), "--fold", "2", "--seed", "5",
                    "--form", "linear", "--dim-d", "4", "--dim-p", "4", "--epochs", "3",
                    "--out", str(out)]) == 0
        d, ts = load_triples(tsv)
        config = trainer.TrainConfig(epochs_max=3, seed=5)
        (want, *_), = evaluator.run_fold(d, make_folds(ts, 4, 5), [2], "linear", 4, 4, config)
        got = load_model(out)
        assert got.emb.vectors.tobytes() == want.emb.vectors.tobytes()
        assert got.params.buf.tobytes() == want.params.buf.tobytes()

    def test_fold_trains_through_run_fold(self, toy_files, monkeypatch):
        # sme train --fold f and sme eval share one route from a fold to its
        # model: one run_fold call for [f], and no trainer.train call
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        calls = []
        run_fold, train = evaluator.run_fold, trainer.train

        def counting_run_fold(d, split, folds, *args):
            calls.append(("run_fold", list(folds)))
            return run_fold(d, split, folds, *args)

        def counting_train(*args, **kwargs):
            calls.append(("train", None))
            return train(*args, **kwargs)

        monkeypatch.setattr(evaluator, "run_fold", counting_run_fold)
        monkeypatch.setattr(trainer, "train", counting_train)
        assert run(["train", "--dataset", str(manifest), "--fold", "2", "--form", "linear",
                    "--dim-d", "4", "--dim-p", "4", "--epochs", "2",
                    "--out", str(tmp_path / "fold2.sme")]) == 0
        assert calls == [("run_fold", [2])]

    def test_triple_file_trains_as_its_manifest(self, toy_files, monkeypatch):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, tsv = toy_files
        models = []
        for dataset in (manifest, tsv):
            out = tmp_path / f"{dataset.name}.sme"
            assert run(["train", "--dataset", str(dataset), "--folds", "4", "--seed", "0",
                        "--dim-d", "4", "--dim-p", "4", "--epochs", "3",
                        "--out", str(out)]) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]

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

    @pytest.mark.parametrize("form", ["linear", "bilinear"])
    def test_model_digest_is_that_of_the_saved_model(self, toy_files, monkeypatch, form):
        # each per_fold_run entry's model_sha256 is the SHA-256 of the file
        # sme train --fold writes for that fold; the folds' models differ
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        flags = ["--dataset", str(manifest), "--form", form, "--dim-d", "4", "--dim-p", "4",
                 "--epochs", "2", "--folds", "3"]
        assert run(["eval", *flags, "--out", str(tmp_path / "report")]) == 0
        runs = json.loads((tmp_path / "report.json").read_text())["per_fold_run"]
        digests = [r["model_sha256"] for r in runs]
        assert len(set(digests)) == 3
        for fold, digest in enumerate(digests):
            path = tmp_path / f"fold{fold}.sme"
            assert run(["train", *flags, "--fold", str(fold), "--out", str(path)]) == 0
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), fold

    def test_triple_file_named_by_stem_with_default_folds(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("SME_LOG", "quiet")
        tsv = write_triples(tmp_path / "groups.tsv", two_group_records())
        prefix = tmp_path / "report"
        code = run(["eval", "--dataset", str(tsv), "--form", "linear",
                    "--dim-d", "4", "--dim-p", "4", "--epochs", "1", "--out", str(prefix)])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["dataset"] == "groups"
        assert len(payload["per_fold_auc"]) == 10
        assert capsys.readouterr().out.startswith("dataset=groups ")

    def test_triple_file_name_that_is_not_utf8(self, tmp_path, monkeypatch, capsys):
        # the report names the file by its stem as UTF-8 text, the byte 0xff
        # as U+FFFD; inspect and train read the file as any other
        monkeypatch.setenv("SME_LOG", "quiet")
        tsv = write_triples(tmp_path / os.fsdecode(b"\xff.tsv"), two_group_records())
        done = sme_capped(["eval", "--dataset", str(tsv), "--form", "linear", "--dim-d", "4",
                           "--dim-p", "4", "--epochs", "1", "--folds", "2",
                           "--out", str(tmp_path / "report")])
        assert (done.returncode, done.stderr) == (0, "")
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert payload["dataset"] == "\ufffd"
        lines = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "dataset=\ufffd form=linear folds=2"
        assert lines[-1] == f"mean={payload['mean']:.6f} std={payload['std']:.6f}"
        assert done.stdout.startswith("dataset=\ufffd form=linear ")
        assert run(["inspect", "--dataset", str(tsv)]) == 0
        assert run(["train", "--dataset", str(tsv), "--epochs", "1", "--dim-d", "4",
                    "--dim-p", "4", "--out", str(tmp_path / "m.sme")]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {tmp_path / 'm.sme'}\n")

    @pytest.mark.parametrize("command,out,written", [
        ("train", b"\xff.sme", "wrote {0}/\ufffd.sme"),
        ("eval", b"\xffrep", "wrote={0}/\ufffdrep.json,{0}/\ufffdrep.txt")])
    def test_out_path_that_is_not_utf8_on_a_strict_stdout(self, tmp_path, monkeypatch,
                                                          command, out, written):
        # stdout names the files written as UTF-8 text, the byte 0xff as
        # U+FFFD, so a stdout that encodes strictly can print it
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8:strict")
        tsv = write_triples(tmp_path / "groups.tsv", two_group_records())
        done = sme_capped([command, "--dataset", str(tsv), "--form", "linear", "--dim-d", "4",
                           "--dim-p", "4", "--epochs", "1", "--folds", "2",
                           "--out", str(tmp_path / os.fsdecode(out))])
        assert (done.returncode, done.stderr) == (0, "")
        assert len(done.stdout.splitlines()) == 1
        assert done.stdout.endswith(written.format(tmp_path) + "\n")
        files = [out] if command == "train" else [out + b".json", out + b".txt"]
        assert all((tmp_path / os.fsdecode(name)).stat().st_size > 0 for name in files)


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

    @pytest.mark.parametrize("argv,code,message", [
        (["e0\tsame\te1", "e0\tsame\tnobody", "e0\tsame"], 3,
         "error: out-of-dictionary symbol: 'nobody'\n"),
        (["e0\tsame\te1", "e0\tsame", "e0\tsame\tnobody"], 2,
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got 'e0\\tsame': "
         "expected 3 tab-separated fields, got 2\n"),
        # e1 is a symbol of the model, but no relation type
        (["e0\tsame\te1", "e0\te1\tnobody", "e0\tsame\tnobody", "e0\tsame"], 3,
         "error: not a relation type of the model: 'e1'\n"),
        (["e0\tsame\tnobody", "e0\te1\te2"], 3,
         "error: out-of-dictionary symbol: 'nobody'\n"),
        (["e0\tsame\te1", "nobody\te1\te2"], 3,
         "error: out-of-dictionary symbol: 'nobody'\n"),
        # an argument is a record line of the triple format without its label:
        # a file would read this one as a comment, and a LF or a CR as a line end
        (["e0\tsame\te1", "#e0\tsame\te1", "e0\tsame\tnobody"], 2,
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got '#e0\\tsame\\te1': starts with '#'\n"),
        (["e0\tsame\te1\n", "e0\tsame\tnobody"], 2,
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got 'e0\\tsame\\te1\\n': "
         "holds a line end\n"),
        (["\tsame\te1", "e0\tsame\tnobody"], 2,
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got '\\tsame\\te1': empty symbol\n"),
        (["e0\tsame\te1\r", "e0\tsame"], 2,
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got 'e0\\tsame\\te1\\r': "
         "holds a line end\n"),
        (["e0\tsame\t\udcff", "e0\tsame"], 3,   # a non-UTF-8 byte of argv
         "error: out-of-dictionary symbol: '\\udcff'\n"),
        (["e0\tsame\te1\t1"], 2,   # a record line of a file, with its label
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got 'e0\\tsame\\te1\\t1': "
         "expected 3 tab-separated fields, got 4\n"),
        (["e0\tsame\te1", "", "e0\tsame\tnobody"], 2,   # a blank line in a file
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got '': is empty\n"),
        (["e0\tsame\t", "e0\tsame\tnobody"], 2,
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got 'e0\\tsame\\t': empty symbol\n"),
        (["e0\tsame\te1", "e0\r\tsame\te1", "e0\tsame\tnobody"], 2,
         "error: triple must be 'lhs<TAB>rel<TAB>rhs', got 'e0\\r\\tsame\\te1': "
         "holds a line end\n"),
    ])
    def test_first_bad_argument_decides(self, trained_model, capsys, argv, code, message):
        assert run(["score", "--model", str(trained_model), *argv]) == code
        out, err = capsys.readouterr()
        assert out == "" and err == message

    def test_symbol_with_a_leading_dash_after_double_dash(self, tmp_path, capsys, monkeypatch):
        # argparse reads an argument that starts with '-' as an option;
        # after '--' it is a triple, scored as score_set scores it
        monkeypatch.setenv("SME_LOG", "quiet")
        records = [(f"-{a}", rel, b, label) for a, rel, b, label in two_group_records()]
        tsv = write_triples(tmp_path / "dash.tsv", records)
        out = tmp_path / "dash.sme"
        assert run(["train", "--dataset", str(tsv), "--epochs", "2", "--dim-d", "4",
                    "--dim-p", "4", "--out", str(out)]) == 0
        assert run(["score", "--model", str(out), "-e0\tsame\te1"]) == 2
        capsys.readouterr()
        assert run(["score", "--model", str(out), "--", "-e0\tsame\te1"]) == 0
        model = load_model(out)
        ids = [np.array([model.symbols.index(s)]) for s in ("-e0", "same", "e1")]
        (want,) = evaluator.score_set(model, TripleSet(*ids, np.array([1]))).scores.tolist()
        assert capsys.readouterr().out == f"-e0\tsame\te1\t{want:.17g}\n"

    def test_many_arguments_print_as_one_each(self, trained_model, capsys):
        triples = [f"e{i % 12}\t{('same', 'other')[i % 2]}\te{i * 5 % 12}" for i in range(200)]
        assert run(["score", "--model", str(trained_model), *triples]) == 0
        together = capsys.readouterr().out
        one_each = []
        for triple in triples:
            run(["score", "--model", str(trained_model), triple])
            one_each.append(capsys.readouterr().out)
        assert together == "".join(one_each)

    def test_reader_closing_early_is_not_an_error(self, trained_model):
        """Every triple is scored before the first line is printed, so a
        reader that stops after one line (``sme score ... | head -n 1``) is
        no failure: exit 0 and nothing on stderr."""
        triples = [f"e{i % 12}\t{('same', 'other')[i % 2]}\te{i * 7 % 12}" for i in range(5000)]
        with sme_piped(["score", "--model", str(trained_model), *triples]) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()   # more output than a pipe holds is still unwritten
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert first.startswith(triples[0] + "\t")
        assert (code, err) == (0, "")


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
        (model, *_), = run_fold(d, split, [0], "bilinear", 10, 10, TrainConfig())
        train_ts, _, _ = split.fold_sets(0)
        pos = positives_of(train_ts)
        rng = np.random.default_rng(0)
        take = rng.choice(len(pos), size=200, replace=False)
        lhs, rel, rhs = pos.lhs[take], pos.rel[take], pos.rhs[take]
        c_lhs, c_rhs = _corrupt_batch(lhs, rhs, "both", rng, d.entity_id_array())
        s_pos = -energies_batch(model.emb, model.params, lhs, rel, rhs)
        s_neg = -energies_batch(model.emb, model.params, c_lhs, rel, c_rhs)
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

    @pytest.mark.parametrize("flags", [[], ["--batch", "5"]])
    def test_file_without_positives_names_them(self, tmp_path, capfd, monkeypatch, flags):
        # the batch is cut to the largest training set, but to no fewer than
        # one pair: the error names the missing positives, not a --batch of 0
        monkeypatch.setenv("SME_LOG", "quiet")
        tsv = write_triples(tmp_path / "negatives.tsv", negative_records())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", "--dataset", str(tsv), *flags, "--out", str(tmp_path / "m.sme")])
        assert code == 2
        assert capfd.readouterr().err == "error: training set has no positive triples\n"
        assert not (tmp_path / "m.sme").exists()

    def test_nan_mid_epoch_exits_4(self, toy_files, capfd, monkeypatch):
        # no step checks what it computes: a NaN planted in the third step
        # ends sme train at the end of that epoch, and no model is written
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        steps = []
        step = trainer._sgd_step_arrays

        def planting(counted, ids, ws, config):
            steps.append(len(steps))
            if len(steps) == 3:
                ws.param_buf[..., 0] = np.nan
            return step(counted, ids, ws, config)

        monkeypatch.setattr(trainer, "_sgd_step_arrays", planting)
        out = tmp_path / "nan.sme"
        assert self.run_one_line(["train", "--dataset", str(manifest), "--epochs", "3",
                                  "--out", str(out)], capfd) == 4
        assert not out.exists()

    # an output path that is a directory is refused as early: ``made`` is the
    # directory the case makes first, and "" stands for the working directory
    @pytest.mark.parametrize("command, out, made", [
        pytest.param("train", "nodir/m.sme", None, id="train-nodir/m.sme"),
        pytest.param("eval", "nodir/sub/report", None, id="eval-nodir/sub/report"),
        pytest.param("train", "dir", "dir", id="train-directory"),
        pytest.param("train", "", None, id="train-empty"),
        pytest.param("eval", "rep", "rep.json", id="eval-json-directory"),
        pytest.param("eval", "rep", "rep.txt", id="eval-txt-directory")])
    def test_missing_output_directory_before_training(self, toy_files, capfd, monkeypatch,
                                                      command, out, made):
        tmp_path, manifest, _ = toy_files
        if made:
            (tmp_path / made).mkdir()

        def refuse(*args, **kwargs):
            raise AssertionError("reached before the output directory was checked")

        monkeypatch.setattr(cli, "load_triples", refuse)
        monkeypatch.setattr(trainer, "train_folds", refuse)
        monkeypatch.chdir(tmp_path)
        argv = [command, "--dataset", str(manifest), "--epochs", "1",
                "--out", str(tmp_path / out) if out else ""]
        assert self.run_one_line(argv, capfd) == 3
        assert not (tmp_path / "nodir").exists()

    # a file to be written that is the --dataset file or a manifest's triple
    # file, under its own name or through a link, is refused before the
    # triple file is read: set.json names data.txt, and link is toy.tsv
    @pytest.mark.parametrize("command, dataset, out", [
        pytest.param("train", "toy.tsv", "toy.tsv", id="train-over-the-triple-file"),
        pytest.param("train", "toy.json", "toy.tsv", id="train-over-the-manifests-triples"),
        pytest.param("train", "toy.json", "link", id="train-through-a-link"),
        pytest.param("eval", "toy.json", "toy", id="eval-json-over-the-manifest"),
        pytest.param("eval", "set.json", "data", id="eval-txt-over-the-manifests-triples")])
    def test_output_that_is_the_dataset_before_training(self, toy_files, capfd, monkeypatch,
                                                        command, dataset, out):
        tmp_path, _, tsv = toy_files
        (tmp_path / "data.txt").write_bytes(tsv.read_bytes())
        (tmp_path / "set.json").write_text(json.dumps({"name": "set", "triples": "data.txt"}))
        (tmp_path / "link").symlink_to(tsv)
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}

        def refuse(*args, **kwargs):
            raise AssertionError("reached before the output file was checked")

        monkeypatch.setattr(cli, "load_triples", refuse)
        argv = [command, "--dataset", str(tmp_path / dataset), "--epochs", "1",
                "--out", str(tmp_path / out)]
        assert self.run_one_line(argv, capfd) == 2
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @staticmethod
    def one_class_file(tmp_path):
        """72 records, 2 of them positive: with 5 folds, some fold's test or
        validation set holds no positive."""
        records = [(f"e{i}", f"r{k}", f"e{j}", int((i, j, k) in ((0, 1, 0), (2, 3, 1))))
                   for i in range(6) for j in range(6) for k in range(2)]
        return write_triples(tmp_path / "one_class.tsv", records)

    def test_one_class_validation_set_before_training(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setenv("SME_LOG", "info")
        tsv = self.one_class_file(tmp_path)
        _, ts = load_triples(tsv)
        def fold_2_validates_on_no_positive(seed):
            train_ts, valid_ts, _ = make_folds(ts, 5, seed).fold_sets(2)
            return train_ts.n_positive > 0 and valid_ts.n_positive == 0

        seed = next(filter(fold_2_validates_on_no_positive, range(100)))
        argv = ["train", "--dataset", str(tsv), "--folds", "5", "--fold", "2",
                "--seed", str(seed), "--epochs", "2", "--out", str(tmp_path / "m.sme")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 4
        out, err = capfd.readouterr()
        assert err == ("error: AUC-PR undefined on fold 2's validation set: "
                       "need at least one positive and one negative\n")
        assert "epoch=" not in out and not (tmp_path / "m.sme").exists()

    def test_one_class_test_set_before_training(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setenv("SME_LOG", "info")
        tsv = self.one_class_file(tmp_path)
        _, ts = load_triples(tsv)
        split = make_folds(ts, 5, 0)
        first = next(f for f in range(5) if split.fold_sets(f)[2].n_positive == 0)
        argv = ["eval", "--dataset", str(tsv), "--folds", "5", "--seed", "0",
                "--epochs", "2", "--out", str(tmp_path / "rep")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 4
        out, err = capfd.readouterr()
        assert err == (f"error: AUC-PR undefined on fold {first}'s test set: "
                       "need at least one positive and one negative\n")
        assert "epoch=" not in out and not list(tmp_path.glob("rep*"))

    def test_one_class_test_set_before_any_worker(self, tmp_path, monkeypatch):
        # with --jobs 2 the refusal comes before the pool starts, and is the
        # --jobs 1 line; run_fold, which reads no test set, refuses a fold
        # outside the split
        d, ts = load_triples(self.one_class_file(tmp_path))
        split = make_folds(ts, 5, 0)
        first = next(f for f in range(5) if split.fold_sets(f)[2].n_positive == 0)
        config = trainer.TrainConfig(epochs_max=2)
        with pytest.raises(MetricError, match=f"fold {first}'s test set") as serial:
            evaluator.cross_validate(d, split, "linear", 4, 4, config, jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(evaluator, "ProcessPoolExecutor", no_pool)
        with pytest.raises(MetricError) as parallel:
            evaluator.cross_validate(d, split, "linear", 4, 4, config, jobs=2)
        assert str(parallel.value) == str(serial.value)
        with pytest.raises(ConfigError, match="outside"):
            evaluator.run_fold(d, split, [5], "linear", 4, 4, config)

    @pytest.mark.parametrize("payload", [
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": "abc"}', id="folds-text"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": null}', id="folds-null"),
        pytest.param(b'{"name": "toy", "triples": 5}', id="triples-number"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": true}', id="folds-bool"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": 4.5}', id="folds-float"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "seed": 1.0}', id="seed-float"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "seed": false}', id="seed-bool"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "seed": -1}', id="seed-negative"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": 1}', id="folds-one"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": 0}', id="folds-zero"),
        pytest.param(b'{"name": "toy", "triples": "toy.tsv", "folds": -3}', id="folds-negative"),
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

    # a JSON escape can name a lone surrogate, which no file name or UTF-8
    # text holds: it is refused before the triple file is read
    @pytest.mark.parametrize("argv, key, value", [
        (["inspect"], "triples", "\ud800.tsv"),
        (["eval", "--out", "rep"], "name", "\udcff"),
    ])
    def test_manifest_text_that_is_not_utf8(self, toy_files, capfd, monkeypatch,
                                            argv, key, value):
        tmp_path, _, _ = toy_files

        def refuse(*args, **kwargs):
            raise AssertionError("reached with a manifest that is not UTF-8 text")

        monkeypatch.setattr(cli, "load_triples", refuse)
        monkeypatch.setattr(trainer, "train_folds", refuse)
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({"name": "toy", "triples": "toy.tsv", key: value}))
        code = run([*argv, "--dataset", str(manifest)])
        assert (code, *capfd.readouterr()) == (
            3, "", f"error: {manifest}: manifest {key!r} is not UTF-8 text\n")
        assert not list(tmp_path.glob("rep*"))


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

        help_line, add_flags, _ = cli._PARSERS["inspect"]
        monkeypatch.setitem(cli._PARSERS, "inspect", (help_line, add_flags, fail))
        assert run(["inspect", "--dataset", "unused.tsv"]) == code
        out, err = capsys.readouterr()
        assert out == "" and err == "error: raised by the command\n"


def _outputs(command, out):
    """The files ``command`` writes for ``--out out``."""
    return [out] if command == "train" else [out.with_name(out.name + ext)
                                             for ext in (".json", ".txt")]


def _small_run(command, manifest, out):
    return [command, "--dataset", str(manifest), "--form", "linear", "--dim-d", "4",
            "--dim-p", "4", "--epochs", "1", "--folds", "2", "--out", str(out)]


def _file_size_limit(nbytes):
    """A child's set-up: a write past ``nbytes`` of a file fails with EFBIG
    (SIGXFSZ, which would kill the child instead, is ignored)."""
    def limit():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, resource.RLIM_INFINITY))
    return limit


@pytest.mark.parametrize("command", ["train", "eval"])
class TestOutputsReplacedWhole:
    """``train`` and ``eval`` write each output file to a new file in its
    directory and rename it over the output: a failed write leaves the old
    file, and the new file is made as ``Path.write_bytes`` makes one."""

    def test_failed_write_leaves_the_old_file(self, toy_files, command):
        tmp_path, manifest, _ = toy_files
        outs = _outputs(command, tmp_path / "out")
        for path in outs:
            path.write_bytes(b"old bytes of " + path.name.encode())
        before = sorted(os.listdir(tmp_path))
        # each output file is longer than 64 bytes: its write fails after the first 64
        proc = subprocess.run([sys.executable, "-m", "sme.cli",
                               *_small_run(command, manifest, tmp_path / "out")],
                              env=dict(_child_env(), PYTHONDONTWRITEBYTECODE="1"),
                              capture_output=True, text=True, timeout=300,
                              preexec_fn=_file_size_limit(64))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: [Errno 27] File too large\n"
        assert sorted(os.listdir(tmp_path)) == before
        assert [p.read_bytes() for p in outs] == [b"old bytes of " + p.name.encode()
                                                  for p in outs]

    def test_mode_of_a_new_file_and_of_an_old_one(self, toy_files, monkeypatch, command):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        old = os.umask(0o027)
        try:
            (tmp_path / "by_write_bytes").write_bytes(b"")
            assert run(_small_run(command, manifest, tmp_path / "new")) == 0
        finally:
            os.umask(old)
        want = os.stat(tmp_path / "by_write_bytes").st_mode
        assert {os.stat(p).st_mode for p in _outputs(command, tmp_path / "new")} == {want}
        outs = _outputs(command, tmp_path / "old")
        for path in outs:
            path.write_bytes(b"")
            path.chmod(0o604)
        assert run(_small_run(command, manifest, tmp_path / "old")) == 0
        assert all(p.stat().st_size > 0 and p.stat().st_mode & 0o777 == 0o604 for p in outs)

    def test_symlinked_out_is_written_through(self, toy_files, monkeypatch, command):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        (tmp_path / "real").mkdir()
        plain, real = _outputs(command, tmp_path / "plain"), _outputs(command,
                                                                      tmp_path / "real" / "o")
        links = _outputs(command, tmp_path / "link")
        for link, target in zip(links, real):
            target.write_bytes(b"old")
            link.symlink_to(target)
        assert run(_small_run(command, manifest, tmp_path / "plain")) == 0
        assert run(_small_run(command, manifest, tmp_path / "link")) == 0
        for link, target, want in zip(links, real, plain):
            assert link.is_symlink() and os.readlink(link) == str(target)
            if link.suffix != ".json":   # the JSON report holds run times
                assert target.read_bytes() == want.read_bytes()
        assert sorted(os.listdir(tmp_path / "real")) == sorted(p.name for p in real)

    def test_fifo_out_stays_a_fifo(self, toy_files, monkeypatch, command):
        # a FIFO is written into, as a plain write writes it, not renamed over
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        fifos = _outputs(command, tmp_path / "fifo")
        got = {}

        def read(path):
            with open(path, "rb") as fh:
                got[path] = fh.read()

        readers = []
        for path in fifos:
            os.mkfifo(path)
            readers.append(threading.Thread(target=read, args=(path,), daemon=True))
            readers[-1].start()
        try:
            assert run(_small_run(command, manifest, tmp_path / "fifo")) == 0
        finally:
            for path, reader in zip(fifos, readers):
                reader.join(timeout=10)
                if reader.is_alive():   # nothing opened the FIFO: let its reader end
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        assert run(_small_run(command, manifest, tmp_path / "plain")) == 0
        for path, plain in zip(fifos, _outputs(command, tmp_path / "plain")):
            assert stat.S_ISFIFO(os.lstat(path).st_mode)
            if path.suffix == ".json":   # the JSON report holds run times
                assert json.loads(got[path]).keys() == json.loads(plain.read_bytes()).keys()
            else:
                assert got[path] == plain.read_bytes()
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_hard_linked_out_keeps_its_link(self, toy_files, monkeypatch, command):
        # both names of a hard-linked file see the new bytes, as after a plain write
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp_path, manifest, _ = toy_files
        outs, others = _outputs(command, tmp_path / "out"), _outputs(command, tmp_path / "other")
        for out, other in zip(outs, others):
            out.write_bytes(b"old")
            os.link(out, other)
        assert run(_small_run(command, manifest, tmp_path / "out")) == 0
        for out, other in zip(outs, others):
            assert out.samefile(other) and out.read_bytes() == other.read_bytes() != b"old"


class TestInterrupt:
    @pytest.mark.parametrize("argv", [["train", "--out", "m.sme"],
                                      ["eval", "--jobs", "1", "--out", "report"]],
                             ids=["train", "eval-jobs-1"])
    def test_sigint_ends_in_one_line(self, tmp_path, argv):
        # SIGINT to the main process only, in a session of its own, once
        # training has printed its first epoch line: one error line on
        # stderr and exit 130, within a bound
        tsv = write_triples(tmp_path / "toy.tsv", two_group_records())
        command = [sys.executable, "-m", "sme.cli", argv[0], "--dataset", str(tsv),
                   "--folds", "4", "--epochs", "1000000", "--patience", "1000000",
                   *argv[1:-1], str(tmp_path / argv[-1])]
        proc = subprocess.Popen(command, env=dict(_child_env(), SME_LOG="info"), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            assert ready, "no epoch line within 120 s"
            assert proc.stdout.readline().startswith("epoch=0 ")
            proc.send_signal(signal.SIGINT)
            start = time.monotonic()
            _, err = proc.communicate(timeout=60)
            took = time.monotonic() - start
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert (proc.returncode, err) == (EXIT_INTERRUPT, "error: interrupted\n")
        assert EXIT_INTERRUPT == 130 and took < 10, took


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


TOP_HELP = """\
usage: sme [-h] {inspect,train,eval,score} ...

Multi-relational link prediction with semantic matching energies.

positional arguments:
  {inspect,train,eval,score}
    inspect             ingestion statistics for a dataset
    train               train one fold and write a model file
    eval                cross-validated AUC-PR evaluation
    score               score triples with a trained model

options:
  -h, --help            show this help message and exit
"""

INSPECT_HELP = """\
usage: sme inspect [-h] --dataset DATASET

options:
  -h, --help         show this help message and exit
  --dataset DATASET  dataset manifest (JSON) or triple file (TSV)
"""

MODEL_FLAGS_HELP = """\
  --form {linear,bilinear}
  --dim-d DIM_D         entity embedding dimension
  --dim-p DIM_P         transformed embedding dimension
  --lr LR
  --margin MARGIN
  --epochs EPOCHS
  --patience PATIENCE
  --batch BATCH
  --corruption {lhs,rhs,both}
  --folds FOLDS         fold count K (default: manifest value, else 10)
  --seed SEED           split/train seed (default: manifest value, else 0)
"""

TRAIN_HELP = """\
usage: sme train [-h] --dataset DATASET [--fold FOLD] [--out OUT]
                 [--form {linear,bilinear}] [--dim-d DIM_D] [--dim-p DIM_P]
                 [--lr LR] [--margin MARGIN] [--epochs EPOCHS]
                 [--patience PATIENCE] [--batch BATCH]
                 [--corruption {lhs,rhs,both}] [--folds FOLDS] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --dataset DATASET
  --fold FOLD
  --out OUT
""" + MODEL_FLAGS_HELP

EVAL_HELP = """\
usage: sme eval [-h] --dataset DATASET [--out OUT] [--jobs JOBS]
                [--form {linear,bilinear}] [--dim-d DIM_D] [--dim-p DIM_P]
                [--lr LR] [--margin MARGIN] [--epochs EPOCHS]
                [--patience PATIENCE] [--batch BATCH]
                [--corruption {lhs,rhs,both}] [--folds FOLDS] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --dataset DATASET
  --out OUT             output prefix; writes <out>.json and <out>.txt
  --jobs JOBS           worker processes; each trains a contiguous group of
                        folds in one stacked loop (default 1; every fold's
                        model is the same for any N)
""" + MODEL_FLAGS_HELP

SCORE_HELP = """\
usage: sme score [-h] --model MODEL triples [triples ...]

positional arguments:
  triples        each argument is one tab-separated 'lhs<TAB>rel<TAB>rhs'

options:
  -h, --help     show this help message and exit
  --model MODEL
"""

TRIPLE = "e0\tsame\te1"


# argv, the exit code argparse raises (None: parsed), stdout, the start of the
# last stderr line (None: not checked)
ROUTE_CASES = [
    (["inspect", "--dataset", "d.tsv"], None, "", None),
    (["train", "--dataset", "d.tsv", "--epochs", "1", "--form", "linear", "--out", "m.sme"],
     None, "", None),
    (["eval", "--dataset", "d.json", "--jobs", "2", "--folds", "3", "--seed", "5"],
     None, "", None),
    (["score", "--model", "m.sme", TRIPLE, "e1\tsame\te0"], None, "", None),
    (["score", "--model=m.sme", TRIPLE], None, "", None),
    (["score", "--model", "m.sme", "--", "-e0\tsame\te1"], None, "", None),
    ([], 2, "", "sme: error: the following arguments are required: command"),
    (["-h"], 0, TOP_HELP, None),
    (["bogus"], 2, "", "sme: error: argument command: invalid choice: 'bogus'"),
    (["inspect", "-h"], 0, INSPECT_HELP, None),
    (["train", "-h"], 0, TRAIN_HELP, None),
    (["eval", "-h"], 0, EVAL_HELP, None),
    (["score", "-h"], 0, SCORE_HELP, None),
    (["score", "--model", "m.sme", TRIPLE, "-h"], 0, SCORE_HELP, None),
    (["inspect"], 2, "", "sme inspect: error: the following arguments are required: "
                         "--dataset"),
    (["train", "--epochs", "1"], 2, "", "sme train: error: the following arguments are "
                                       "required: --dataset"),
    (["eval"], 2, "", "sme eval: error: the following arguments are required: --dataset"),
    (["score", TRIPLE], 2, "", "sme score: error: the following arguments are required: "
                               "--model"),
    (["score", "--model", "m.sme"], 2, "", "sme score: error: the following arguments "
                                           "are required: triples"),
    (["score", "--model", "m.sme", "--bogus", TRIPLE], 2, "",
     "sme score: error: unrecognized arguments: --bogus"),
    (["score", "--model", "m.sme", TRIPLE, "--bogus"], 2, "",
     "sme score: error: unrecognized arguments: --bogus"),
    (["inspect", "--dataset", "d.tsv", "--bogus"], 2, "",
     "sme inspect: error: unrecognized arguments: --bogus"),
    (["eval", "--dataset", "d.tsv", "--fold", "3"], 2, "",
     "sme eval: error: unrecognized arguments: --fold 3"),
    (["train", "--dataset", "d.tsv", "--epoch", "2"], 2, "",
     "sme train: error: unrecognized arguments: --epoch 2"),
    (["score", "--model", "m.sme", "-e0\tsame\te1"], 2, "",
     "sme score: error: the following arguments are required: triples"),
    (["train", "--dataset", "d.tsv", "--form", "cubic"], 2, "",
     "sme train: error: argument --form: invalid choice: 'cubic'"),
]


class TestRoute:
    """``cli.parse_args``, the route from an argv to its namespace, which
    ``main`` takes: the exit code and stdout of each argv are those of the
    one top-level parser it replaces, and an argv it parses gives that
    parser's namespace. An unrecognized argument is the one error whose
    text differs: it names the command's parser, not the top-level one."""

    @pytest.mark.parametrize("argv, code, out, last_err", ROUTE_CASES,
                             ids=[" ".join(case[0]).replace("\t", "<TAB>") or "no-arguments"
                                  for case in ROUTE_CASES])
    def test_exit_code_stdout_and_namespace(self, monkeypatch, capsys, argv, code, out,
                                            last_err):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            args = cli.parse_args(argv)
        except SystemExit as exc:
            got_out, err = capsys.readouterr()
            assert (exc.code, got_out) == (code, out)
            if last_err is not None:
                assert err.splitlines()[-1].startswith(last_err)
            if code:   # main runs no command on a refused argv
                assert cli.main(argv) == cli.EXIT_USAGE
            return
        assert code is None and capsys.readouterr() == (out, "")
        assert args == cli._build_parser().parse_args(argv)

    def test_score_builds_only_its_own_parser(self, monkeypatch, capsys, tmp_path):
        built, top = [], []
        for command, (help_line, add_flags, handler) in cli._PARSERS.items():
            def spy(parser, command=command, add_flags=add_flags):
                built.append(command)
                add_flags(parser)
            monkeypatch.setitem(cli._PARSERS, command, (help_line, spy, handler))
        build_parser = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: top.append(1) or build_parser())
        # parsed, then the missing model file ends the command with exit 3
        assert cli.main(["score", "--model", str(tmp_path / "none.sme"), TRIPLE]) == 3
        assert (built, top) == (["score"], [])
        assert cli.main(["-h"]) == 0
        assert (built, top) == (["score", "inspect", "train", "eval", "score"], [1])
        capsys.readouterr()


def train_capped(tsv, out, flags, command="train", timeout=300):
    """``sme train`` (or ``command``) for one epoch, unless ``flags`` give
    ``--epochs``, in a child under the 1 GiB address-space limit of
    ``sme_capped``."""
    return sme_capped([command, "--dataset", str(tsv), "--epochs", "1", "--out", str(out),
                       *flags], timeout=timeout)


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
    """A batch wider than every training set of the split trains as one
    batch of the largest: a wider one would only add padding pairs."""

    @pytest.mark.parametrize("form", ["linear", "bilinear"])
    def test_any_wider_batch_gives_the_same_model(self, toy_files, monkeypatch, form):
        monkeypatch.setenv("SME_LOG", "quiet")
        tmp, _, tsv = toy_files
        _, ts = load_triples(tsv)
        split = make_folds(ts, 10, 0)   # sme train's defaults
        count = max(split.fold_sets(f)[0].n_positive for f in range(split.k))

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
