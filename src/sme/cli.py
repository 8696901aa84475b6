"""Command-line front end: inspect, train, eval, score.

A command that fails exits with its error's ``exit_code`` (see ``errors``),
EXIT_USAGE when its arrays do not fit in memory, EXIT_DATA on an OS
error and EXIT_INTERRUPT when interrupted, each after one ``error:``
line. Flag values take precedence over manifest values; the training
defaults are ``trainer.TrainConfig``'s and the split's are ``Manifest``'s,
which a bare triple file takes whole. Flags are never abbreviated.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluator, modelfile, trainer
from .dataset import Manifest, load_manifest, load_triples, make_folds, read_records
from .errors import (EXIT_DATA, EXIT_INTERRUPT, EXIT_USAGE, ConfigError, NumericalError,
                     OutOfDictionaryError, SmeError)
from .model import FORMS, energies_batch

EXIT_OK = 0


def _common_model_flags(p) -> None:
    defaults = trainer.TrainConfig()
    p.add_argument("--form", choices=FORMS, default="bilinear")
    p.add_argument("--dim-d", type=int, default=10, help="entity embedding dimension")
    p.add_argument("--dim-p", type=int, default=10, help="transformed embedding dimension")
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--margin", type=float, default=defaults.margin)
    p.add_argument("--epochs", type=int, default=defaults.epochs_max)
    p.add_argument("--patience", type=int, default=defaults.patience)
    p.add_argument("--batch", type=int, default=defaults.batch_size)
    p.add_argument("--corruption", choices=trainer.CORRUPTION_MODES,
                   default=defaults.corruption_mode)
    p.add_argument("--folds", type=int, default=None,
                   help=f"fold count K (default: manifest value, else {Manifest.folds})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"split/train seed (default: manifest value, else {Manifest.seed})")


def _inspect_flags(p) -> None:
    p.add_argument("--dataset", required=True,
                   help="dataset manifest (JSON) or triple file (TSV)")


def _train_flags(p) -> None:
    p.add_argument("--dataset", required=True)
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--out", default="model.sme")
    _common_model_flags(p)


def _eval_flags(p) -> None:
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default="report",
                   help="output prefix; writes <out>.json and <out>.txt")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; each trains a contiguous group of folds in "
                        "one stacked loop (default 1; every fold's model is the same "
                        "for any N)")
    _common_model_flags(p)


def _score_flags(p) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("triples", nargs="+",
                   help="each argument is one tab-separated 'lhs<TAB>rel<TAB>rhs'")


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, holding every command's parser."""
    parser = argparse.ArgumentParser(
        prog="sme", allow_abbrev=False,
        description="Multi-relational link prediction with semantic matching energies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, add_flags, _) in _PARSERS.items():
        add_flags(sub.add_parser(command, help=help_line, allow_abbrev=False))
    return parser


def _command_parser(command: str) -> argparse.ArgumentParser:
    """One command's parser alone: the one the top-level parser holds for it."""
    parser = argparse.ArgumentParser(prog=f"sme {command}", allow_abbrev=False)
    _PARSERS[command][1](parser)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``argv``, as the top-level parser gives it, or
    SystemExit as argparse raises it. An argv that starts with a command
    is parsed by that command's parser alone, which walks each argument
    once; any other argv goes through the top-level parser."""
    if argv and argv[0] in _PARSERS:
        return _command_parser(argv[0]).parse_args(argv[1:],
                                                    argparse.Namespace(command=argv[0]))
    return _build_parser().parse_args(argv)


def _text(path) -> str:
    """A path as UTF-8 text: a byte not UTF-8 (a surrogate escape) is U+FFFD."""
    return str(path).encode("utf-8", "surrogateescape").decode("utf-8", "replace")


def _manifest_arg(path_str: str) -> Manifest:
    """The manifest a ``--dataset`` names: a JSON manifest, or a triple
    file standing for one with the defaults, named by its stem."""
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    return load_manifest(path) if path.suffix == ".json" else Manifest(_text(path.stem), path)


def cmd_inspect(args) -> int:
    d, ts = load_triples(_manifest_arg(args.dataset).triples_path)
    pct = 100.0 * ts.n_positive / len(ts)
    print(f"entities={d.n_entities} relations={d.n_relations} "
          f"records={len(ts)} valid={pct:.3g}%")
    return EXIT_OK


def _out_paths(args) -> list[str]:
    """The files a ``train`` or ``eval`` command writes."""
    return [args.out] if args.command == "train" else [f"{args.out}.json", f"{args.out}.txt"]


def _training_setup(args):
    """What ``train`` and ``eval`` start from: the manifest, the dictionary,
    the fold split and the TrainConfig. The fold count and the seed come
    from the flag, else the manifest. A missing output directory, or an
    output path that is a directory, is found before the dataset is read,
    and an output file that is the ``--dataset`` file or the manifest's
    triple file before the triple file is read."""
    outs = list(map(Path, _out_paths(args)))
    for path in outs:
        if not path.parent.is_dir():
            raise FileNotFoundError(f"output directory not found: {path.parent}")
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
    manifest = _manifest_arg(args.dataset)
    inputs = [p for p in (Path(args.dataset), manifest.triples_path) if p.exists()]
    for path in outs:
        if path.exists() and any(path.samefile(p) for p in inputs):
            raise ConfigError(f"output file is an input of the dataset: {_text(path)}")
    d, ts = load_triples(manifest.triples_path)
    folds = manifest.folds if args.folds is None else args.folds
    seed = manifest.seed if args.seed is None else args.seed
    config = trainer.TrainConfig(
        learning_rate=args.lr, margin=args.margin, epochs_max=args.epochs,
        batch_size=args.batch, corruption_mode=args.corruption,
        patience=args.patience, seed=seed)
    return manifest, d, make_folds(ts, folds, seed), config


def cmd_train(args) -> int:
    _, d, split, config = _training_setup(args)
    [(model, _)] = evaluator.run_fold(d, split, [args.fold], args.form,
                                      args.dim_d, args.dim_p, config)
    modelfile.save_model(model, args.out)
    print(f"wrote {_text(args.out)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest, d, split, config = _training_setup(args)
    report = evaluator.cross_validate(d, split, args.form, args.dim_d, args.dim_p,
                                      config, dataset_name=manifest.name, jobs=args.jobs)
    json_path, text_path = _out_paths(args)
    report.save(json_path, text_path)
    print(f"dataset={manifest.name} form={args.form} mean={report.mean:.6f} "
          f"std={report.std:.6f} wrote={_text(json_path)},{_text(text_path)}")
    return EXIT_OK


def cmd_score(args) -> int:
    # every argument is parsed and looked up before anything is printed; the
    # first bad argument, in command-line order, decides the error
    model = modelfile.load_model(args.model)
    ids, names, reason = read_records(model.symbols, args.triples)
    bad = ids >= len(model.symbols)   # unknown, or in the middle slot and no relation type
    bad[:, 1] |= ~np.isin(ids[:, 1], list(model.relation_ids))
    if bad.any():
        symbol = int(ids.flat[np.argmax(bad)])   # the first bad one, in command-line order
        if symbol >= len(model.symbols):
            raise OutOfDictionaryError(f"out-of-dictionary symbol: {names[symbol]!r}")
        raise OutOfDictionaryError(f"not a relation type of the model: {names[symbol]!r}")
    if len(ids) < len(args.triples):
        raise ConfigError(f"triple must be 'lhs<TAB>rel<TAB>rhs', got {args.triples[len(ids)]!r}: "
                          f"{reason}")
    with np.errstate(over="ignore", invalid="ignore"):   # reported below instead
        scores = energies_batch(model.emb, model.params, ids[:, 0], ids[:, 1], ids[:, 2])
        np.subtract(0.0, scores, out=scores)
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite score: the model's weights overflow")
    try:
        print("\n".join([f"{triple}\t{score:.17g}"
                         for triple, score in zip(args.triples, scores.tolist())]), flush=True)
    except BrokenPipeError:   # every triple was scored; quiet the flush at exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


# command -> (its line in `sme -h`, the builder that adds its flags, its
# handler), in help order
_PARSERS = {
    "inspect": ("ingestion statistics for a dataset", _inspect_flags, cmd_inspect),
    "train": ("train one fold and write a model file", _train_flags, cmd_train),
    "eval": ("cross-validated AUC-PR evaluation", _eval_flags, cmd_eval),
    "score": ("score triples with a trained model", _score_flags, cmd_score),
}


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _PARSERS[args.command][2](args)
    except SmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:   # a size flag asked for arrays that do not fit
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:   # SIGINT, as Ctrl-C, `timeout -s INT` or a scheduler sends it
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    raise SystemExit(main())
