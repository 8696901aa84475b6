"""Command-line front end: inspect, train, eval, score.

A command that fails exits with its error's ``exit_code`` (see ``errors``),
EXIT_USAGE when its arrays do not fit in memory and EXIT_DATA on an OS
error. Flag values take precedence over manifest values, which take
precedence over built-in defaults. Flags are never abbreviated.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import evaluator, modelfile, trainer
from .dataset import load_manifest, load_triples, make_folds
from .errors import (EXIT_DATA, EXIT_USAGE, ConfigError, NumericalError,
                     OutOfDictionaryError, SmeError)
from .model import FORMS, energies_batch

EXIT_OK = 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sme", allow_abbrev=False,
        description="Multi-relational link prediction with semantic matching energies.")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, allow_abbrev=False)

    def add_common_model_flags(p):
        p.add_argument("--form", choices=FORMS, default="bilinear")
        p.add_argument("--dim-d", type=int, default=10, help="entity embedding dimension")
        p.add_argument("--dim-p", type=int, default=10, help="transformed embedding dimension")
        p.add_argument("--lr", type=float, default=0.01)
        p.add_argument("--margin", type=float, default=1.0)
        p.add_argument("--epochs", type=int, default=500)
        p.add_argument("--patience", type=int, default=10)
        p.add_argument("--batch", type=int, default=32)
        p.add_argument("--corruption", choices=trainer.CORRUPTION_MODES, default="both")
        p.add_argument("--folds", type=int, default=None,
                       help="fold count K (default: manifest value, else 10)")
        p.add_argument("--seed", type=int, default=None,
                       help="split/train seed (default: manifest value, else 0)")

    p_inspect = add_parser("inspect", help="ingestion statistics for a dataset")
    p_inspect.add_argument("--dataset", required=True,
                           help="dataset manifest (JSON) or triple file (TSV)")

    p_train = add_parser("train", help="train one fold and write a model file")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--fold", type=int, default=0)
    p_train.add_argument("--out", default="model.sme")
    add_common_model_flags(p_train)

    p_eval = add_parser("eval", help="cross-validated AUC-PR evaluation")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", default="report",
                        help="output prefix; writes <out>.json and <out>.txt")
    p_eval.add_argument("--jobs", type=int, default=1,
                        help="worker processes; each trains a contiguous group of folds in "
                             "one stacked loop (default 1; every fold's model is the same "
                             "for any N while --batch is at most each fold's positives)")
    add_common_model_flags(p_eval)

    p_score = add_parser("score", help="score triples with a trained model")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("triples", nargs="+",
                         help="each argument is one tab-separated 'lhs<TAB>rel<TAB>rhs'")
    return parser


def _load_dataset_arg(path_str: str):
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    if path.suffix == ".json":
        manifest = load_manifest(path)
        d, ts = load_triples(manifest.triples_path)
        return manifest, d, ts
    d, ts = load_triples(path)
    return None, d, ts


def _resolve(flag_value, manifest_value, default):
    if flag_value is not None:
        return flag_value
    if manifest_value is not None:
        return manifest_value
    return default


def cmd_inspect(args) -> int:
    _, d, ts = _load_dataset_arg(args.dataset)
    pct = 100.0 * ts.n_positive / len(ts)
    print(f"entities={d.n_entities} relations={d.n_relations} "
          f"records={len(ts)} valid={pct:.3g}%")
    return EXIT_OK


def _training_setup(args):
    """What ``train`` and ``eval`` start from: the manifest (or None), the
    dictionary, the fold split and the TrainConfig. The fold count and the
    seed come from the flag, else the manifest, else 10 and 0. A missing
    output directory is found before the dataset is read."""
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        raise FileNotFoundError(f"output directory not found: {out_dir}")
    manifest, d, ts = _load_dataset_arg(args.dataset)
    folds = _resolve(args.folds, manifest.folds if manifest else None, 10)
    seed = _resolve(args.seed, manifest.seed if manifest else None, 0)
    config = trainer.TrainConfig(
        learning_rate=args.lr, margin=args.margin, epochs_max=args.epochs,
        batch_size=args.batch, corruption_mode=args.corruption,
        patience=args.patience, seed=seed)
    return manifest, d, make_folds(ts, folds, seed), config


def cmd_train(args) -> int:
    _, d, split, config = _training_setup(args)
    train_ts, valid_ts, _ = split.fold_sets(args.fold)
    model, _ = trainer.train(train_ts, valid_ts, d, args.form,
                             args.dim_d, args.dim_p, config)
    modelfile.save_model(model, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest, d, split, config = _training_setup(args)
    name = manifest.name if manifest else Path(args.dataset).stem
    report = evaluator.cross_validate(d, split, args.form, args.dim_d, args.dim_p,
                                      config, dataset_name=name, jobs=args.jobs)
    json_path = f"{args.out}.json"
    text_path = f"{args.out}.txt"
    report.save(json_path, text_path)
    print(f"dataset={name} form={args.form} mean={report.mean:.6f} "
          f"std={report.std:.6f} wrote={json_path},{text_path}")
    return EXIT_OK


def cmd_score(args) -> int:
    # every argument is parsed and looked up before anything is printed
    model = modelfile.load_model(args.model)
    index = {s: i for i, s in enumerate(model.symbols)}
    rows = []
    for raw in args.triples:
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ConfigError(
                f"triple must be 'lhs<TAB>rel<TAB>rhs', got {raw!r}")
        try:
            rows.append([index[s] for s in parts])
        except KeyError as exc:
            raise OutOfDictionaryError(
                f"out-of-dictionary symbol: {exc.args[0]!r}") from None
    ids = np.array(rows, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below instead
        scores = -energies_batch(model.emb, model.params, ids[:, 0], ids[:, 1], ids[:, 2])
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite score: the model's weights overflow")
    print("\n".join(f"{raw}\t{score:.17g}"
                    for raw, score in zip(args.triples, scores.tolist())))
    return EXIT_OK


_COMMANDS = {
    "inspect": cmd_inspect,
    "train": cmd_train,
    "eval": cmd_eval,
    "score": cmd_score,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except SmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:   # a size flag asked for arrays that do not fit
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
