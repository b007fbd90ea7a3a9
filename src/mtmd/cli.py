"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, export-embeddings.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
which a floating-point overflow or invalid operation in a command is too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (SyntheticSpec, generate_synthetic, write_concepts_csv,
                   write_panel_csv, write_truth_csv)
from .errors import ContractError, DataError, NumericError, ShapeError, UsageError
from .harness import TrainConfig, evaluate, export_embeddings, run_ablation, train
from .metrics import format_value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is exit(1)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mtmd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic market")
    gen.add_argument("--spec", required=True, help="JSON file with synthetic spec keys")
    gen.add_argument("--out", required=True, help="output directory")

    tr = sub.add_parser("train", help="train a model from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--seed", type=int, default=None, help="override the config seed")
    tr.add_argument("--checkpoint", default="mtmd_checkpoint.bin")
    tr.add_argument("--log", default=None, help="optional JSON training-log path")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--split", default="test", choices=("train", "valid", "test"))
    ev.add_argument("--out", default=None, help="optional per-date CSV report path")

    ab = sub.add_parser("ablate", help="train and compare the B/P/H/A memory settings")
    ab.add_argument("--config", required=True)
    ab.add_argument("--seeds", default=None,
                    help="comma-separated seeds shared across settings (default: config seed)")
    ab.add_argument("--out", default=None, help="optional CSV table path")

    ex = sub.add_parser("export-embeddings", help="dump per-stock stage features as CSV")
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--split", default="test", choices=("train", "valid", "test"))
    return parser


def _cmd_gen_data(args) -> None:
    panel, graph, truth = generate_synthetic(SyntheticSpec.from_json_file(args.spec))
    os.makedirs(args.out, exist_ok=True)
    write_panel_csv(panel, os.path.join(args.out, "panel.csv"))
    write_concepts_csv(graph, os.path.join(args.out, "concepts.csv"))
    write_truth_csv(truth, os.path.join(args.out, "membership.csv"),
                    os.path.join(args.out, "factors.csv"))
    print(f"wrote panel.csv ({len(panel.dates)} dates, {panel.slices[0].n_stocks} stocks), "
          f"concepts.csv, membership.csv, factors.csv to {args.out}")


def _check_output_path(path: str) -> None:
    """Raise a DataError now, before a long run, if no file can be written
    at ``path``; nothing is created or truncated."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise DataError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(folder):
        raise DataError(f"cannot write {path}: no directory {folder}")
    if not os.access(folder, os.W_OK):
        raise DataError(f"cannot write {path}: directory {folder} is not writable")


def _cmd_train(args) -> None:
    config = TrainConfig.from_json_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    for path in (args.checkpoint, args.log):
        if path:
            _check_output_path(path)

    def progress(record):
        mark = " *" if record.improved else ""
        print(f"epoch {record.epoch:3d}  loss {record.train_loss:.6f}  "
              f"valid_ic {format_value(record.valid_ic)}{mark}", flush=True)

    ckpt, log = train(config, progress=progress)
    save_checkpoint(ckpt, args.checkpoint)
    kept = "best" if log.best_epoch >= 0 else "no epoch had a valid IC; final"
    print(f"{kept} epoch {ckpt.metrics['epoch']} (valid IC "
          f"{format_value(ckpt.metrics['valid_ic'])}); checkpoint -> {args.checkpoint}")
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            json.dump(log.to_dict(), fh, indent=2, sort_keys=True)
        print(f"training log -> {args.log}")


def _cmd_eval(args) -> None:
    if args.out:
        _check_output_path(args.out)
    ckpt = load_checkpoint(args.checkpoint)
    report = evaluate(ckpt, args.split)
    print(report.summary_table())
    if report.skipped_dates:
        print(f"excluded {len(report.skipped_dates)} degenerate date(s) from IC averages")
    if args.out:
        report.to_csv(args.out)
        print(f"per-date report -> {args.out}")


def _cmd_ablate(args) -> None:
    config = TrainConfig.from_json_file(args.config)
    seeds = None
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            raise UsageError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    if args.out:
        _check_output_path(args.out)

    def progress(code, seed, report):
        print(f"[{code} seed={seed}] test IC {format_value(report.ic_mean)}", flush=True)

    result = run_ablation(config, seeds=seeds, progress=progress)
    print(result.table())
    if args.out:
        result.to_csv(args.out)
        print(f"ablation table -> {args.out}")


def _cmd_export(args) -> None:
    ckpt = load_checkpoint(args.checkpoint)
    rows = export_embeddings(ckpt, args.split, args.out)
    print(f"wrote {rows} rows to {args.out}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with np.errstate(over="raise", invalid="raise"):
            {
                "gen-data": _cmd_gen_data,
                "train": _cmd_train,
                "eval": _cmd_eval,
                "ablate": _cmd_ablate,
                "export-embeddings": _cmd_export,
            }[args.command](args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ContractError, ShapeError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
