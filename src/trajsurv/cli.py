"""Command-line front door.

Subcommands: simulate, train, crossval, evaluate, ablate, gradcheck.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 training
failure threshold exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .autodiff import NonFiniteError
from .cohort import (CohortError, Scenario, load_cohort, save_cohort, simulate_cohort,
                     stratified_repeated_kfold)
from .config import ConfigError, RunConfig, load_config
from .crossval import (REPORT_FILES, emit_report, evaluate_model, feature_widths, fold_model,
                       run_crossval)
from .evolution import BACKBONES
from .graph import GraphConstructionError
from .heads import SaturatedCurveError
from .model import ModelFileError, load_model, save_model
from .training import train_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

# The files each command writes into its output directory.
_OUTPUT_FILES = {"simulate": ("cohort.json", "truth.json"),
                 "train": ("training_log.txt", "model.npz", "train_summary.json"),
                 "crossval": REPORT_FILES, "ablate": REPORT_FILES, "evaluate": REPORT_FILES}


# `ablate --variant` -> its model overrides: a variant is `crossval` of the
# config with these keys set, and writes what that `crossval` writes.
ABLATIONS = {"full": {}, "static": {"horizon": 1}, "mean_integrator": {"integrator": "mean"},
             "no_cascade": {"cascade": False}}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trajsurv",
                     description="Graph-trajectory survival prognosis pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--out", default=None, help="output directory")

    common(sub.add_parser("simulate", help="write a synthetic cohort"))
    common(sub.add_parser("train", help="fit one model with an inner split"))
    common(sub.add_parser("crossval", help="repeated stratified cross-validation"))
    pe = sub.add_parser("evaluate", help="evaluate a saved model on a cohort")
    common(pe)
    pe.add_argument("--model", default=None, help="model file (overrides paths.model)")
    pa = sub.add_parser("ablate", help="crossval of the config with an ablation's overrides")
    common(pa)
    pa.add_argument("--variant", required=True, choices=tuple(ABLATIONS))
    sub.add_parser("gradcheck", help="finite-difference check of the full pipeline")
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=args.seed))
        except ValueError as exc:  # the settings' own rule on the seed
            raise ConfigError(str(exc)) from exc
    if args.out is not None:
        cfg = dataclasses.replace(cfg, paths=dataclasses.replace(cfg.paths,
                                                                 output_dir=args.out))
    if args.command == "ablate":
        cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model,
                                                                 **ABLATIONS[args.variant]))
    return cfg


def _check_output_dir(path: str, files: tuple[str, ...]) -> None:
    """Raise ConfigError unless `path` is a directory or can be made one, and
    none of `files` in it is a directory."""
    part = os.path.abspath(path)
    while not os.path.lexists(part):
        part = os.path.dirname(part)
    if not os.path.isdir(part):
        raise ConfigError(f"output directory {path}: {part} is not a directory")
    for target in (os.path.join(path, name) for name in files):
        if os.path.isdir(target):
            raise ConfigError(f"output file {target} is a directory")


def _cohort(cfg: RunConfig):
    if cfg.paths.cohort is None:
        raise CohortError("config.paths.cohort is not set")
    return load_cohort(cfg.paths.cohort)


def cmd_simulate(cfg: RunConfig) -> int:
    sim = cfg.simulate
    seed = sim.seed if sim.seed is not None else cfg.train.seed
    cohort, groups = simulate_cohort(sim.n, seed, sim)
    out = cfg.paths.output_dir
    os.makedirs(out, exist_ok=True)
    save_cohort(cohort, os.path.join(out, "cohort.json"))
    scenario = {f.name: getattr(sim, f.name) for f in dataclasses.fields(Scenario)}
    with open(os.path.join(out, "truth.json"), "w") as fh:
        json.dump({"seed": seed, "groups": groups.tolist(), "scenario": scenario}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {sim.n}-patient cohort to {out}/cohort.json")
    return EXIT_OK


def write_training_log(path, history) -> None:
    """One tab-separated line per epoch: epoch, train loss, val loss, lr."""
    with open(path, "w") as fh:
        fh.writelines(f"{e}\t{tr:.6f}\t{va:.6f}\t{lr:.3e}\n" for e, tr, va, lr in history)


def cmd_train(cfg: RunConfig) -> int:
    cohort = _cohort(cfg)
    fold = stratified_repeated_kfold(cohort, k=5, repeats=1, seed=cfg.train.seed)[0]
    # Single fit: the first fold's held-out fifth becomes the validation set.
    model = fold_model(cfg, feature_widths(cohort), 0, 0)
    out = cfg.paths.output_dir
    os.makedirs(out, exist_ok=True)
    result = train_model(model, cohort.take(fold.train + fold.val), cohort.take(fold.test),
                         cfg.train)
    write_training_log(os.path.join(out, "training_log.txt"), result.history)
    save_model(model, os.path.join(out, "model.npz"))
    with open(os.path.join(out, "train_summary.json"), "w") as fh:
        json.dump({"best_val": result.best_val, "best_epoch": result.best_epoch,
                   "epochs_run": result.epochs_run}, fh, indent=1)
        fh.write("\n")
    print(f"best validation loss {result.best_val:.6g} at epoch {result.best_epoch}; "
          f"model saved to {out}/model.npz")
    return EXIT_OK


def cmd_crossval(cfg: RunConfig) -> int:
    report = run_crossval(cfg, _cohort(cfg))
    paths = emit_report(report, cfg.paths.output_dir)
    for task in ("os", "dfs"):
        mean = report.mean_metric(task, "cindex")
        mean_txt = "NA" if mean is None else f"{mean:.3f}"
        ci = report.ci.get(task) or {}
        print(f"{task} C-index mean {mean_txt}" +
              (f" ({ci['formatted']})" if "formatted" in ci else ""))
    print(f"report written to {paths['report.json']}")
    total = report.total_folds
    if total and len(report.failed_folds) * 3 > total:
        print(f"{len(report.failed_folds)}/{total} folds failed to train", file=sys.stderr)
        return EXIT_TRAINING
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, model_path: str | None) -> int:
    path = model_path or cfg.paths.model
    if path is None:
        raise UsageError("evaluate needs --model or paths.model")
    cohort = _cohort(cfg)
    paths = emit_report(evaluate_model(load_model(path), cohort, cfg), cfg.paths.output_dir)
    print(f"report written to {paths['report.json']}")
    return EXIT_OK


def cmd_gradcheck() -> int:
    from .acceptance_support import full_pipeline_gradcheck

    failed = []
    for backbone in BACKBONES:
        err = full_pipeline_gradcheck(backbone=backbone)
        print(f"{backbone}: max relative gradient error {err:.3e}")
        if err > 1e-4:
            failed.append(backbone)
    if failed:
        print(f"gradient check FAILED for {', '.join(failed)} (tolerance 1e-4)",
              file=sys.stderr)
        return EXIT_TRAINING
    print("gradient check passed (tolerance 1e-4)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck()
        cfg = _load(args)
        _check_output_dir(cfg.paths.output_dir, _OUTPUT_FILES[args.command])
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command in ("crossval", "ablate"):
            return cmd_crossval(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.model)
        raise UsageError(f"unknown command {args.command}")
    except (ConfigError, UsageError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CohortError, GraphConstructionError, ModelFileError, SaturatedCurveError,
            FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
