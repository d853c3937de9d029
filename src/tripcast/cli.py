"""Command-line front door.

Subcommands: ``synth`` (generate a stops CSV), ``summarize`` (dataset
statistics), ``run`` (one retraining scenario for a set of models),
``scale`` (fit-time scaling benchmark + SVG chart), ``save-model`` /
``load-model`` (persistence round trip).

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Output files are written to a temporary sibling and renamed into place, so
a failing command never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .errors import DataError, TripcastError, UsageError
from .evaluation import (
    DEFAULT_SCALE_SIZES,
    ScenarioSpec,
    run_scale_bench,
    run_scenario,
)
from .featurize import TargetKind, build_table
from .persist import dumps_model, load_model
from .registry import REGISTRY, make_model, model_name
from .report import scale_chart_svg
from .rng import derive_seed
from .synthgen import GenConfig, generate, load_gen_config
from .trip_data import assemble_trips, parse_stops_csv, summarize, write_stops_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _atomic_write_text(path: Path, produce: Callable[[io.TextIOBase], None]) -> None:
    """Write via a temp file + rename; no partial file survives a failure."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            produce(handle)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_models(raw: str) -> list[str]:
    names = [model_name(tok) for tok in raw.split(",") if tok.strip()]
    if not names:
        raise UsageError("no model abbreviations given")
    return list(dict.fromkeys(names))


def _load_table(stops_path: str, target: TargetKind):
    stops, row_rejects = parse_stops_csv(stops_path)
    if row_rejects:
        print(f"note: {len(row_rejects)} row(s) rejected while parsing", file=sys.stderr)
    trips, trip_rejects = assemble_trips(stops)
    if trip_rejects:
        print(f"note: {len(trip_rejects)} trip(s) excluded during assembly", file=sys.stderr)
    if not trips:
        raise DataError("no usable trips in the stops file")
    return build_table(trips, target)


#: The model-setting flags, by registry setting name.
MODEL_FLAGS = {"n_estimators": int, "learning_rate": float, "max_depth": int, "lam": float}


def _model_settings(args: argparse.Namespace, models: list[str]) -> dict[str, dict]:
    """The given flags each model declares; a flag that none of them declares is a usage error."""
    given = {name: getattr(args, name) for name in MODEL_FLAGS if getattr(args, name) is not None}
    for name in given:
        if not any(name in REGISTRY[m].settings for m in models):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} is not a setting of {', '.join(models)}")
    return {m: {k: v for k, v in given.items() if k in REGISTRY[m].settings} for m in models}


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args: argparse.Namespace) -> int:
    config = load_gen_config(args.config) if args.config else GenConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    stops = generate(config)
    out = Path(args.out)
    count = [0]

    def produce(handle):
        count[0] = write_stops_csv(stops, handle)

    _atomic_write_text(out, produce)
    print(f"wrote {count[0]} stop rows to {out}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    stops, row_rejects = parse_stops_csv(args.stops)
    trips, trip_rejects = assemble_trips(stops)
    if not trips:
        raise DataError("no usable trips in the stops file")
    summary = summarize(trips)
    width = max(len(label) for label, _ in summary.as_rows())
    for label, value in summary.as_rows():
        print(f"{label:<{width}}  {value}")
    if row_rejects or trip_rejects:
        print(f"(rejected rows: {len(row_rejects)}, excluded trips: {len(trip_rejects)})")
    return 0


RESULTS_HEADER = ("scenario", "model", "target", "fold", "n_train", "n_test", "mae_s", "rmse_s", "fit_time_s")
AGGREGATES_HEADER = ("scenario", "model", "target", "n_folds", "mae_s", "rmse_s", "fit_time_s")


def _cmd_run(args: argparse.Namespace) -> int:
    models = _parse_models(args.models)
    target = TargetKind.parse(args.target)
    spec = ScenarioSpec.for_id(args.scenario)
    settings = _model_settings(args, models)
    table = _load_table(args.stops, target)

    runs = []
    for name in models:

        def factory(fold_index: int, _name=name):
            return make_model(_name, derive_seed(args.seed, _name, fold_index), **settings[_name])

        run = run_scenario(table, spec, name, factory)
        for diag in run.diagnostics:
            print(f"note [{name}]: {diag}", file=sys.stderr)
        runs.append((name, run))

    out_dir = Path(args.out)

    def produce_results(handle):
        writer = csv.writer(handle)
        writer.writerow(RESULTS_HEADER)
        for name, run in runs:
            for r in run.results:
                writer.writerow(
                    (r.scenario_id, r.model, r.target, r.fold, r.n_train, r.n_test,
                     repr(r.mae), repr(r.rmse), repr(r.fit_time))
                )

    def produce_aggregates(handle):
        writer = csv.writer(handle)
        writer.writerow(AGGREGATES_HEADER)
        for name, run in runs:
            a = run.aggregate
            writer.writerow(
                (spec.id, name, target.value, a.n_folds, repr(a.mae), repr(a.rmse), repr(a.fit_time))
            )

    _atomic_write_text(out_dir / "results.csv", produce_results)
    _atomic_write_text(out_dir / "aggregates.csv", produce_aggregates)

    print(f"scenario {spec.id} ({spec.description}), target={target.value}")
    print(f"{'model':<6} {'folds':>5} {'mae_s':>12} {'rmse_s':>12} {'fit_time_s':>11}")
    for name, run in runs:
        a = run.aggregate
        print(f"{name:<6} {a.n_folds:>5} {a.mae:>12.2f} {a.rmse:>12.2f} {a.fit_time:>11.3f}")
    print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'aggregates.csv'}")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    models = _parse_models(args.models)
    settings = _model_settings(args, models)
    if args.sizes:
        try:
            sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --sizes value: {exc}") from exc
    else:
        sizes = list(DEFAULT_SCALE_SIZES)
    table = _load_table(args.stops, TargetKind.parse(args.target))

    factories = {}
    for name in models:

        def factory(rep: int, _name=name):
            return make_model(_name, derive_seed(args.seed, _name, "scale", rep), **settings[_name])

        factories[name] = factory

    # Timing runs must stay serial and exclusive to keep wall clocks honest.
    results = run_scale_bench(table, sizes, factories, repeats=args.repeats)

    out_dir = Path(args.out)

    def produce_csv(handle):
        writer = csv.writer(handle)
        rep_cols = tuple(f"rep{i}_s" for i in range(args.repeats))
        writer.writerow(("model", "n", "fit_time_s") + rep_cols)
        for r in results:
            writer.writerow((r.model, r.n_samples, repr(r.fit_time), *(repr(t) for t in r.repeats)))

    _atomic_write_text(out_dir / "scale.csv", produce_csv)
    svg = scale_chart_svg(results)
    _atomic_write_text(out_dir / "scale.svg", lambda handle: handle.write(svg))

    print(f"{'model':<6} {'n':>8} {'fit_time_s':>11}")
    for r in results:
        print(f"{r.model:<6} {r.n_samples:>8} {r.fit_time:>11.3f}")
    print(f"wrote {out_dir / 'scale.csv'} and {out_dir / 'scale.svg'}")
    return 0


def _cmd_save_model(args: argparse.Namespace) -> int:
    models = _parse_models(args.model)
    if len(models) != 1:
        raise UsageError("save-model takes exactly one model abbreviation")
    name = models[0]
    settings = _model_settings(args, models)
    target = TargetKind.parse(args.target)
    table = _load_table(args.stops, target)
    model = make_model(name, derive_seed(args.seed, name, "full-fit"), **settings[name])
    model.fit(table.X, table.y)
    text = dumps_model(model)
    _atomic_write_text(Path(args.out), lambda handle: handle.write(text))
    print(f"fitted {name} on {len(table)} rows; saved to {args.out}")
    return 0


def _cmd_load_model(args: argparse.Namespace) -> int:
    if args.stops and not args.predictions_out:
        raise UsageError("--predictions-out is required when --stops is given")
    model = load_model(args.model_path)
    print(f"loaded model kind={model.kind} from {args.model_path}")
    if args.stops:
        # Prediction reads only the feature columns, which no target changes.
        table = _load_table(args.stops, TargetKind.DURATION)
        predictions = model.predict(table.X)

        def produce(handle):
            writer = csv.writer(handle)
            writer.writerow(("trip_id", "prediction_s"))
            for trip_id, pred in zip(table.trip_ids, predictions):
                writer.writerow((trip_id, repr(float(pred))))

        _atomic_write_text(Path(args.predictions_out), produce)
        print(f"wrote {len(table)} predictions to {args.predictions_out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tripcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tripcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    model_flags = argparse.ArgumentParser(add_help=False)
    group = model_flags.add_argument_group("model settings", "a model gets only the settings it takes")
    for name, kind in MODEL_FLAGS.items():
        takers = ", ".join(m for m, entry in REGISTRY.items() if name in entry.settings)
        group.add_argument("--" + name.replace("_", "-"), type=kind, help=f"taken by {takers}")

    p_synth = sub.add_parser("synth", help="generate a synthetic stops CSV")
    p_synth.add_argument("--config", help="key=value config file (defaults embedded)")
    p_synth.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_synth.add_argument("--out", required=True, help="output stops CSV path")
    p_synth.set_defaults(func=_cmd_synth)

    p_sum = sub.add_parser("summarize", help="print dataset summary statistics")
    p_sum.add_argument("stops", help="stops CSV path")
    p_sum.set_defaults(func=_cmd_summarize)

    p_run = sub.add_parser("run", help="run one retraining scenario", parents=[model_flags])
    p_run.add_argument("stops", help="stops CSV path")
    p_run.add_argument("--scenario", type=int, required=True, choices=range(5))
    p_run.add_argument("--target", required=True, help="duration | delay")
    p_run.add_argument("--models", required=True, help="comma-separated abbreviations (e.g. hgb,gb,dt)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_scale = sub.add_parser("scale", help="fit-time scaling benchmark", parents=[model_flags])
    p_scale.add_argument("stops", help="stops CSV path")
    p_scale.add_argument("--sizes", default=None, help="comma-separated sample counts")
    p_scale.add_argument("--models", required=True)
    p_scale.add_argument("--target", default="duration")
    p_scale.add_argument("--seed", type=int, default=0)
    p_scale.add_argument("--repeats", type=int, default=3)
    p_scale.add_argument("--out", required=True, help="output directory")
    p_scale.set_defaults(func=_cmd_scale)

    p_save = sub.add_parser("save-model", help="fit a model on a stops CSV and persist it", parents=[model_flags])
    p_save.add_argument("stops", help="stops CSV path")
    p_save.add_argument("--model", required=True, help="one abbreviation")
    p_save.add_argument("--target", required=True)
    p_save.add_argument("--seed", type=int, default=0)
    p_save.add_argument("--out", required=True, help="model document path")
    p_save.set_defaults(func=_cmd_save_model)

    p_load = sub.add_parser("load-model", help="load a persisted model (optionally predict)")
    p_load.add_argument("model_path", help="model document path")
    p_load.add_argument("--stops", default=None, help="stops CSV to predict on")
    p_load.add_argument("--predictions-out", default=None, help="predictions CSV path")
    p_load.set_defaults(func=_cmd_load_model)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TripcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 3
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
