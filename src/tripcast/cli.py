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
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .checks import SETTING_RULES
from .errors import DataError, TripcastError, UsageError
from .evaluation import (
    DEFAULT_SCALE_SIZES,
    ScenarioSpec,
    run_scale_bench,
    run_scenario,
)
from .featurize import TargetKind, build_table
from .persist import load_model, save_model, write_atomically
from .registry import REGISTRY, make_model, model_name
from .report import scale_chart_svg
from .rng import derive_seed
from .synthgen import GenConfig, generate, load_gen_config
from .trip_data import assemble_trips, parse_stops_csv, summarize, write_stops_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as a CSV file at ``path``, atomically."""

    def produce(handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)

    write_atomically(path, produce)


def _factory(name: str, seed: int, settings: dict, *label: object) -> Callable[[int], object]:
    """Model ``name`` with ``settings``, seeded from ``seed``, ``label`` and the index it is called with."""
    return lambda index: make_model(name, derive_seed(seed, name, *label, index), **settings)


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


#: The model-setting flags: each setting some registry model takes, in the order of the rule table.
MODEL_FLAGS = tuple(name for name in SETTING_RULES if any(name in entry.settings for entry in REGISTRY.values()))


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
    write_atomically(out, lambda handle: write_stops_csv(stops, handle))
    print(f"wrote {len(stops)} stop rows to {out}")
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

    results, aggregates = [], {}
    for name in models:
        run = run_scenario(table, spec, name, _factory(name, args.seed, settings[name]))
        for diag in run.diagnostics:
            print(f"note [{name}]: {diag}", file=sys.stderr)
        results += run.results
        aggregates[name] = run.aggregate

    out_dir = Path(args.out)
    _write_csv(
        out_dir / "results.csv",
        RESULTS_HEADER,
        ((r.scenario_id, r.model, r.target, r.fold, r.n_train, r.n_test, repr(r.mae), repr(r.rmse), repr(r.fit_time))
         for r in results),
    )
    _write_csv(
        out_dir / "aggregates.csv",
        AGGREGATES_HEADER,
        ((spec.id, name, target.value, a.n_folds, repr(a.mae), repr(a.rmse), repr(a.fit_time))
         for name, a in aggregates.items()),
    )

    print(f"scenario {spec.id} ({spec.description}), target={target.value}")
    print(f"{'model':<6} {'folds':>5} {'mae_s':>12} {'rmse_s':>12} {'fit_time_s':>11}")
    for name, a in aggregates.items():
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

    factories = {name: _factory(name, args.seed, settings[name], "scale") for name in models}
    # Timing runs must stay serial and exclusive to keep wall clocks honest.
    results = run_scale_bench(table, sizes, factories, repeats=args.repeats)

    out_dir = Path(args.out)
    _write_csv(
        out_dir / "scale.csv",
        ("model", "n", "fit_time_s", *(f"rep{i}_s" for i in range(args.repeats))),
        ((r.model, r.n_samples, repr(r.fit_time), *(repr(t) for t in r.repeats)) for r in results),
    )
    svg = scale_chart_svg(results)
    write_atomically(out_dir / "scale.svg", lambda handle: handle.write(svg))

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
    save_model(model, args.out)
    print(f"fitted {name} on {len(table)} rows; saved to {args.out}")
    return 0


def _cmd_load_model(args: argparse.Namespace) -> int:
    if bool(args.stops) != bool(args.predictions_out):
        raise UsageError("--stops and --predictions-out are given together or not at all")
    model = load_model(args.model_path)
    print(f"loaded model kind={model.kind} from {args.model_path}")
    if args.stops:
        # Prediction reads only the feature columns, which no target changes.
        table = _load_table(args.stops, TargetKind.DURATION)
        predictions = model.predict(table.X)
        rows = ((trip_id, repr(float(pred))) for trip_id, pred in zip(table.trip_ids, predictions))
        _write_csv(Path(args.predictions_out), ("trip_id", "prediction_s"), rows)
        print(f"wrote {len(table)} predictions to {args.predictions_out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tripcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tripcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    model_flags = argparse.ArgumentParser(add_help=False)
    group = model_flags.add_argument_group("model settings", "a model gets only the settings it takes")
    for name in MODEL_FLAGS:
        takers = ", ".join(m for m, entry in REGISTRY.items() if name in entry.settings)
        group.add_argument("--" + name.replace("_", "-"), type=SETTING_RULES[name][2], help=f"taken by {takers}")

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
