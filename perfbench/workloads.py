"""The three workloads: their inputs, one timed round each, and its checks.

Every workload is one caller in a closed loop: an operation starts only
after the previous one returned. tripcast is reached only through
`tripcast.cli.main` and the names `tripcast/__init__.py` exports.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tripcast
from tripcast import cli

HERE = Path(__file__).resolve().parent
PIN_FILE = HERE / "ingest_pin.sha256"

#: The generator's default daily trip counts (mean, std); workloads scale them.
DAILY = {"weekday": (1084.57, 237.42), "saturday": (198.23, 23.54), "sunday": (48.88, 14.98)}
MONTHS = [(2019, m) for m in range(3, 10)]
#: The pinned CSV: the first month of the full-size ingest input for seed 1.
PIN_SEED, PIN_SCALE, PIN_MONTHS = 1, 0.25, [(2019, 3)]

RETRAIN_MODELS = ["lr", "la", "dt", "gb", "hgb", "ab"]
SERVE_MODELS = ["lr", "la", "gb", "hgb", "ab", "rf"]
#: A small rf; ab capped below the stage where AdaBoost.R2 stops early (16 to
#: 41 over seeds 101-112), so every seed fits and predicts the same stages.
SERVE_OVERRIDES = {"rf": {"n_estimators": 10, "max_depth": 8}, "ab": {"n_estimators": 10}}
LAYER = {"lr": "linear", "la": "linear", "dt": "trees", "gb": "ensembles", "hgb": "ensembles", "ab": "ensembles", "rf": "ensembles"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "synthgen.generate_s": "s",
    "synthgen.stop_rows": "count",
    "trip_data.write_s": "s",
    "trip_data.parse_s": "s",
    "trip_data.assemble_s": "s",
    "trip_data.trips": "count",
    "featurize.build_table_s": "s",
    "evaluation.folds": "count",
    "evaluation.train_rows": "count",
    "evaluation.loop_s": "s",
    "evaluation.fit_reported_s": "s",
    "evaluation.fit_cpu_s": "s",
    **{f"{LAYER[m]}.{m}.{step}_s": "s" for m in LAYER for step in ("fit", "predict")},
    "persist.save_s": "s",
    "persist.load_s": "s",
    "persist.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; scales are shares of the default daily trip counts."""

    ingest: float = 0.25
    retrain: float = 0.10
    serve: float = 0.25
    serve_fit_rows: int = 40_000
    predict_passes: int = 10
    setup_repeats: int = 3
    #: `tripcast run --n-estimators` for retrain; None keeps the CLI default.
    retrain_n_estimators: int | None = None


def config_text(scale: float, seed: int, months=MONTHS) -> str:
    """A `tripcast synth --config` file for the scaled default calibration."""
    lines = [f"seed = {seed}", f"months = {','.join(f'{y}-{m:02d}' for y, m in months)}"]
    for kind, (mean, std) in DAILY.items():
        lines += [f"{kind}_trips_mean = {mean * scale!r}", f"{kind}_trips_std = {std * scale!r}"]
    return "\n".join(lines) + "\n"


def run_cli(*args) -> str:
    """`tripcast <args>` in this process; its standard output, or OpFailed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in args])
    if code != 0:
        raise OpFailed(f"tripcast {args[0]} exited with {code}")
    return out.getvalue()


def make_inputs(workload: str, seed: int, scale: float, work: Path) -> None:
    """Set-up: write one workload's inputs into `work` (runs in a fresh process)."""
    conf = work / f"{workload}.conf"
    conf.write_text(config_text(scale, seed), encoding="utf-8")
    if workload == "ingest":
        pin = work / "pin.conf"
        pin.write_text(config_text(PIN_SCALE, PIN_SEED, PIN_MONTHS), encoding="utf-8")
        run_cli("synth", "--config", pin, "--out", work / "pin.csv")
    elif workload == "retrain":
        run_cli("synth", "--config", conf, "--out", work / "retrain.csv")
    elif workload == "serve":
        trips, _ = tripcast.assemble_trips(tripcast.generate(tripcast.load_gen_config(conf)))
        table = tripcast.build_table(trips, tripcast.TargetKind.DURATION)
        np.save(work / "X.npy", table.X)
        np.save(work / "y.npy", table.y)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class OpFailed(RuntimeError):
    """An operation of the program failed."""


class Ops:
    """Counts a round's operations: CLI invocations, fits, predicts, saves, loads."""

    def __init__(self) -> None:
        self.attempted = 0

    def __call__(self, fn, *args):
        self.attempted += 1
        return fn(*args)


class _TracedModel:
    """A registry model whose fit and predict calls are recorded as spans."""

    def __init__(self, model, name: str, tracer):
        self._model = model
        self.fit = tracer.wrap(model.fit, f"{name}.fit")
        self.predict = tracer.wrap(model.predict, f"{name}.predict")

    def __getattr__(self, attr):
        return getattr(self._model, attr)


def _no_span(name):
    return contextlib.nullcontext()


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work

    @property
    def scale(self) -> float:
        return getattr(self.sizes, self.name)

    def planned(self) -> int:
        """Operations in one round."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the first round."""

    def round(self, ops: Ops, tracer):
        """One timed round; returns what `check` needs."""
        raise NotImplementedError

    def check(self, out) -> dict:
        """Raise oracle.CheckFailed unless `out` is right; the workload's own figures."""
        raise NotImplementedError

    def layers(self, tracer, out) -> dict:
        """Per-layer values this workload produces from a traced round."""
        return {}


class Ingest(Workload):
    """`tripcast synth`, then parse, assemble and featurize the CSV."""

    name = "ingest"

    def planned(self) -> int:
        return 4

    def prepare(self) -> None:
        got, want = sha256_of(self.work / "pin.csv"), PIN_FILE.read_text().split()[0]
        oracle.require(got == want, f"pinned synth CSV sha256 {got}, stored {want}")

    def round(self, ops: Ops, tracer):
        span = tracer.span if tracer else _no_span
        if tracer:
            tracer.patch(cli, "generate", "synthgen.generate")
            tracer.patch(cli, "write_stops_csv", "trip_data.write")
        path = self.work / "ingest.csv"
        t0 = time.perf_counter()
        with span("cli"):
            said = ops(run_cli, "synth", "--config", self.work / "ingest.conf", "--out", path)
        with span("trip_data.parse"):
            records, row_rejects = ops(tripcast.parse_stops_csv, path)
        with span("trip_data.assemble"):
            trips, trip_rejects = ops(tripcast.assemble_trips, records)
        parsed = len(records)
        del records
        with span("featurize.build_table"):
            table = ops(tripcast.build_table, trips, tripcast.TargetKind.DURATION)
        del trips
        synth_rows = int(re.search(r"wrote (\d+) stop rows", said).group(1))
        self._rows_per_s = synth_rows / (time.perf_counter() - t0)
        return dict(
            synth_rows=synth_rows,
            parsed_rows=parsed,
            row_rejects=len(row_rejects),
            trip_rejects=len(trip_rejects),
            trip_ids=table.trip_ids,
            start_times=table.start_times,
            X=table.X,
            y=table.y,
        )

    def calibration(self) -> oracle.Calibration:
        target = tripcast.GenConfig()
        daily = {kind: mean * self.scale for kind, (mean, _) in DAILY.items()}
        return oracle.Calibration(
            expected_trips=oracle.expected_trips(MONTHS, daily),
            means={
                "stops": (target.stops_mean, target.stops_std),
                "cities": (target.cities_mean, target.cities_std),
                "duration": (target.duration_mean, target.duration_std),
                "delay": (target.delay_mean, target.delay_std),
            },
        )

    def check(self, out) -> dict:
        trips = oracle.read_trips(self.work / "ingest.csv")
        oracle.check_ingest(trips, calibration=self.calibration(), **out)
        return {"ingest_rows_per_s": self._rows_per_s}

    def layers(self, tracer, out) -> dict:
        return {
            "synthgen.stop_rows": out["synth_rows"],
            "trip_data.trips": len(out["trip_ids"]),
        }


class Retrain(Workload):
    """The paper's experiment: `tripcast run --scenario 3 --target delay`."""

    name = "retrain"

    def planned(self) -> int:
        return 1

    def round(self, ops: Ops, tracer):
        out_dir = self.work / "run"
        shutil.rmtree(out_dir, ignore_errors=True)
        span = tracer.span if tracer else _no_span
        if tracer:
            tracer.patch(cli, "parse_stops_csv", "trip_data.parse")
            tracer.patch(cli, "assemble_trips", "trip_data.assemble")
            tracer.patch(cli, "build_table", "featurize.build_table")
            tracer.patch(cli, "run_scenario", "evaluation.run_scenario")
            make_model = cli.make_model
            tracer.replace(
                cli,
                "make_model",
                lambda abbr, *a, **k: _TracedModel(make_model(abbr, *a, **k), f"{LAYER[abbr]}.{abbr}", tracer),
            )
        args = ["run", self.work / "retrain.csv", "--scenario", 3, "--target", "delay"]
        args += ["--models", ",".join(RETRAIN_MODELS), "--seed", self.seed, "--out", out_dir]
        if self.sizes.retrain_n_estimators is not None:
            args += ["--n-estimators", self.sizes.retrain_n_estimators]
        with span("cli"):
            ops(run_cli, *args)
        return out_dir

    def check(self, out_dir) -> dict:
        with open(out_dir / "results.csv", newline="") as handle:
            results = list(csv.DictReader(handle))
        with open(out_dir / "aggregates.csv", newline="") as handle:
            aggregates = list(csv.DictReader(handle))
        trips = oracle.read_trips(self.work / "retrain.csv")
        oracle.check_retrain(trips, results, aggregates, RETRAIN_MODELS)
        self._results = results
        return {
            "fold_fit_s": float(np.mean([float(r["fit_time_s"]) for r in results])),
            "mae_s": float(np.mean([float(a["mae_s"]) for a in aggregates])),
        }

    def layers(self, tracer, out_dir) -> dict:
        fits = [f"{LAYER[m]}.{m}.fit" for m in RETRAIN_MODELS]
        return {
            "evaluation.folds": len(self._results),
            "evaluation.train_rows": sum(int(r["n_train"]) for r in self._results),
            "evaluation.loop_s": tracer.self_s("evaluation.run_scenario"),
            "evaluation.fit_reported_s": sum(float(r["fit_time_s"]) for r in self._results),
            "evaluation.fit_cpu_s": sum(tracer.cpu_s(name) for name in fits),
        }


class Serve(Workload):
    """Fit, save, reload and batch-predict through the library."""

    name = "serve"

    def planned(self) -> int:
        return len(SERVE_MODELS) * (4 + self.sizes.predict_passes)

    def prepare(self) -> None:
        self.X = np.load(self.work / "X.npy")
        self.y = np.load(self.work / "y.npy")
        oracle.require(
            len(self.X) > self.sizes.serve_fit_rows,
            f"table has {len(self.X)} rows, fewer than {self.sizes.serve_fit_rows} to fit on",
        )
        self._lstsq = None

    def round(self, ops: Ops, tracer):
        span = tracer.span if tracer else _no_span
        X, y, n = self.X, self.y, self.sizes.serve_fit_rows
        before, loaded, fit_s, size = {}, {}, 0.0, 0
        for abbr in SERVE_MODELS:
            name = f"{LAYER[abbr]}.{abbr}"
            model = tripcast.make_model(abbr, self.seed, **SERVE_OVERRIDES.get(abbr, {}))
            t0 = time.perf_counter()
            with span(f"{name}.fit"):
                ops(model.fit, X[:n], y[:n])
            fit_s += time.perf_counter() - t0
            with span(f"{name}.predict"):
                before[abbr] = ops(model.predict, X)
            path = self.work / f"{abbr}.json"
            with span("persist.save"):
                ops(tripcast.save_model, model, path)
            size += path.stat().st_size
            with span("persist.load"):
                loaded[abbr] = ops(tripcast.load_model, path)
        after = {abbr: [] for abbr in SERVE_MODELS}
        t0 = time.perf_counter()
        for _ in range(self.sizes.predict_passes):
            for abbr, model in loaded.items():
                with span(f"{LAYER[abbr]}.{abbr}.predict"):
                    pred = ops(model.predict, X)
                after[abbr].append(oracle.digest(pred))  # not the arrays: keep RSS the program's
        predict_s = time.perf_counter() - t0
        rows = len(X) * len(SERVE_MODELS) * self.sizes.predict_passes
        return dict(before=before, after=after, fit_s=fit_s, rows_per_s=rows / predict_s, bytes=size)

    def check(self, out) -> dict:
        n = self.sizes.serve_fit_rows
        if self._lstsq is None:
            self._lstsq = oracle.lstsq_predictions(self.X[:n], self.y[:n], self.X)
        oracle.check_serve(self.X, self.y, n, out["before"], out["after"], self._lstsq)
        return {"fit_s": out["fit_s"], "predict_rows_per_s": out["rows_per_s"], "model_bytes": out["bytes"]}

    def layers(self, tracer, out) -> dict:
        return {"persist.bytes": out["bytes"]}


WORKLOADS = {w.name: w for w in (Ingest, Retrain, Serve)}

#: Units of the workload figures printed beside the end-to-end metrics.
FIGURE_UNITS = {
    "ingest_rows_per_s": "rows/s",
    "fold_fit_s": "s",
    "mae_s": "s",
    "fit_s": "s",
    "predict_rows_per_s": "rows/s",
    "model_bytes": "bytes",
}


#: Per-layer metrics that are the summed duration of one span name.
SPAN_TOTALS = [
    "synthgen.generate_s",
    "trip_data.write_s",
    "trip_data.parse_s",
    "trip_data.assemble_s",
    "featurize.build_table_s",
    *(f"{LAYER[m]}.{m}.{step}_s" for m in LAYER for step in ("fit", "predict")),
    "persist.save_s",
    "persist.load_s",
]


def span_metrics(tracer) -> dict:
    """Per-layer times of a traced round that every workload reads the same way."""
    values = {metric: tracer.total_s(metric[: -len("_s")]) for metric in SPAN_TOTALS}
    values["cli.self_s"] = tracer.self_s("cli")
    return values
