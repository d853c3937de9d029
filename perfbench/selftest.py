"""Reduced-size self-test of the benchmark, in under a minute.

    python3 perfbench/selftest.py

Runs every workload, traced, on tiny inputs with all of its checks. Then it
hands each check deliberately wrong answers and requires it to fail, checks
that BENCHMARK.json names exactly the metrics the code reports, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    ingest=0.01,
    retrain=0.02,
    serve=0.05,
    serve_fit_rows=6_000,
    predict_passes=2,
    setup_repeats=1,
    retrain_n_estimators=10,
)


def expect_failure(check, label: str, needle: str) -> None:
    """`check()` must raise CheckFailed with `needle` in its message."""
    try:
        check()
    except oracle.CheckFailed as exc:
        if needle not in str(exc):
            raise AssertionError(f"{label}: failed for another reason: {exc}") from None
        print(f"  ok  {label}: {exc}")
        return
    raise AssertionError(f"{label}: the check accepted a wrong answer")


def mutate_ingest(workload, out) -> None:
    trips = oracle.read_trips(workload.work / "ingest.csv")
    cal = workload.calibration()
    oracle.check_ingest(trips, calibration=cal, **out)

    def bad(**change):
        return lambda: oracle.check_ingest(trips, calibration=cal, **{**out, **change})

    X = out["X"].copy()
    X[3, oracle.FEATURES.index("week_number")] += 1
    y = out["y"].copy()
    y[-1] = np.nextafter(y[-1], np.inf)
    drop = dict(trip_ids=out["trip_ids"][1:], start_times=out["start_times"][1:], X=out["X"][1:], y=out["y"][1:])
    expect_failure(bad(parsed_rows=out["parsed_rows"] - 1), "dropped stop row", "parsed")
    expect_failure(bad(**drop), "dropped trip", "trips")
    expect_failure(bad(trip_rejects=1), "rejected trip", "rejected")
    expect_failure(bad(X=X), "wrong ISO week", "week_number")
    expect_failure(bad(y=y), "target off by one ulp", "target")
    far = oracle.Calibration(cal.expected_trips * 1.2, cal.means)
    expect_failure(lambda: oracle.check_ingest(trips, calibration=far, **out), "trip count off target", "configured")
    (workload.work / "pin.csv").write_text("trip_number\n", encoding="utf-8")
    expect_failure(workload.prepare, "changed synth bytes", "sha256")


def mutate_retrain(workload, out_dir) -> None:
    with open(out_dir / "results.csv", newline="") as handle:
        results = list(csv.DictReader(handle))
    with open(out_dir / "aggregates.csv", newline="") as handle:
        aggregates = list(csv.DictReader(handle))
    trips = oracle.read_trips(workload.work / "retrain.csv")
    models = workloads.RETRAIN_MODELS

    def check(res, agg):
        return lambda: oracle.check_retrain(trips, res, agg, models)

    def with_fold_mean(res, agg, model, key):
        agg = copy.deepcopy(agg)
        rows = [r for r in res if r["model"] == model]
        for a in agg:
            if a["model"] == model:
                a[key] = repr(sum(float(r[key]) for r in rows) / len(rows))
        return agg

    oracle.check_retrain(trips, results, aggregates, models)
    shifted = copy.deepcopy(results)
    shifted[3]["n_test"] = str(int(shifted[3]["n_test"]) + 1)
    shifted[4]["n_test"] = str(int(shifted[4]["n_test"]) - 1)
    expect_failure(check(shifted, aggregates), "shifted fold boundary", "n_train/n_test")
    dropped = [r for r in results if not (r["model"] == "hgb" and r["fold"] == "0")]
    expect_failure(check(dropped, aggregates), "dropped fold", "folds")
    swapped = copy.deepcopy(results)
    swapped[0]["mae_s"], swapped[0]["rmse_s"] = results[0]["rmse_s"], results[0]["mae_s"]
    expect_failure(check(swapped, with_fold_mean(swapped, aggregates, "lr", "mae_s")), "mae above rmse", "mae > rmse")
    off_mean = copy.deepcopy(aggregates)
    off_mean[1]["fit_time_s"] = repr(float(off_mean[1]["fit_time_s"]) * 1.001)
    expect_failure(check(results, off_mean), "aggregate not the fold mean", "not the fold mean")
    worse = copy.deepcopy(results)
    for r in worse:
        if r["model"] == "gb":
            r["mae_s"] = r["rmse_s"] = repr(float(r["rmse_s"]) * 10)
    worse_agg = with_fold_mean(worse, with_fold_mean(worse, aggregates, "gb", "mae_s"), "gb", "rmse_s")
    expect_failure(check(worse, worse_agg), "gb no better than the mean", "training-mean")


def mutate_serve(workload, out) -> None:
    X, y, n = workload.X, workload.y, workload.sizes.serve_fit_rows
    lstsq = oracle.lstsq_predictions(X[:n], y[:n], X)
    oracle.check_serve(X, y, n, out["before"], out["after"], lstsq)

    def bad(before=None, after=None, ref=lstsq):
        b = {**out["before"], **(before or {})}
        a = {**out["after"], **(after or {})}
        return lambda: oracle.check_serve(X, y, n, b, a, ref)

    ulp = out["before"]["hgb"].copy()
    ulp[7] = np.nextafter(ulp[7], -np.inf)
    ulp_digest = out["after"]["hgb"][:-1] + [oracle.digest(ulp)]
    expect_failure(bad(after={"hgb": ulp_digest}), "reloaded prediction off by one ulp", "bit-identical")
    expect_failure(bad(ref=lstsq * (1 + 1e-6)), "lr off least squares", "lstsq")
    nan = out["before"]["ab"].copy()
    nan[0] = np.nan
    expect_failure(bad(before={"ab": nan}, after={"ab": [oracle.digest(nan)]}), "NaN prediction", "non-finite")
    short = out["before"]["la"][:-1]
    expect_failure(bad(before={"la": short}, after={"la": [oracle.digest(short)]}), "missing prediction", "predictions for")
    flat = np.full(len(X), y.mean() + 10 * y.std())
    expect_failure(bad(before={"rf": flat}, after={"rf": [oracle.digest(flat)]}), "rf worse than the mean", "variance")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES), spec["workloads"]
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        assert named == table, f"BENCHMARK.json {key} differs from the code: {set(named) ^ set(table)}"
    print("  ok  BENCHMARK.json names the reported metrics")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=60,
        )
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print(f"  ok  without sources: exit {done.returncode}, no result")


#: Layers each tiny traced run must have seen work in.
SEEN = {
    "ingest": ["synthgen.generate_s", "trip_data.write_s", "trip_data.parse_s", "featurize.build_table_s", "cli.self_s"],
    "retrain": ["trip_data.parse_s", "evaluation.loop_s", "evaluation.fit_cpu_s", "trees.dt.fit_s", "linear.la.predict_s"],
    "serve": ["ensembles.rf.fit_s", "ensembles.hgb.predict_s", "persist.save_s", "persist.load_s", "persist.bytes"],
}
MUTATE = {"ingest": mutate_ingest, "retrain": mutate_retrain, "serve": mutate_serve}


def main() -> int:
    check_benchmark_json()
    for name in run.NAMES:
        mutated = []

        def on_checked(workload, out, name=name):
            if not mutated:
                MUTATE[name](workload, out)
                mutated.append(name)

        t0 = time.perf_counter()
        result = run.measure(name, seed=5, seconds=0, trace=True, sizes=TINY, on_checked=on_checked)
        res = result["result"]
        assert res["correct"] and res["failed"] == 0, (name, result["failure"], res)
        assert mutated, f"{name}: no round reached its checks"
        metrics = res["metrics"]
        assert set(metrics) == set(workloads.PER_LAYER), name
        idle = [m for m in SEEN[name] if not metrics[m]["value"] > 0]
        assert not idle, f"{name}: traced run saw no work in {idle}"
        print(
            f"  ok  {name}: {result['rounds']} rounds, {res['attempted']} operations, "
            f"checks passed in {time.perf_counter() - t0:.1f} s"
        )
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
