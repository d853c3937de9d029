"""Benchmark for tripcast: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload ingest|retrain|serve|all --seed N \
        --seconds S --trace 0|1

Run from the root of a tripcast source tree; the program is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. `--workload all` runs each
workload in its own process and merges their results. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("ingest", "retrain", "serve")


def machine() -> dict:
    """Where and on what the run was made."""
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "tripcast").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None, on_checked=None) -> dict:
    """Set up, then run whole rounds of workload `name` until `seconds` are measured.

    With `trace`, rounds alternate untraced and traced (at least one of
    each): the traced ones give the per-layer metrics, and the difference
    of the two kinds' median wall times is the tracing overhead.
    `on_checked(workload, outputs)` is called after each round that passed
    its checks, while the round's files still exist.
    """
    import oracle
    import workloads

    sizes = sizes or workloads.Sizes()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench_work"))
    try:
        workload = workloads.WORKLOADS[name](seed, sizes, work)
        setup = []
        for _ in range(sizes.setup_repeats):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "setup_inputs.py"), name, str(seed), repr(workload.scale), str(work)],
                check=True,
            )
            setup.append(time.perf_counter() - t0)

        correct, failure = True, None
        try:
            workload.prepare()
        except oracle.CheckFailed as exc:
            correct, failure = False, str(exc)
        walls = {False: [], True: []}
        cpus, figures, layers = [], [], []
        attempted = failed = 0
        peak_rss_mb = None
        while correct:
            traced = trace and bool(len(walls[False]))
            tracer = None
            if traced:
                from tracing import Tracer

                tracer = Tracer()
            ops = workloads.Ops()
            out = None
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                out = workload.round(ops, tracer)
            except Exception:  # a failing program operation ends the round
                traceback.print_exc()
                failed += workload.planned() - ops.attempted + 1
            finally:
                wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
                if tracer:
                    tracer.restore()
            if peak_rss_mb is None:  # before any check has allocated
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            attempted += workload.planned()
            walls[traced].append(wall)
            if out is not None:
                try:
                    figs = workload.check(out)
                except oracle.CheckFailed as exc:
                    correct, failure = False, str(exc)
                    break
                if traced:
                    layers.append({**workloads.span_metrics(tracer), **workload.layers(tracer, out)})
                else:
                    cpus.append(cpu)
                    figures.append(figs)
                if on_checked is not None:
                    on_checked(workload, out)
            if sum(walls[False] + walls[True]) >= seconds and (not trace or walls[True]):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    def median_of(rows: list[dict]) -> dict:
        return {key: statistics.median(r[key] for r in rows) for key in rows[0]} if rows else {}

    if trace:
        values = {metric: 0.0 for metric in workloads.PER_LAYER}
        values.update(median_of(layers))
        if walls[True]:
            values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        units = workloads.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls[False]) if walls[False] else 0.0,
            "cpu_s": statistics.median(cpus) if cpus else 0.0,
            "peak_rss_mb": peak_rss_mb or 0.0,
        }
        units = workloads.END_TO_END
    return {
        "rounds": len(walls[False]) + len(walls[True]),
        "setup_runs": setup,
        "figures": median_of(figures),
        "failure": failure,
        "result": {
            "correct": correct,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
    }


def report(name: str, seed: int, run: dict) -> None:
    """Human-readable lines; the result line itself is printed by the caller."""
    import workloads

    result = run["result"]
    print(
        f"workload {name} seed {seed}: {run['rounds']} round(s), {result['attempted']} operations, "
        f"{result['failed']} failed, set-up runs {', '.join(f'{s:.3f}' for s in run['setup_runs'])} s"
    )
    for key, metric in result["metrics"].items():
        print(f"  {key:<28} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in run["figures"].items():
        print(f"  {key:<28} {value:>16.6g} {workloads.FIGURE_UNITS[key]}")
    if run["failure"]:
        print(f"check failed: {run['failure']}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process; one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up on termination
    if not (SRC / "tripcast" / "__init__.py").is_file():
        print(f"perfbench: no tripcast sources at {SRC}; run from the root of a tripcast tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    print("machine " + json.dumps(machine()))
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
