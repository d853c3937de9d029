"""Recompute the stored sha256 of the pinned `tripcast synth` CSV.

    python3 perfbench/pin_sha.py

The ingest set-up compares the CSV that `synth` writes for seed 1 (March
2019, a quarter of the default daily trip counts) with `ingest_pin.sha256`.
Rerun this only for a change that is meant to alter the generator's output.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workloads.make_inputs("ingest", workloads.PIN_SEED, workloads.PIN_SCALE, Path(tmp))
        sha = workloads.sha256_of(Path(tmp) / "pin.csv")
    workloads.PIN_FILE.write_text(f"{sha}  pin.csv\n", encoding="utf-8")
    print(f"{sha} -> {workloads.PIN_FILE}")
