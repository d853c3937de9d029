"""Set-up of one workload, run in a fresh interpreter so that it is timed whole.

    python3 perfbench/setup_inputs.py <workload> <seed> <scale> <work dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, scale, work = sys.argv[1:]
    workloads.make_inputs(name, int(seed), float(scale), Path(work))
