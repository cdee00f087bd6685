"""Regenerate the reference figures in bench/README.md.

    python3 bench/reference.py

Runs bench/run.py once per seed in SEEDS on each workload, one run at a
time, for the run length in BENCHMARK.json, then one traced run per workload
on the first seed. Prints, for every end-to-end metric, the median over the
seeds and the quartile spread as a share of the median
(statistics.quantiles with n=4), and the per-layer figures of the traced run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
WORKLOADS = ("planted", "werner", "roundtrip")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in WORKLOADS:
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} seeds, failed share {shares}, correct {all(r['correct'] for r in runs)}")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"  {name:16s} median {statistics.median(values):.4g} {m['unit']:6s} spread {spread(values):.3f}"
                  f"  values {' '.join(f'{v:.4g}' for v in values)}")
        traced = _run(workload, SEEDS[0], seconds, 1)
        for name, m in traced["metrics"].items():
            print(f"  traced {name:26s} {m['value']:.4g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
