"""Benchmark command for symext.

    python3 bench/run.py --workload planted --seed 1 --seconds 35 --trace 0

Runs one workload (planted, werner or roundtrip) in its own worker process
with one BLAS thread, after SETUP_SAMPLES - 1 set-up-only processes that
sample the set-up time. It prints the metrics by name and unit, the
attempted and failed operations with the reason for each failure, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics; --trace 1 gives the
per-layer metrics from a traced run and writes its spans under .bench_out/.
Times are at the reference speed of speed.py (see README.md).

It needs the symext sources under src/ next to this directory and exits with
a non-zero code, printing no result, when they are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
TIMEOUT_S = 170.0
# one BLAS thread: the solver's matrices are small, so extra threads add
# scheduling noise rather than speed on a shared 2-core machine
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("solver.solve_s", "s"),
    ("solver.iterate_s", "s"),
    ("solver.dr_iterations", "count"),
    ("blocks.raw_marginal_calls", "count"),
    ("blocks.raw_marginal_s", "s"),
    ("blocks.gen_s", "s"),
    ("blocks.glue_s", "s"),
    ("convert.sym_to_bos_s", "s"),
    ("convert.verify_s", "s"),
    ("convert.tilde_s", "s"),
    ("schur.basis_s", "s"),
    ("io.save_s", "s"),
    ("io.load_s", "s"),
    ("io.bytes_written", "bytes"),
    ("io.bytes_read", "bytes"),
    ("cli.gen_s", "s"),
    ("cli.check-sym_s", "s"),
    ("cli.check-bos2_s", "s"),
    ("cli.convert_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.tilde_s", "s"),
)


class WorkerFailed(Exception):
    pass


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker; returns (its start time on the monotonic clock, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "SYMEXT_MAX_K"}
    env.update(WORKER_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _failure_lines(failures) -> list[str]:
    seen = Counter((f["instance"], f["known"], json.dumps(f["reasons"])) for f in failures)
    lines = []
    for (name, known, reasons), times in sorted(seen.items()):
        tag = "known" if known else "UNEXPECTED"
        for reason, detail in json.loads(reasons):
            lines.append(f"  failed {name} x{times} [{tag}] {reason}: {detail}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="symext benchmark")
    p.add_argument("--workload", required=True, choices=("planted", "werner", "roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "symext" / "__init__.py").is_file():
        print(f"bench: no symext sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            started, res = _worker(args, deadline, setup_only=True)
            setups.append((res["first_op_at"] - started) * res["setup_scale"])
        started, res = _worker(args, deadline, setup_only=False)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append((res["first_op_at"] - started) * res["setup_scale"])

    n = len(res["instances"])
    print(f"workload {args.workload} seed {args.seed}: {n} operations per round, {res['rounds']} rounds "
          f"in {res['measured_s']:.1f} s, trace {args.trace}")
    if args.trace:
        values = res["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        print(f"tracing overhead: {100 * res['trace_overhead']:+.1f}% time per operation "
              f"(same instances, run untraced then traced in each round)")
        print(f"counts repeat exactly across traced rounds: {values['counts_repeat']}")
        print(f"spans written to {res['trace_file']}")
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups), peak_rss_mb=res["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print("setup samples (s): " + " ".join(f"{s:.3f}" for s in setups))
    print(f"calibration kernel: median {res['kernel_ratio']:.3f} times its reference time next to the operations")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {res['attempted']}, failed {res['failed']} ({res['unexpected']} unexpected)")
    for line in _failure_lines(res["failures"]):
        print(line)
    print(json.dumps({"correct": res["unexpected"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
