"""One workload in its own process: set-up, timed rounds, checks, result.

run.py starts this with one BLAS thread. A round runs every instance of the
workload once, in a fixed order; the process runs at least MIN_ROUNDS whole
rounds and keeps going while another round fits in --seconds. It prints one
JSON object as its last line.

Every time is taken at the reference speed of speed.py: an operation's wall
time is scaled by the calibration kernel timed just before and just after
it, and the set-up time by the kernel timed just after the set-up.

With --setup-only it stops just before the first timed operation; run.py
uses such processes to sample the set-up time. With --trace 1 every instance
runs twice per round, untraced and then traced, so the tracing overhead is
measured on the same instances at nearly the same moment.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 3
SETUP_KERNEL_RUNS = 5
# per-layer times reported with --trace 1; counts are listed in COUNTS
LAYER_TIMES = (
    "solver.solve", "blocks.raw_marginal", "convert.sym_to_bos", "convert.verify", "convert.tilde",
    "blocks.gen", "blocks.glue", "schur.basis", "io.save", "io.load",
)
COUNTS = ("solver.dr_iterations", "blocks.raw_marginal_calls", "io.bytes_written", "io.bytes_read")
CLI_COMMANDS = ("gen", "check-sym", "check-bos2", "convert", "verify", "tilde")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _attempt(inst, speed):
    """Run one operation; returns (seconds at reference speed, scale, failure reasons).

    The scale turns this operation's wall seconds into seconds at reference speed.
    """
    inst.prepare()
    gc.collect()  # so that no operation pays for collecting another's garbage
    before = speed.kernel_seconds()
    t0 = time.perf_counter()
    try:
        result, problems = inst.run(), None
    except Exception:
        result, problems = None, [("exception", _last_line())]
    dt = time.perf_counter() - t0
    scale = speed.REFERENCE_S / statistics.fmean((before, speed.kernel_seconds()))
    if problems is None:
        try:
            problems = inst.check(result)
        except Exception:
            problems = [("failed check", "checker raised " + _last_line())]
    return dt * scale, scale, problems


def _last_line() -> str:
    return traceback.format_exc(limit=-1).strip().splitlines()[-1]


def _setup_scale(speed) -> float:
    return speed.REFERENCE_S / statistics.median(speed.kernel_seconds() for _ in range(SETUP_KERNEL_RUNS))


def _summary(times):
    medians = [statistics.median(t) for t in times]
    return {"ops_per_s": len(medians) / sum(medians), "latency_p50_s": statistics.median(medians)}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import speed
    import workloads  # imports numpy and symext

    if args.workload not in workloads.BUILDERS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        try:
            instances = workloads.BUILDERS[args.workload](args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        _attempt(instances[0], speed)  # untimed warm-up
        first_op_at = time.monotonic()
        setup_scale = _setup_scale(speed)
        if args.setup_only:
            print(json.dumps({"first_op_at": first_op_at, "setup_scale": setup_scale}))
            return 0
        result = _measure(args, instances, speed, tracer, setup_scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["first_op_at"] = first_op_at
    result["setup_scale"] = setup_scale
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _measure(args, instances, speed, tracer, setup_scale: float) -> dict:
    """Timed rounds; with a tracer, its set-up spans are already recorded."""
    setup_times, setup_counts = (dict(tracer.op_times), dict(tracer.op_counts)) if tracer else ({}, {})
    n = len(instances)
    times = [[] for _ in range(n)]
    traced_times = [[] for _ in range(n)]
    layer_times = [[] for _ in range(n)]  # per traced sample: {layer: seconds at reference speed}
    counts = [[] for _ in range(n)]
    scales = []
    failures = []  # (round, instance index, [(reason, detail), ...])
    attempted = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    rounds = 0
    round_s = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        t_round = time.perf_counter()
        for i, inst in enumerate(instances):
            dt, scale, problems = _attempt(inst, speed)
            attempted += 1
            times[i].append(dt)
            scales.append(scale)
            if problems:
                failures.append((rounds, i, problems))
            if tracer is None:
                continue
            tracer.begin_op(i)
            tracer.install()
            try:
                dt, scale, problems = _attempt(inst, speed)
            finally:
                tracer.uninstall()
            attempted += 1
            traced_times[i].append(dt)
            layer_times[i].append({layer: t * scale for layer, t in tracer.op_times.items()})
            counts[i].append(dict(tracer.op_counts))
            if problems:
                failures.append((rounds, i, problems))
        round_s = time.perf_counter() - t_round
        rounds += 1

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "measured_s": time.perf_counter() - start,
        "instances": [inst.name for inst in instances],
        "attempted": attempted,
        "failed": len(failures),
        "unexpected": sum(1 for _, i, problems in failures if problems != instances[i].known_reasons),
        "failures": [
            {"round": r, "instance": instances[i].name, "known": problems == instances[i].known_reasons,
             "reasons": problems}
            for r, i, problems in failures
        ],
        "metrics": _summary(times),
        "kernel_ratio": statistics.median(1.0 / s for s in scales),
    }
    if tracer is not None:
        setup_times = {layer: t * setup_scale for layer, t in setup_times.items()}
        out["per_layer"] = _per_layer([[setup_times]] + layer_times, [[setup_counts]] + counts)
        untraced, traced = out["metrics"]["ops_per_s"], _summary(traced_times)["ops_per_s"]
        out["trace_overhead"] = untraced / traced - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "instances": out["instances"],
                            "per_layer": out["per_layer"], "trace_overhead": out["trace_overhead"],
                            "setup": {"times": setup_times, "counts": setup_counts}, "counts_per_sample": counts})
        out["trace_file"] = str(path.relative_to(ROOT))
    return out


def _per_layer(layer_times, counts) -> dict:
    """Sums over instances of each instance's median over its traced samples.

    The first entry holds the set-up's input generation, traced once. Counts
    are the same in every sample, so the first sample's count is their value.
    """

    def total(samples_of, key):
        return sum(statistics.median(s.get(key, 0) for s in samples) for samples in samples_of)

    out = {f"{layer}_s": total(layer_times, layer) for layer in LAYER_TIMES}
    out["solver.iterate_s"] = out["solver.solve_s"] - out["blocks.raw_marginal_s"]
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = total(layer_times, f"cli.{cmd}")
    for name in COUNTS:
        out[name] = sum(samples[0].get(name, 0) for samples in counts)
    out["counts_repeat"] = all(len({json.dumps(c, sort_keys=True) for c in per}) == 1 for per in counts)
    return out


if __name__ == "__main__":
    sys.exit(main())
