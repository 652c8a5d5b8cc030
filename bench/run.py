"""Benchmark for localhom: one workload per run, each run a fresh process.

    python3 bench/run.py --workload knn_pipeline --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics. With --trace 1 it
runs every op twice, once plain and once with spans around each library
call, alternating which goes first; it reduces the ops' spans to per-layer
self time per op, counts work over the first ops of the seeded stream, and
times `localhom stalks` with 1 and 2 threads. Every op's outputs are
checked outside the timed region. Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The per-layer metrics are exactly those BENCHMARK.json
names; a layer the workload never calls reads 0.

Set-up time is sampled in fresh processes (`--setup-only`) spread over the
timed phase: each runs from the first statement of this file through the
imports and one set-up, so it excludes only the interpreter's own start.
"""

import time

START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fresh-process set-up samples, due at even intervals of the timed phase.
SETUP_REPS = 7
# op_tail_s is the highest percentile with TAIL_BEYOND ops beyond it.
TAIL_BEYOND = 10
MIN_TAIL_OPS = 2 * TAIL_BEYOND

# `localhom stalks` thread counts in run order; ABBA cancels a linear drift.
CLI_THREADS = (1, 2, 2, 1)

# On a shared 2-core host a two-thread OpenBLAS stalls: a 280x280 eigvalsh took
# 3 ms on one thread and up to 0.7 s on two. BLAS is under 2% of every op.
BLAS_THREADS = 1


def cap_blas_threads() -> int:
    """Run BLAS pools on BLAS_THREADS threads; must run before numpy loads. Returns nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def import_library():
    """Put this checkout's src/ first on the path and refuse any other localhom."""
    package = ROOT / "src" / "localhom"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no localhom package at {package}")
    sys.path.insert(0, str(package.parent))
    import localhom

    if Path(localhom.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported localhom from {localhom.__file__}, not {package}")


class Tally:
    """Attempted and failed ops, plus the busy time of each op that returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []

    def fail(self, what: str):
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)


def run_op(wl, inp, tracer, tally: Tally):
    """Run one op under `tracer`, time it, then check its outputs untimed."""
    tally.attempted += 1
    gc.collect()  # every op starts from the same collector state
    try:
        begin = time.perf_counter()
        with tracer.span("op"):
            out = wl.run(inp, tracer)
        tally.times.append(time.perf_counter() - begin)
        problems = wl.check(inp, out)
    except Exception:
        traceback.print_exc()
        tally.fail(f"op {inp['index']}: raised")
        return None
    if problems:
        tally.fail(f"op {inp['index']}: " + "; ".join(problems))
    return out


def setup_sample(args) -> float:
    """One fresh process that imports and sets up, then exits; its set-up seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure_plain(wl, args, null, tally: Tally) -> list[float]:
    """Ops until --seconds pass; set-up samples run between ops as they fall due."""
    setups: list[float] = []
    index, begin = 0, time.perf_counter()
    while index == 0 or time.perf_counter() - begin < args.seconds:
        due = (time.perf_counter() - begin) * SETUP_REPS / args.seconds
        while len(setups) < min(SETUP_REPS, due + 1):
            setups.append(setup_sample(args))
        run_op(wl, wl.make_input(index), null, tally)
        index += 1
    while len(setups) < SETUP_REPS:
        setups.append(setup_sample(args))
    return setups


def measure_traced(wl, seconds, tracer, null, plain: Tally, traced: Tally) -> Counter:
    """Each op plain and traced on one input; counts cover the first count_ops ops."""
    counts = Counter()
    wl.count_setup(counts)
    index, begin = 0, time.perf_counter()
    while index < wl.count_ops or time.perf_counter() - begin < seconds:
        inp = wl.make_input(index)
        sides = [(null, plain), (tracer, traced)]
        for tr, tally in sides[:: 1 if index % 2 == 0 else -1]:
            out = run_op(wl, inp, tr, tally)
            if tr is tracer:
                traced_out = out
        if traced_out is not None:
            with tracer.span("probe"):
                wl.probe(traced_out, tracer)
            if index < wl.count_ops:
                wl.count(inp, traced_out, counts)
        index += 1
    return counts


def measure_cli_threads(points: Path, tracer, tally: Tally) -> dict[str, float]:
    """`localhom stalks` on one knn_pipeline input, CLI_THREADS in order; outputs must match.

    Returns the mean seconds per thread count.
    """
    from localhom.cli import main as cli_main

    outputs, times = [], {t: [] for t in CLI_THREADS}
    for rep, threads in enumerate(CLI_THREADS):
        outdir = points.parent / f"stalks{rep}"
        argv = ["stalks", "--input", str(points), "--format", "points", "--knn", "6",
                "--field", "float", "--max-order", "1", "--max-dim", "2",
                "--threads", str(threads), "--out", str(outdir)]
        tally.attempted += 1
        begin = time.perf_counter()
        with tracer.span(f"cli.stalks_threads{threads}"):
            code = cli_main(argv)
        times[threads].append(time.perf_counter() - begin)
        if code != 0:
            tally.fail(f"localhom stalks --threads {threads}: exit code {code}")
            return {}
        outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    if any(out != outputs[0] for out in outputs):
        tally.fail("localhom stalks wrote different files with 1 and 2 threads")
    return {f"cli.stalks_threads{t}_s": statistics.fmean(ts) for t, ts in times.items()}


def tail(times: list[float]):
    """(percentile, seconds) with TAIL_BEYOND ops beyond it; None below MIN_TAIL_OPS ops."""
    n = len(times)
    if n < MIN_TAIL_OPS:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def show(name, value, unit, note=""):
    print(f"{name:<36} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    import_library()
    import numpy as np

    import workloads
    from spans import NullTracer, Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (used by the self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds since start as JSON, exit")
    args = parser.parse_args(argv)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]

    null = NullTracer()
    tracer = Tracer() if args.trace else null
    plain, traced = Tally(), Tally()
    workroot = ROOT / ".bench_work"
    workroot.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as tmp:
        workdir = Path(tmp)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        # Traced set-up spans go to the trace file but not into the per-op metrics.
        with tracer.span("setup"):
            wl.setup(tracer)
        if args.setup_only:
            print(json.dumps({"setup_s": time.perf_counter() - START}))
            return 0
        if args.trace:
            counts = measure_traced(wl, args.seconds, tracer, null, plain, traced)
            (workdir / "cli").mkdir()
            knn = workloads.KnnPipeline(args.seed, workdir / "cli", args.tiny)
            cli_times = measure_cli_threads(knn.make_input(0)["path"], tracer, traced)
        else:
            setup_times = measure_plain(wl, args, null, plain)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    ops = len(plain.times)
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(wl.params)}")
    print("env: " + json.dumps({
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": BLAS_THREADS, "ops": ops, "seconds": args.seconds, "trace": args.trace,
        "clients": 1, "loop": "closed",
    }))
    metrics = {}
    if args.trace:
        # Self time per traced op: op spans plus the block probes that follow them.
        traced_ops = max(1, len(traced.times))
        values = {f"{name}_s": secs / traced_ops
                  for name, secs in tracer.self_times(roots=("op", "probe")).items()}
        values.update(cli_times)
        values.update(workloads.finish_counts(counts))
        values["trace.overhead_ratio"] = sum(plain.times) / sum(traced.times)
        print(f"per layer: _s is self seconds per traced op ({len(traced.times)} ops), "
              f"cli.* the mean of {len(CLI_THREADS) // 2} runs per thread count, "
              f"counts cover the first {wl.count_ops} ops")
        for m in per_layer:
            metrics[m["name"]] = (values.get(m["name"], 0), m["unit"])
            show(m["name"], metrics[m["name"]][0], m["unit"])
        tracedir = workroot / "traces"
        tracedir.mkdir(exist_ok=True)
        tracer.write(tracedir / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["ops_per_s"] = (ops / sum(plain.times), "1/s")
        metrics["op_p50_s"] = (statistics.median(plain.times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        notes = {
            "setup_s": f"(median of {len(setup_times)} fresh-process set-ups)",
            "ops_per_s": f"({ops} ops)",
            "op_p50_s": f"({ops} ops)",
            "peak_rss_mb": "(this process only)",
        }
        for name, (value, unit) in metrics.items():
            show(name, value, unit, notes[name])
        tail_s = tail(plain.times)
        if tail_s is None:
            print(f"{'op_tail_s':<36} {'n/a':>14} {'s':<6} ({ops} ops < {MIN_TAIL_OPS})")
        else:
            show("op_tail_s", tail_s[1], "s",
                 f"(p{tail_s[0]:.1f}, {ops} ops, {TAIL_BEYOND} beyond)")
    show("fail_ratio", failed / attempted, "ratio", f"({failed} of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
