#!/usr/bin/env python3
"""Benchmark of sobtop: four workloads, each in a fresh process.

Run from the root of the repository:

    python3 bench/run.py                          # every workload, one after another
    python3 bench/run.py --workload hopf --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload screen --disk-seed 17   # another disk set for the oracle

One workload run starts one child process with the BLAS and OpenMP pools
pinned to one thread.  The child builds the inputs from ``--seed`` and warms
up (set-up), then runs whole rounds of the workload's operations while the
next round still ends within ``--seconds``, at least one round, checks every
round's outputs, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Before every operation the reference kernel of reference.py runs twice; its
time is taken out of the round.  With ``--trace 0`` the metrics are
wall_ref_s (median round time) and setup_s (from process start to the first
timed round), both rescaled to the reference speed by the median kernel time
of the run, and peak_rss_mb.  With ``--trace 1``
rounds alternate untraced and traced, at least one of each; the metrics are
the per-layer ones of layers.py (medians over the traced rounds) and the
tracing overhead, and the spans are written to bench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline_dipole", "pipeline_dense", "hopf", "screen")
CHILD_TIMEOUT_S = 170
RUN_SECONDS = 25  # run_seconds of BENCHMARK.json
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SOBOLEV_TOPO_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1, help="seed of the gas positions and signs and of the opening draws")
    ap.add_argument("--disk-seed", type=int, default=0, help="seed of the disk set of the screen workload's oracle")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def spawn(args, workload):
    """Run one workload in a fresh process; returns (exit code, stdout lines)."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["BENCH_SPAWN_T"] = repr(time.monotonic())
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(args.seed), "--disk-seed", str(args.disk_seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def machine():
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in PINNED if k != "PYTHONHASHSEED"},
    }


def run_child(args):
    spawned = float(os.environ.get("BENCH_SPAWN_T", time.monotonic()))
    import layers
    import workloads

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
        tracer.active = True  # set-up spans: sphere and DEC builds
    if args.workload == "screen":
        wl = workloads.Screen(args.seed, args.disk_seed)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.active = False
    wl.warmup()
    setup_s = time.monotonic() - spawned

    import reference

    kernel_s = []  # reference kernel times, two before every operation

    def probe():
        kernel_s.extend(reference.kernel() for _ in range(2))

    workloads.before_each_op = probe
    durations, traced, untraced = [], [], []
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(durations) % 2 == 1
        if tracer is not None:
            tracer.phase = f"round{len(durations)}"
            tracer.active = is_traced
        k0 = len(kernel_s)
        t0 = time.perf_counter()
        ops = wl.round()
        dt = time.perf_counter() - t0 - sum(kernel_s[k0:])
        if tracer is not None:
            tracer.active = False
        durations.append(dt)
        (traced if is_traced else untraced).append((dt, len(durations) - 1))
        attempted += len(ops)
        for op in ops:
            if "error" in op:
                failed += 1
                print(f"{args.workload}: {op['op']} failed: {op['error']}", file=sys.stderr)
        problems += wl.check(ops)
        elapsed = time.perf_counter() - start
        need_traced = tracer is not None and not traced
        if not need_traced and elapsed + statistics.median(durations) > args.seconds:
            break
    for p in problems:
        print(f"{args.workload}: INCORRECT: {p}", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "disk_seed": args.disk_seed,
        "trace": args.trace,
        "round_s": durations,
        "setup_s": setup_s,
        "kernel_s": kernel_s,
        "machine": machine(),
    }
    if tracer is None:
        # Times at the reference speed, so that a slow minute of the host cancels.
        speed = reference.NOMINAL_S / statistics.median(kernel_s)
        metrics = {
            "wall_ref_s": (statistics.median(durations) * speed, "s"),
            "setup_s": (setup_s * speed, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        per_round = [layers.layer_metrics(tracer, f"round{i}") for _, i in traced]
        metrics = {
            name: (statistics.median(r[name][0] for r in per_round), unit)
            for name, (_, unit) in per_round[0].items()
        }
        t_traced = statistics.median(dt for dt, _ in traced)
        t_untraced = statistics.median(dt for dt, _ in untraced)
        metrics["trace.overhead_s"] = (t_traced - t_untraced, "s")
        metrics["trace.overhead_pct"] = (100.0 * (t_traced - t_untraced) / t_untraced, "%")
        tracer.dump(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json", extra={"info": info})
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "sobtop" / "__init__.py").is_file():
        print(f"sobtop sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, str(ROOT / "src"))
        return run_child(args)
    if args.workload != "all":
        code, lines = spawn(args, args.workload)
        print("\n".join(lines))
        return code
    results, code = {}, 0
    for workload in WORKLOADS:
        rc, lines = spawn(args, workload)
        if rc != 0 or not lines:
            print(f"{workload}: exit code {rc}", file=sys.stderr)
            code = code or rc or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(f"{'workload':<16} {'metric':<12} {'value':>12}  unit  attempted failed correct")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:<16} {name:<12} {m['value']:>12.4f}  {m['unit']:<5} "
                  f"{res['attempted']:>9} {res['failed']:>6} {str(res['correct']).lower():>7}")
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
