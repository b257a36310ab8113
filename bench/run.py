"""groupshift benchmark: one named workload, one seed, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 bench/run.py --quick       # every workload on a tiny job list
    python3 bench/run.py --selftest    # every check rejects a wrong answer
    python3 bench/run.py --baseline    # reference figures outside the workloads

Run from the repository root; the program is imported from src/.  The
last line of standard output is {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("assembly", "oracle-stream", "group-geometry", "cli-cold")
SETUP_REPEATS = 15  # fresh interpreters per run, about half before the timed run and half after
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def worker_argv(args, rundir, *extra):
    return [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--rundir", rundir,
        *(["--quick"] if args.quick else []),
        *extra,
    ]


def time_setup(args, rundir, deadline):
    """Fresh interpreter to READY: start, imports and shared inputs."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        worker_argv(args, rundir, "--setup-only"),
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up of {args.workload} failed (exit {code})")
    return elapsed


def run_worker(args, rundir, deadline):
    proc = subprocess.Popen(
        worker_argv(args, rundir, "--trace", str(args.trace)),
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload} did not finish in time") from None
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args.workload} worker printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(args):
    import tracing

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    rundir = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    # Set-up samples on both sides of the timed run, so that a short slow
    # spell of the machine does not move them all.
    repeats = 0 if args.trace else 1 if args.quick else SETUP_REPEATS
    try:
        setups = [time_setup(args, rundir, deadline) for _ in range((repeats + 1) // 2)]
        result = run_worker(args, rundir, deadline)
        setups += [time_setup(args, rundir, deadline) for _ in range(repeats // 2)]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    times = result["job_times"]
    if result.get("error"):
        print(f"# wrong answer: {result['error']}")
    q1, q2, q3 = quartiles(times) if times else (0.0, 0.0, 0.0)
    print(f"# {args.workload} seed {args.seed}: {len(times)} jobs, job time quartiles "
          f"{q1:.4f} / {q2:.4f} / {q3:.4f} s, total {sum(times):.3f} s")
    if args.trace:
        metrics = tracing.layer_metrics(result["layers"], result["extra_metrics"])
    else:
        print(f"# set-up samples: {' '.join(f'{s:.4f}' for s in setups)}")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_p50_s": {"value": q2, "unit": "s"},
            "jobs_per_s": {"value": len(times) / sum(times) if times else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def prepare():
    """Refuse to run without the program; compile bytecode before timing."""
    if not os.path.isfile(os.path.join(SRC, "groupshift", "__init__.py")):
        print("error: src/groupshift not found; run from the repository root", file=sys.stderr)
        return False
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not prepare():
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.selftest:
        import selftest

        return selftest.main()
    if args.baseline:
        import baseline

        return baseline.main()
    if args.quick:
        status = 0
        for name in WORKLOADS:
            for trace_flag in (0, 1):
                status |= measure(argparse.Namespace(
                    workload=name, seed=args.seed, seconds=args.seconds, trace=trace_flag, quick=True
                ))
        return status
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
