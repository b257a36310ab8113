"""One workload in one process: set up, run the fixed job list, check it.

run.py starts this file in fresh interpreters.  With --setup-only it
prints READY as soon as the first job could start and exits; otherwise it
runs every job as a closed loop with a single caller, checks each output
outside the timed region, and prints one JSON line for run.py.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time

from reference import CheckFailed

MODULES = {
    "assembly": "workloads.assembly",
    "oracle-stream": "workloads.oracle_stream",
    "group-geometry": "workloads.geometry",
    "cli-cold": "workloads.cli_cold",
}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    workload = importlib.import_module(MODULES[args.workload]).Workload(
        args.seed, args.seconds, args.rundir
    )
    if args.quick:
        workload.quick()
    if args.setup_only:
        print("READY", flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
        workload.tracing = True
    workload.prepare()
    times, attempted, failed, error = [], 0, 0, None
    for index, spec in enumerate(workload.jobs):
        job = workload.inputs(spec)
        gc.collect()
        if tracer is not None:
            tracer.job = index
        # An exception from the program, or from a check meeting an output
        # of the wrong shape, is a wrong answer like a failed check.
        try:
            started = time.perf_counter()
            output = workload.run(job)
            times.append(time.perf_counter() - started)
            ok_ops, bad_ops = workload.check(job, output)
        except Exception as exc:
            reason = str(exc) if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: {exc}"
            error = f"job {index} ({workload.describe(spec)}): {reason}"
            break
        attempted += ok_ops
        failed += bad_ops
        del output

    who = resource.RUSAGE_CHILDREN if workload.work_in_children else resource.RUSAGE_SELF
    result = {
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "job_times": times,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "error": error,
    }
    if tracer is not None:
        child_totals, child_self, child_spans = workload.child_traces()
        for name, value in child_totals.items():
            tracer.counts[name] += value
        for stem, seconds in child_self.items():
            tracer.self_time[stem] += seconds
        base = len(tracer.spans)
        tracer.spans.extend(
            (stem, start, end, None if parent is None else parent + base, job)
            for stem, start, end, parent, job in child_spans
        )
        result["layers"] = tracer.totals()
        result["extra_metrics"] = {**workload.trace_metrics(), **tracing.import_times()}
        tracer.dump(workload.trace_path())
    print(json.dumps(result), flush=True)
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
