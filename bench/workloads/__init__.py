"""The four workloads.  Each module defines a Workload with this shape."""

from __future__ import annotations

import os


class Base:
    """Set-up happens in __init__; run() is timed; inputs() and check() are not.

    check() returns (operations attempted, operations failed) for one job
    and raises reference.CheckFailed on a wrong answer.
    """

    work_in_children = False
    tracing = False

    def __init__(self, seed, seconds, rundir):
        self.seed = seed
        self.rundir = rundir
        self.jobs = []

    @staticmethod
    def cycles(seconds, cycle_seconds, minimum=1):
        """Whole cycles of the case table that fill about `seconds` here."""
        return max(minimum, round(seconds / cycle_seconds))

    def quick(self):
        """Cut the job list to a few jobs, for a smoke run in seconds."""
        self.jobs = self.jobs[:2]

    def prepare(self):
        """Reference answers, computed before the timed loop."""

    def inputs(self, job):
        """The inputs of one job, made just before it runs, untimed."""
        return job

    def run(self, job):
        raise NotImplementedError

    def check(self, job, output):
        raise NotImplementedError

    def describe(self, spec):
        """One line naming a job of the list, for error messages."""
        return repr(spec)

    def child_traces(self):
        """Raw totals, self times and spans traced in child processes."""
        return {}, {}, []

    def trace_metrics(self):
        return {}

    def trace_path(self):
        folder = os.path.join(os.path.dirname(self.rundir), "traces")
        os.makedirs(folder, exist_ok=True)
        name = type(self).__module__.rsplit(".", 1)[-1]
        return os.path.join(folder, f"{name}-seed{self.seed}.json")
