"""Each independent check must pass a right answer and reject a wrong one.

    python3 bench/run.py --selftest
"""

from __future__ import annotations

import os
import shutil
import tempfile
from types import SimpleNamespace

import reference
from reference import CheckFailed


def rejects(check, right, wrong):
    check(right)
    try:
        check(wrong)
    except CheckFailed:
        return True
    return False


def flipped_verdict():
    from groupshift.effective import Verdict
    from workloads.oracle_stream import Codec, Workload

    wl = Workload.__new__(Workload)
    wl.codecs = {"Z2": Codec("Z2")}
    job = [("set", "Z2", "0" * 20, False)]
    return rejects(lambda v: wl.check(job, [v]), Verdict.UNKNOWN, Verdict.CERTIFIED_EMPTY)


def ball_size_off_by_one():
    from workloads.geometry import Workload

    wl = Workload.__new__(Workload)
    words, elems, _ = reference.shortlex_ball(reference.AbelianArith(2), 3)
    distance = [sum(abs(v) for v in e) for e in elems]
    return rejects(
        lambda ball: wl.check_ball("z2", 3, *ball),
        (words, distance),
        (words[:-1], distance[:-1]),
    )


def cover_with_a_cycle():
    # the unit square of Z², cells 0..3 in cyclic order
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]

    def is_edge(h, t):
        return sum(abs(a - b) for a, b in zip(square[h], square[t])) == 1

    def check(succ):
        pred = {t: h for h, t in succ.items()}
        reference.check_cover(succ, pred, [1, 1, 1, 1], 1, 1, is_edge)

    return rejects(check, {0: 1, 1: 2, 2: 3}, {0: 1, 1: 2, 2: 3, 3: 0})


def square_in_a_colouring():
    thue = [0, 1, 2, 0, 2, 1, 0, 1, 2, 1, 0, 2]  # square-free
    spoiled = list(thue)
    spoiled[4:6] = [1, 2]  # "0 1 2 0 1 2": a square of half-length 3
    return rejects(lambda seq: reference.check_square_free(seq, 10), thue, spoiled)


def changed_report_byte():
    from workloads.cli_cold import Workload

    out = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")
    os.makedirs(out, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="selftest-", dir=out)
    try:
        wl = Workload(0, 0, rundir)
        report = os.path.join(rundir, "report.json")
        original = b'{"schema": "groupshift/1", "size": 40}\n'
        wl.first[0] = original
        proc = SimpleNamespace(returncode=0, stderr=b"")

        def check(raw):
            with open(report, "wb") as fh:
                fh.write(raw)
            wl.check(((1, 0), None, report), (proc, 0.0))

        return rejects(check, original, original.replace(b"40", b"41"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


CASES = (
    ("a flipped verdict", flipped_verdict),
    ("a ball size off by one", ball_size_off_by_one),
    ("a cover with a cycle", cover_with_a_cycle),
    ("a square in a colouring", square_in_a_colouring),
    ("a changed report byte", changed_report_byte),
)


def main():
    status = 0
    for name, case in CASES:
        ok = case()
        print(f"{'rejects' if ok else 'ACCEPTS'} {name}")
        status |= 0 if ok else 1
    return status
