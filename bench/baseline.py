"""Reference figures for the ROADMAP baseline table, outside the workloads.

    python3 bench/run.py --baseline

Each figure is the median of a few repetitions (one for the 4-factor
probe, which takes minutes), with the correctness of each result checked.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import groupshift
import groupshift.aperiodic as aperiodic
import groupshift.assembly as assembly
import groupshift.effective as effective
import groupshift.grid as grid
import groupshift.groups as groups
import groupshift.shiftcore as shiftcore

import reference
from reference import require
from workloads.assembly import line_grid


def timed(fn, repeats):
    samples, result = [], None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), result


def acceptance_witness():
    """The r=28 witness of acceptance criterion 06: Z base of radius 1,
    Z codec of radius 4, parity orbit prefixes of seven bits."""
    z = groups.FreeAbelianOracle(1)
    codec = effective.make_codec(z, shiftcore.Alphabet(("0", "1")), 4)
    forbidden = (shiftcore.coding_from_pairs([((), "1"), (("x",), "1")]),)
    ctx = assembly.standard_context(
        effective.rho_set_oracle(codec, forbidden), effective.rho_action_oracle(codec, forbidden), codec.kappa
    )
    slots = [reference.z_coordinate(codec.ball.elements[m]) for m in range(7)]
    shell = groups.cayley_ball(z, 2)
    prefixes = {
        w: "".join(str((reference.z_coordinate(w) + q) % 2) for q in slots) for w in shell.elements
    }

    omega = grid.ProductGridPatch(line_grid(28), line_grid(28))
    patch = assembly.witness_construct(ctx, groups.cayley_ball(z, 1), prefixes, omega)
    return patch, ctx, codec


def main():
    rows = []
    for r in (5, 7, 9):
        seconds, ball = timed(lambda: groups.cayley_ball(groups.GrigorchukOracle(), r), 3)
        expected = sum(reference.grigorchuk_perms(r).sphere_sizes(r))
        require(len(ball) == expected, f"Grigorchuk ball of radius {r} has {len(ball)} elements")
        rows.append((f"cayley_ball(Grigorchuk, r={r}), {len(ball)} elements", seconds))

    patch, ctx, codec = acceptance_witness()
    seconds, f1 = timed(lambda: assembly.check_F1(patch, ctx, 100_000), 3)
    require(f1 == [], "F1 flags the acceptance witness")
    rows.append(("acceptance witness (r=28 grids), F1 at budget 100 000", seconds))
    seconds, rest = timed(
        lambda: (assembly.check_F2(patch), assembly.check_F3(patch, ctx), assembly.check_F4(patch, ctx)), 3
    )
    require(rest == ([], [], []), "F2-F4 flag the acceptance witness")
    rows.append(("same witness, F2 + F3 + F4", seconds))
    seconds, projection = timed(lambda: assembly.hat_phi_project(patch, ctx, codec), 3)
    for g, word in enumerate(patch.g_ball.elements):
        slc = patch.omega[g]
        cell = projection[(g, slc.patch1.ball.index[()], slc.patch2.ball.index[()])]
        require(cell == str(reference.z_coordinate(word) % 2), "projection misses the parity point")
    rows.append(("same witness, projection", seconds))

    line = groups.cayley_ball(groups.FreeAbelianOracle(1), 10)
    colored = aperiodic.square_free_search(line, 3, 10)
    for factors, repeats in ((3, 3), (4, 1)):
        seconds, probe = timed(
            lambda: aperiodic.product_aperiodicity_probe([colored] * factors, 2, 10), repeats
        )
        require(probe.ok and len(probe.entries) == 5**factors - 1, "probe verdicts are wrong")
        rows.append((f"product_aperiodicity_probe, {factors} x Z-ball r=10", seconds))

    code = "import time; t = time.perf_counter(); import groupshift.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(groupshift.__path__[0])}
    samples = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout)
        for _ in range(7)
    ]
    rows.append(("import groupshift.cli, fresh interpreter", statistics.median(samples)))

    for name, seconds in rows:
        print(f"| {name} | {seconds:.3f} s |")
    return 0
