"""assembly: one job builds one witness and runs F1–F4, factor_phi and
hat_phi_project on it.

The input of a job is a seeded golden-mean configuration (no 1 at both h
and h·x) on a Z or Z² base, spread over line grids.  A job builds what a
user builds per run: the context (codec and oracles), the base ball, the
two line grids, the witness, and every check on it.  Set-up builds only
the job inputs, as plain data.
"""

from __future__ import annotations

import random

import groupshift.assembly as assembly
import groupshift.effective as effective
import groupshift.grid as grid
import groupshift.groups as groups
import groupshift.shiftcore as shiftcore

import reference
from reference import require
from workloads import Base

# One cycle of the job list: (base rank, grid radius, admissible).  A line
# of 2r+1 cells gets F1 windows of length 9 below r = 13 and 27 from there
# on; the cycle holds both, two of its six cases are inadmissible, and the
# radii are chosen so that the cases cost within about 20 % of each other
# (measured on a 2-vCPU VM), which keeps the median job a steady figure.
CASES = (
    (1, 18, True),
    (1, 19, True),
    (2, 10, True),
    (2, 15, True),
    (1, 22, False),
    (2, 12, False),
)
CYCLE_SECONDS = 3.6
CODEC_RADIUS = {1: 4, 2: 2}
BASE_RADIUS = 1
PREFIX_BITS = 7
FORBIDDEN = (shiftcore.coding_from_pairs([((), "1"), (("x",), "1")]),)


def phi_depth(radius):
    """Largest n whose 3^(n+1)-window fits rightwards from the identity."""
    n = 0
    while 3 ** (n + 2) - 1 <= radius:
        n += 1
    return n


class Workload(Base):
    def __init__(self, seed, seconds, rundir):
        super().__init__(seed, seconds, rundir)
        rng = random.Random(seed)
        for _ in range(self.cycles(seconds, CYCLE_SECONDS)):
            for rank, radius, admissible in rng.sample(CASES, len(CASES)):
                self.jobs.append(self._job(rng, rank, radius, admissible))

    @staticmethod
    def _job(rng, rank, radius, admissible):
        arith = reference.AbelianArith(rank)
        _, addresses, _ = reference.shortlex_ball(arith, CODEC_RADIUS[rank])
        shell_words, shell_elems, _ = reference.shortlex_ball(arith, BASE_RADIUS + 1)
        reach = BASE_RADIUS + 1 + max(arith.length(e) for e in addresses[:PREFIX_BITS])
        ones = reference.golden_config(rng, arith, reach)
        if not admissible:
            ones |= {arith.identity(), arith.element(("x",))}
        prefixes = {
            word: "".join(
                "1" if arith.mul(g, addresses[m]) in ones else "0" for m in range(PREFIX_BITS)
            )
            for word, g in zip(shell_words, shell_elems)
        }
        return (rank, radius, admissible, ones, prefixes)

    def describe(self, job):
        return f"Z^{job[0]} base, grids of radius {job[1]}, admissible={job[2]}"

    def run(self, job):
        rank, radius, _, _, prefixes = job
        oracle = groups.FreeAbelianOracle(rank)
        codec = effective.make_codec(oracle, shiftcore.Alphabet(("0", "1")), CODEC_RADIUS[rank])
        ctx = assembly.standard_context(
            effective.rho_set_oracle(codec, FORBIDDEN),
            effective.rho_action_oracle(codec, FORBIDDEN),
            codec.kappa,
        )
        g_ball = groups.cayley_ball(oracle, BASE_RADIUS)
        omega = grid.ProductGridPatch(line_grid(radius), line_grid(radius))
        patch = assembly.witness_construct(ctx, g_ball, prefixes, omega)
        found = (
            assembly.check_F1(patch, ctx),
            assembly.check_F2(patch),
            assembly.check_F3(patch, ctx),
            assembly.check_F4(patch, ctx),
        )
        phi = assembly.factor_phi(patch, ctx, phi_depth(radius))
        projection = assembly.hat_phi_project(patch, ctx, codec)
        return g_ball, patch, found, phi, projection

    def check(self, job, output):
        rank, radius, admissible, ones, prefixes = job
        g_ball, patch, (f1, f2, f3, f4), phi, projection = output
        arith = reference.AbelianArith(rank)
        words, _, _ = reference.shortlex_ball(arith, BASE_RADIUS)
        require(list(g_ball.elements) == words, "base ball is not the shortlex ball")
        if admissible:
            require(f1 == [], f"F1 reports {len(f1)} violations on a clean witness")
        else:
            require(f1 != [], "F1 misses the 1-1 pair at the identity and x")
        require(f2 == [] and f3 == [] and f4 == [], "F2-F4 report violations on a witness")
        n = phi_depth(radius)
        require(phi == prefixes[()][: n + 1], f"factor_phi gives {phi!r}, expected {prefixes[()][: n + 1]!r}")
        for g, word in enumerate(g_ball.elements):
            slc = patch.omega[g]
            key = (g, slc.patch1.ball.index[()], slc.patch2.ball.index[()])
            expected = "1" if arith.element(word) in ones else "0"
            require(projection.get(key) == expected, f"projection at base cell {word} is wrong")
        return 1, 0


def line_grid(radius):
    """The line grid on the Z ball of a radius: right label x, left x-."""
    ball = groups.cayley_ball(groups.FreeAbelianOracle(1), radius)
    succ = {h: ball.elements[h] + ("x",) for h in range(len(ball))}
    pred = {h: ball.elements[h] + ("x-",) for h in range(len(ball))}
    return grid.from_translation_action(ball, succ, pred)
