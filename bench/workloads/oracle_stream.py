"""oracle-stream: one job is a batch of distinct set- and action-oracle
queries at budget 10 000.

Codecs over Z, Z² and the free group F₂ are built in set-up, and their
resolve memos are filled with every word a query looks up.
Every timed query is new.  Each batch also holds three queries that do
not depend on the seed: whole-ball forbidden words on Z² and F₂ and one
whole-ball action pair on Z².  RhoSetOracle._reject_word spends
n(n-1)/2 steps on a pair loop that cannot fire, so these come back
Unknown at budget 10 000; they count as failed, three per batch.
"""

from __future__ import annotations

import random

import groupshift.effective as effective
import groupshift.groups as groups
import groupshift.shiftcore as shiftcore

import reference
from reference import require
from workloads import Base

BUDGET = 10_000
FORBIDDEN = (shiftcore.coding_from_pairs([((), "1"), (("x",), "1")]),)
# name -> (group descriptor, codec radius)
CODECS = {
    "Z": ({"kind": "free_abelian", "rank": 1}, 60),
    "Z2": ({"kind": "free_abelian", "rank": 2}, 8),
    "F2": ({"kind": "free", "rank": 2}, 4),
}
# Block counts per batch and codec; None is the whole ball.  Forbidden
# words stay short enough that n(n-1)/2 + n + |ball| fits the budget, so
# the seeded queries never meet the fault.
ADMISSIBLE_LENGTHS = (12, 24, 48, 96, None)
FORBIDDEN_LENGTHS = (12, 24, 48, 96)
ACTION_LENGTHS = (12, 24, 48, 64)
JOB_SECONDS = 0.6


def _arith(descriptor):
    if descriptor["kind"] == "free_abelian":
        return reference.AbelianArith(descriptor["rank"])
    return reference.FreeArith(descriptor["rank"])


class Codec:
    """One program codec and the benchmark's own view of its addresses."""

    def __init__(self, name):
        descriptor, radius = CODECS[name]
        self.name = name
        self.arith = _arith(descriptor)
        _, self.elems, self.address = reference.shortlex_ball(self.arith, radius)
        # The action pairs block n of v with block m of w when n = s·m, so
        # v codes the translate c(s⁻¹·); that needs c one step further out.
        self.reach = radius + 1
        self.size = len(self.elems)
        oracle = groups.group_from_descriptor(descriptor)
        self.codec = effective.make_codec(oracle, shiftcore.Alphabet(("0", "1")), radius)
        self.X = effective.rho_set_oracle(self.codec, FORBIDDEN)
        self.T = effective.rho_action_oracle(self.codec, FORBIDDEN)
        self.symbols = self.codec.group.gens.symbols
        self.x = self.arith.element(("x",))

    def warm(self):
        """Resolve every word the queries look up: b·x and s·b for b in the ball."""
        ball = self.codec.ball
        for word in ball.elements:
            ball.resolve(word + ("x",))
            for s in self.symbols:
                ball.resolve((s,) + word)

    def config(self, rng):
        return reference.golden_config(rng, self.arith, self.reach)

    def code(self, ones, count):
        return reference.coding(self.elems, ones, count)

    def translate(self, s, ones, count):
        """Coding of the configuration moved by s: block n is c(s⁻¹·n)."""
        inv = self.arith.element((reference.inverse_symbol(s),))
        return "".join(
            "1" if self.arith.mul(inv, self.elems[n]) in ones else "0" for n in range(count)
        )

    def paired(self, s, m):
        """Address of s·(element m), or None outside the ball."""
        e = self.arith.mul(self.arith.element((s,)), self.elems[m])
        return self.address.get(e)


class Workload(Base):
    def __init__(self, seed, seconds, rundir):
        super().__init__(seed, seconds, rundir)
        self.codecs = {name: Codec(name) for name in CODECS}
        for codec in self.codecs.values():
            codec.warm()
        self.rng = random.Random(seed)
        self.seen = set()
        self.jobs = list(range(self.cycles(seconds, JOB_SECONDS, minimum=2)))

    def inputs(self, index):
        """The batch for one job; batches are drawn in job order."""
        batch = []
        for codec in self.codecs.values():
            batch += self._seeded(self.rng, codec, self.seen)
        batch += self._fault_queries(index)
        self.rng.shuffle(batch)
        return batch

    def _distinct(self, seen, make):
        while True:
            query = make()
            if query not in seen:
                seen.add(query)
                return query

    def _seeded(self, rng, c, seen):
        queries = []
        for length in ADMISSIBLE_LENGTHS:
            n = length or c.size
            queries.append(self._distinct(seen, lambda: ("set", c.name, c.code(c.config(rng), n), False)))
        for n in FORBIDDEN_LENGTHS:
            def forbidden_word():
                ones = c.config(rng)
                pairs = [m for m in range(n) if c.address.get(c.arith.mul(c.elems[m], c.x), n) < n]
                b = rng.choice(pairs)
                ones |= {c.elems[b], c.arith.mul(c.elems[b], c.x)}
                return ("set", c.name, c.code(ones, n), True)
            queries.append(self._distinct(seen, forbidden_word))
        for n in ACTION_LENGTHS:
            for flip in (False, True):
                def action_pair():
                    s = rng.choice(c.symbols)
                    ones = c.config(rng)
                    w = c.code(ones, n)
                    v = c.translate(s, ones, n)
                    if flip:
                        k = rng.choice([k for k in map(lambda m: c.paired(s, m), range(n)) if k is not None and k < n])
                        v = v[:k] + ("1" if v[k] == "0" else "0") + v[k + 1 :]
                    return ("action", c.name, (s, v, w), flip)
                queries.append(self._distinct(seen, action_pair))
        return queries

    def _fault_queries(self, index):
        """Seed-independent whole-ball queries that meet the pair-loop fault."""
        out = []
        for name in ("Z2", "F2"):
            c = self.codecs[name]
            ones = {c.arith.identity(), c.x, c.elems[10 + index % (c.size - 10)]}
            out.append(("set", name, c.code(ones, c.size), True))
        c = self.codecs["Z2"]
        ones = {c.elems[10 + index % (c.size - 10)]}
        w = c.code(ones, c.size)
        v = c.translate("x", ones, c.size)
        k = c.paired("x", 0)
        v = v[:k] + ("1" if v[k] == "0" else "0") + v[k + 1 :]
        out.append(("action", "Z2", ("x", v, w), True))
        return out

    def describe(self, index):
        return f"batch {index}"

    def run(self, job):
        verdicts = []
        for kind, name, word, _ in job:
            c = self.codecs[name]
            if kind == "set":
                verdicts.append(c.X.query(word, BUDGET))
            else:
                verdicts.append(c.T.query(*word, BUDGET))
        return verdicts

    def check(self, job, verdicts):
        failed = 0
        for (kind, name, word, empty), verdict in zip(job, verdicts):
            c = self.codecs[name]
            if kind == "set":
                n = min(len(word), c.size)
                ones = {c.elems[m] for m in range(n) if word[m] == "1"}
                truth = reference.golden_violated(c.arith, set(c.elems[:n]), ones)
                require(truth == empty, f"benchmark mislabelled a {name} set query")
                linear_pass = n + len(FORBIDDEN) * c.size
            else:
                s, v, w = word
                require(self._action_empty(c, s, v, w) == empty, f"benchmark mislabelled a {name} action query")
                linear_pass = len(v) + 2 * len(w) + len(FORBIDDEN) * c.size
            certified = verdict is effective.Verdict.CERTIFIED_EMPTY
            require(empty or not certified, f"{kind} query on {name}: CertifiedEmpty on an admissible word")
            if empty and not certified and BUDGET >= linear_pass:
                failed += 1
        return len(job), failed

    @staticmethod
    def _action_empty(c, s, v, w):
        """Is [v] ∩ s·([w] ∩ X) empty?

        A point z of X must carry w at the addresses and v at their
        s⁻¹-translates; it exists unless these disagree or put 1 at both
        h and h·x somewhere, since zeros extend any other pattern.
        """
        inv = c.arith.element((reference.inverse_symbol(s),))
        z = {c.elems[m]: bit for m, bit in enumerate(w)}
        for n, bit in enumerate(v):
            if z.setdefault(c.arith.mul(inv, c.elems[n]), bit) != bit:
                return True
        ones = {e for e, bit in z.items() if bit == "1"}
        return any(c.arith.mul(e, c.x) in ones for e in ones)
