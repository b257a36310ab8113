"""Per-layer tracing from outside the program.

Wrappers defined here go around public functions and methods of the
groupshift modules.  Each wrapper is patched in wherever callers look the
original up: every module attribute bound to the original object, and the
class attribute for methods.  Spans (name, start, end, parent span, job)
and counts stay in memory until the run ends.  Hot leaf calls (word
problem, resolve, oracle queries, window tests, decodes, grid reads,
budget steps) are aggregated instead of kept as single spans, so a traced
run keeps a bounded amount of memory.  Self time is a span minus its
child spans, so it includes the time of hot calls made inside it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import reference

# (metric-name stem, where to find the callable, count metric, hot)
#   where: "module:function" or "module:Class.method"; "groups:*.is_identity"
#   means every GroupOracle class that defines is_identity itself.
TIMED = (
    ("groups.wp", "groupshift.groups:*.is_identity", "groups.wp_calls", True),
    ("groups.ball", "groupshift.groups:cayley_ball", None, False),
    ("groups.resolve", "groupshift.groups:CayleyBall.resolve", "groups.resolve_calls", True),
    ("effective.set_query", "groupshift.effective:SetOracle.query", "effective.set_queries", True),
    ("effective.action_query", "groupshift.effective:ActionOracle.query", "effective.action_queries", True),
    ("toeplitz.window_test", "groupshift.toeplitz:top1d_forbidden", "toeplitz.window_tests", True),
    ("toeplitz.decode", "groupshift.toeplitz:decode_procedure", "toeplitz.decodes", True),
    ("grid.cover", "groupshift.grid:path_cover_search", "grid.covers", False),
    ("grid.matching", "networkx:max_weight_matching", "grid.matchings", False),
    ("grid.local_check", "groupshift.grid:check_grid_local", "grid.local_checks", False),
    ("grid.local_check", "groupshift.grid:grid_y_check", "grid.local_checks", False),
    ("grid.read", "groupshift.grid:read_grid", None, True),
    ("grid.seed", "groupshift.grid:seed_grid_from_config", None, False),
    ("assembly.F1", "groupshift.assembly:check_F1", None, False),
    ("assembly.F2", "groupshift.assembly:check_F2", None, False),
    ("assembly.F3", "groupshift.assembly:check_F3", None, False),
    ("assembly.F4", "groupshift.assembly:check_F4", None, False),
    ("assembly.witness", "groupshift.assembly:witness_construct", None, False),
    ("assembly.phi", "groupshift.assembly:factor_phi", None, False),
    ("assembly.project", "groupshift.assembly:hat_phi_project", None, False),
    ("aperiodic.search", "groupshift.aperiodic:square_free_search", None, False),
    ("aperiodic.verify", "groupshift.aperiodic:square_free_verify", None, False),
    ("aperiodic.probe", "groupshift.aperiodic:product_aperiodicity_probe", None, False),
    ("aperiodic.compare", "groupshift.aperiodic:period_comparisons", None, True),
    ("shiftcore.nn", "groupshift.shiftcore:check_patch_nn", None, False),
    ("shiftcore.nn", "groupshift.shiftcore:patch_extension_search", None, False),
)

IMPORT_REPEATS = 5
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

GOLDEN = [((), "1"), (("x",), "1")]
AFTER = ("grid.cover", "aperiodic.compare", "effective.set_query")


class Tracer:
    def __init__(self):
        self.job = None
        self.stack = []  # frames: [name, start, child time, span id]
        self.active = Counter()  # nesting depth per name
        self.inclusive = defaultdict(float)  # outermost calls only
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self._arith = {}

    # -- wrappers ----------------------------------------------------------

    def timed(self, stem, original, count_name, hot):
        """Wrapper that times outermost calls of `stem` and counts them."""
        if hot:
            return self._hot(stem, original, count_name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][3] if tracer.stack else None
            span = len(tracer.spans)
            tracer.spans.append(None)
            frame = [stem, time.perf_counter(), 0.0, span]
            tracer.stack.append(frame)
            tracer.active[stem] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.active[stem] -= 1
                duration = end - frame[1]
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                tracer.self_time[stem] += duration - frame[2]
                if not tracer.active[stem]:
                    tracer.inclusive[stem] += duration
                    if count_name:
                        tracer.counts[count_name] += 1
                tracer.spans[span] = (stem, frame[1], end, parent, tracer.job)
            tracer.after(stem, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _hot(self, stem, original, count_name):
        """Cheaper wrapper for leaf calls made millions of times: no span,
        no stack; nested calls of the same stem pass straight through."""
        tracer = self
        active, inclusive, counts = self.active, self.inclusive, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[stem]:
                return original(*args, **kwargs)
            active[stem] = 1
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                inclusive[stem] += clock() - started
                active[stem] = 0
            if count_name:
                counts[count_name] += 1
            if stem in AFTER:
                tracer.after(stem, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def after(self, stem, args, result):
        if stem == "grid.cover" and type(result).__name__ == "PathCover":
            self.counts["grid.covers_found"] += 1
        elif stem == "aperiodic.compare":
            self.counts["aperiodic.cells_compared"] += len(result)
        elif stem == "effective.set_query":
            self._score_set_query(args, result)

    def _score_set_query(self, args, result):
        """Count exactly-empty golden-mean queries and the certified ones."""
        oracle, word = args[0], args[1]
        codec = getattr(oracle, "codec", None)
        forbidden = getattr(oracle, "forbidden", None)
        if codec is None or codec.kappa != 1 or forbidden is None:
            return
        if len(forbidden) != 1 or sorted(forbidden[0]) != GOLDEN:
            return
        if codec.upsilon != {"0": "0", "1": "1"}:
            return
        desc = codec.group.descriptor
        key = (desc.get("kind"), desc.get("rank"), codec.ball.radius)
        if key not in self._arith:
            if key[0] == "free_abelian":
                arith = reference.AbelianArith(key[1])
            elif key[0] == "free":
                arith = reference.FreeArith(key[1])
            else:
                self._arith[key] = None
                return
            self._arith[key] = (arith, reference.shortlex_ball(arith, key[2])[1])
        entry = self._arith[key]
        if entry is None:
            return
        arith, elems = entry
        count = min(len(word), len(elems))
        ones = {elems[m] for m in range(count) if word[m] == "1"}
        if reference.golden_violated(arith, set(elems[:count]), ones):
            self.counts["effective.exactly_empty"] += 1
            if result.value == "CertifiedEmpty":
                self.counts["effective.certified_exact"] += 1

    def spend_wrapper(self, original):
        counts = self.counts

        def spend(budget, steps=1):
            granted = original(budget, steps)
            if granted:
                counts["effective.steps"] += steps
            return granted

        spend.__wrapped__ = original
        return spend

    # -- results -----------------------------------------------------------

    def totals(self):
        """Raw sums, additive across processes."""
        out = dict(self.counts)
        for stem, seconds in self.inclusive.items():
            out[stem + "_s"] = out.get(stem + "_s", 0.0) + seconds
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "totals": self.totals(),
                    "self_s": dict(self.self_time),
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(totals, extra):
    """Every per_layer metric of BENCHMARK.json, by its name and unit there,
    from summed raw totals and the figures a workload reports itself
    (cli.*).  A layer a workload does not exercise reads 0."""
    def ratio(num, den):
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

    derived = dict(totals)
    derived["effective.certified_ratio"] = ratio("effective.certified_exact", "effective.exactly_empty")
    derived["grid.cover_found_ratio"] = ratio("grid.covers_found", "grid.covers")
    derived.update((name, metric["value"]) for name, metric in extra.items())
    with open(BENCHMARK, encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    return {m["name"]: {"value": derived.get(m["name"], 0), "unit": m["unit"]} for m in per_layer}


def import_times():
    """Median cumulative import time of groupshift.cli and of networkx,
    from `python -X importtime` in fresh interpreters."""
    samples = {"cli.import_s": [], "cli.import_networkx_s": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import groupshift.cli"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        samples["cli.import_s"].append(cumulative["groupshift.cli"])
        samples["cli.import_networkx_s"].append(cumulative.get("networkx", 0.0))
    return {name: {"value": statistics.median(v), "unit": "s"} for name, v in samples.items()}


def _resolve(where):
    module_name, _, attr = where.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    if "." not in attr:
        return [(module, attr, getattr(module, attr))]
    cls_name, method = attr.split(".")
    if cls_name != "*":
        cls = getattr(module, cls_name)
        return [(cls, method, cls.__dict__[method])]
    base = module.GroupOracle
    return [
        (cls, method, cls.__dict__[method])
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, base) and method in cls.__dict__
    ]


def install():
    """Patch every wrapper in; returns the Tracer collecting the results."""
    tracer = Tracer()
    for stem, where, count_name, hot in TIMED:
        for owner, attr, original in _resolve(where):
            wrapped = tracer.timed(stem, original, count_name, hot)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if module is None:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
    import groupshift.effective as effective

    effective.Budget.spend = tracer.spend_wrapper(effective.Budget.spend)
    return tracer
