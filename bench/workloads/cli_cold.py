"""cli-cold: one job is one fresh `python -m groupshift.cli` invocation.

Jobs cycle through a fixed script of invocations that covers every
subcommand family.  Reports that carry an artifact (a cover's grid, a
witness patch, a colouring) are fed back in as inputs, as users do.
Set-up writes the seeded descriptor files.  Children run one at a time;
each report is checked after its child has exited, and every report of a
later cycle must equal the same report of the first cycle byte for byte.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

import groupshift.cli  # noqa: F401  (set-up pays for the import, as a user does)

import reference
from reference import require
from workloads import Base

CYCLE_SECONDS = 5.0
Z = {"kind": "free_abelian", "rank": 1}
GOLDEN_SFT = {
    "alphabet": ["0", "1"],
    "allowed_h": [["0", "0"], ["0", "1"], ["1", "0"]],
    "allowed_v": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
}
GOLDEN_LINE = {"group": Z, "alphabet": ["0", "1"], "forbidden": [[["", "1"], ["x", "1"]]]}
CODEC_RADIUS = 4
WITNESS_GRID = 10
SEED_GRID = 4
COLOR_RADIUS = 10
COVER_RADIUS = 5
COVER_MARGIN = 2


def _word(k):
    return " ".join(["x"] * k if k >= 0 else ["x-"] * -k)


def _line_grid(radius):
    """Descriptor of the line grid on the Z ball: left x-, right x."""
    words, _, _ = reference.shortlex_ball(reference.AbelianArith(1), radius)
    return {
        "group": Z,
        "radius": radius,
        "labels": {" ".join(w): ["x-", "x"] for w in words},
    }


def _spread(bits, start, length):
    """Bit n on positions j ≡ 3ⁿ (mod 3ⁿ⁺¹), filler elsewhere."""
    out = []
    for j in range(start, start + length):
        n, power, sym = 0, 1, "␣"
        while j and power <= 2 * abs(j):
            if j % (3 * power) == power:
                sym = bits[n]
                break
            n, power = n + 1, power * 3
        out.append(sym)
    return "".join(out)


class Workload(Base):
    work_in_children = True

    def __init__(self, seed, seconds, rundir):
        super().__init__(seed, seconds, rundir)
        rng = random.Random(seed)
        self.dir = os.path.join(rundir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.facts = {}
        self.script = self._script(rng)
        cycles = self.cycles(seconds, CYCLE_SECONDS, minimum=2)
        self.jobs = [(c, i) for c in range(cycles) for i in range(len(self.script))]
        self.first = {}
        self.child_times = {}
        self.trace_files = []

    def _file(self, name, obj):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _script(self, rng):
        """(subcommand, argv with {in:NAME}/{out:NAME} report placeholders, exit code)."""
        f = self.facts
        z = self._file("z.json", Z)
        grig = self._file("grig.json", {"kind": "grigorchuk"})
        sft = self._file("golden_sft.json", GOLDEN_SFT)
        line = self._file("golden_line.json", GOLDEN_LINE)
        ctx = self._file("ctx.json", {"subshift": GOLDEN_LINE, "radius": CODEC_RADIUS})

        # planar patches: rows of 0/1, horizontally golden, and a partial one
        rows = [[rng.choice("00001") for _ in range(5)] for _ in range(4)]
        for row in rows:
            for i in range(1, len(row)):
                if row[i - 1] == "1":
                    row[i] = "0"
        patch = self._file("patch.json", {"origin": [0, 0], "rows": rows})
        partial_rows = [[c if rng.random() < 0.5 else None for c in row] for row in rows]
        partial = self._file("partial.json", {"origin": [0, 0], "rows": partial_rows})
        f["partial"] = partial_rows

        # oracle words on the Z codec: one forbidden, one admissible
        arith = reference.AbelianArith(1)
        _, elems, _ = reference.shortlex_ball(arith, 16)
        ones = reference.golden_config(rng, arith, 17)
        admissible = reference.coding(elems, ones, 30)
        b = rng.randrange(10)
        forbidden = reference.coding(elems, ones | {elems[b], arith.mul(elems[b], (1,))}, 21)
        f["oracle"] = {"forbidden": forbidden, "admissible": admissible}

        # Toeplitz words
        prefix = "".join(rng.choice("01") for _ in range(4))
        start = rng.randrange(-20, 20)
        window_bits = "".join(rng.choice("01") for _ in range(4))
        window = _spread(window_bits, rng.randrange(-20, 20), 27)
        f["toeplitz"] = (prefix, start, window_bits)

        # grid seeding: two line grids and a planar configuration over them
        g1 = self._file("seed_g1.json", _line_grid(SEED_GRID))
        g2 = self._file("seed_g2.json", _line_grid(SEED_GRID))
        span = 2 * SEED_GRID + 1
        config_rows = [[rng.choice("01") for _ in range(span)] for _ in range(span)]
        config = self._file("config.json", {"origin": [-SEED_GRID, -SEED_GRID], "rows": config_rows})
        f["config"] = config_rows

        # witness inputs: prefixes of a seeded golden configuration on Z
        _, codec_elems, _ = reference.shortlex_ball(arith, CODEC_RADIUS)
        shell_words, shell_elems, _ = reference.shortlex_ball(arith, 2)
        cfg = reference.golden_config(rng, arith, 6)
        prefixes = {
            " ".join(w): "".join("1" if arith.mul(g, codec_elems[m]) in cfg else "0" for m in range(7))
            for w, g in zip(shell_words, shell_elems)
        }
        pref = self._file("prefixes.json", prefixes)
        w1 = self._file("wit_g1.json", _line_grid(WITNESS_GRID))
        w2 = self._file("wit_g2.json", _line_grid(WITNESS_GRID))
        base_words, base_elems, _ = reference.shortlex_ball(arith, 1)
        expected = {" ".join(w): ("1" if e in cfg else "0") for w, e in zip(base_words, base_elems)}
        pattern = self._file("expected.json", expected)
        f["prefix0"] = prefixes[""]

        wp_word = " ".join(rng.choice("abcd") for _ in range(rng.randint(4, 12)))
        f["wp"] = wp_word

        return [
            ("ball", ["ball", "--group", grig, "--radius", "4"], 0),
            ("wp", ["wp", "--group", grig, "--word", wp_word], 0),
            ("nn check", ["nn", "check", "--sft", sft, "--patch", patch], 0),
            ("nn extend", ["nn", "extend", "--sft", sft, "--patch", partial], 0),
            ("oracle query", ["oracle", "query", "--subshift", line, "--word", forbidden,
                              "--budget", "10000", "--radius", "10"], 1),
            ("oracle query", ["oracle", "query", "--subshift", line, "--word", admissible,
                              "--budget", "10000"], 0),
            ("toeplitz encode", ["toeplitz", "encode", "--prefix", prefix, "--from", str(start),
                                 "--len", "27"], 0),
            ("toeplitz decode", ["toeplitz", "decode", "--word", window], 0),
            ("grid cover", ["grid", "cover", "--group", grig, "--radius", str(COVER_RADIUS),
                            "--margin", str(COVER_MARGIN),
                            "--seed", "0", "--out", "{out:cover}"], 0),
            ("grid check", ["grid", "check", "--grid", "{in:cover}"], 0),
            ("grid trace", ["grid", "trace", "--grid", "{in:cover}", "--cell", ""], 0),
            ("grid seed", ["grid", "seed", "--grid1", g1, "--grid2", g2, "--config", config], 0),
            ("final witness", ["final", "witness", "--ctx", ctx, "--group", z, "--radius", "1",
                               "--prefixes", pref, "--grid1", w1, "--grid2", w2,
                               "--out", "{out:witness}"], 0),
            ("final check", ["final", "check", "--ctx", ctx, "--patch", "{in:witness}"], 0),
            ("final phi", ["final", "phi", "--ctx", ctx, "--patch", "{in:witness}", "--depth", "1"], 0),
            ("final project", ["final", "project", "--ctx", ctx, "--patch", "{in:witness}",
                               "--pattern", pattern], 0),
            ("aperiodic color", ["aperiodic", "color", "--group", z, "--radius", str(COLOR_RADIUS),
                                 "-k", "3", "--maxlen", "10", "--out", "{out:color}"], 0),
            ("aperiodic verify", ["aperiodic", "verify", "--coloring", "{in:color}", "--maxlen", "10"], 0),
            ("aperiodic probe", ["aperiodic", "probe", "--coloring", "{in:color}", "--coloring",
                                 "{in:color}", "--coloring", "{in:color}", "--length-limit", "1",
                                 "--square-length", "10"], 0),
        ]

    def quick(self):
        """Two cycles of three independent invocations."""
        keep = [i for i, entry in enumerate(self.script) if entry[0] in ("ball", "wp", "toeplitz encode")]
        self.jobs = [(c, i) for c in range(2) for i in keep]

    def prepare(self):
        self.grig = reference.grigorchuk_perms(COVER_RADIUS)
        self.grig_distance = reference.grigorchuk_distances(self.grig, COVER_RADIUS)

    def describe(self, job):
        cycle, i = job
        return f"cycle {cycle}, groupshift {self.script[i][0]}"

    def _argv(self, cycle, i):
        """Concrete argv and report path for one script entry."""
        out_dir = os.path.join(self.dir, f"cycle{cycle}")
        os.makedirs(out_dir, exist_ok=True)
        argv = []
        for arg in self.script[i][1]:
            if arg.startswith("{in:") or arg.startswith("{out:"):
                arg = os.path.join(out_dir, arg.split(":")[1][:-1] + ".json")
            argv.append(arg)
        report = os.path.join(out_dir, f"{i:02d}.json")
        if "--out" not in argv:
            argv += ["--out", report]
        else:
            report = argv[argv.index("--out") + 1]
        return argv, report

    def inputs(self, job):
        cycle, i = job
        argv, report = self._argv(cycle, i)
        if self.tracing:
            dump = os.path.join(self.dir, f"trace-{cycle}-{i}.json")
            self.trace_files.append((f"{cycle}:{i}", dump))
            cmd = [sys.executable, os.path.join(os.path.dirname(reference.__file__), "clitrace.py"), dump]
        else:
            cmd = [sys.executable, "-m", "groupshift.cli"]
        return job, cmd + argv, report

    def run(self, job):
        _, cmd, _ = job
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        return proc, time.perf_counter() - started

    def check(self, job, output):
        (_, i), _, report_path = job
        proc, elapsed = output
        name, _, expected_code = self.script[i]
        self.child_times.setdefault(name, []).append(elapsed)
        require(proc.returncode == expected_code,
                f"exit {proc.returncode}, expected {expected_code}: {proc.stderr.decode()[-300:]}")
        with open(report_path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        require(report.get("schema") == "groupshift/1", "report lacks the groupshift/1 tag")
        if i in self.first:
            require(raw == self.first[i], "report differs from the first cycle's")
        else:
            self.first[i] = raw
            self._check_content(name, report)
        return 1, 0

    def _check_content(self, name, r):
        f = self.facts
        if name == "ball":
            elems = {self.grig.element(w.split()) for w in r["elements"]}
            require(r["size"] == len(elems) == sum(self.grig.sphere_sizes(4)), "Grigorchuk ball size is wrong")
        elif name == "wp":
            identity = self.grig.element(f["wp"].split()) == self.grig.identity_perm
            require(r["verdict"] == ("Identity" if identity else "NotIdentity"), "wp verdict is wrong")
        elif name == "nn check":
            require(r["violations"] == [] and r["satisfied"] + r["unchecked"] == 2 * 4 * 5,
                    "nn check flags a golden patch or miscounts its dominoes")
        elif name == "nn extend":
            rows = r["patch"]["rows"]
            for y, row in enumerate(rows):
                for x, sym in enumerate(row):
                    given = f["partial"][y][x]
                    require(given is None or given == sym, "extension changed a given cell")
                    require(not (x and row[x - 1] == "1" and sym == "1"), "extension breaks the SFT")
        elif name == "oracle query":
            forbidden = r["word"] == f["oracle"]["forbidden"]
            require(r["verdict"] == ("CertifiedEmpty" if forbidden else "Unknown"), "oracle verdict is wrong")
        elif name == "toeplitz encode":
            prefix, start, _ = f["toeplitz"]
            require(r["word"] == _spread(prefix, start, 27), "encoded word is wrong")
        elif name == "toeplitz decode":
            require(r["prefix"] == f["toeplitz"][2][:3], "decoded prefix is wrong")
        elif name == "grid cover":
            cells = list(self.grig_distance)
            index = {perm: k for k, perm in enumerate(cells)}

            def cell(word):
                return index[self.grig.element(word.split())]

            reference.check_cover(
                {cell(h): cell(t) for h, t in r["succ"].items()},
                {cell(h): cell(t) for h, t in r["pred"].items()},
                [self.grig_distance[perm] for perm in cells],
                COVER_RADIUS,
                COVER_MARGIN,
                lambda h, t: any(self.grig.mul(cells[h], s) == cells[t] for s in "abcd"),
            )
            require(r["problems"] == [] and "grid" in r, "cover report carries problems or no grid")
        elif name in ("grid check", "final check", "aperiodic verify"):
            require(r["violations"] == [], f"{name} reports violations on a valid input")
        elif name == "grid trace":
            require(r["kind"] in ("Path", "LeftBall"), "trace of an acyclic cover found a cycle")
        elif name == "grid seed":
            for h1, row in r["y"].items():
                for h2, sym in row.items():
                    x = reference.z_coordinate(h1.split()) + SEED_GRID
                    y = reference.z_coordinate(h2.split()) + SEED_GRID
                    require(sym == f["config"][y][x], "seeded grid does not reproduce the configuration")
        elif name == "final witness":
            require("patch" in r, "witness report has no patch")
        elif name == "final phi":
            require(r["prefix"] == f["prefix0"][:2], "factor map prefix is wrong")
        elif name == "final project":
            require(r["matches"] is True, "projection does not match the configuration")
        elif name == "aperiodic color":
            colors = r["coloring"]["colors"]
            sequence = [colors[_word(k)] for k in range(-COLOR_RADIUS, COLOR_RADIUS + 1)]
            reference.check_square_free(sequence, 10)
            f["colors"] = {k: colors[_word(k)] for k in range(-COLOR_RADIUS, COLOR_RADIUS + 1)}
        elif name == "aperiodic probe":
            maps = [f["colors"]] * 3
            for entry in r["entries"]:
                shifts = [reference.z_coordinate(c.split()) for c in entry["components"]]
                require(entry["status"] == reference.probe_status(maps, shifts), "probe verdict is wrong")
            require(r["factor_violations"] == [0, 0, 0] and r["ok"] is True, "probe flags a square-free factor")

    # -- traced runs -------------------------------------------------------

    def child_traces(self):
        """Sum the children's totals and self times; their spans get the job
        as "cycle:entry" and parent ids shifted past the spans merged before."""
        totals, self_s, spans = {}, {}, []
        for job, path in self.trace_files:
            with open(path, encoding="utf-8") as fh:
                dump = json.load(fh)
            for into, part in ((totals, dump["totals"]), (self_s, dump["self_s"])):
                for name, value in part.items():
                    into[name] = into.get(name, 0) + value
            offset = len(spans)
            for stem, start, end, parent, _ in dump["spans"]:
                spans.append((stem, start, end, None if parent is None else parent + offset, job))
        return totals, self_s, spans

    def trace_metrics(self):
        return {
            f"cli.cmd.{name.replace(' ', '_')}_s": {"value": statistics.median(times), "unit": "s"}
            for name, times in self.child_times.items()
        }
