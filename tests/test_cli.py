"""End-to-end command-line tests: reports, exit codes, determinism."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import groupshift
from groupshift import cli, groups
from groupshift.aperiodic import (
    ColoredBall,
    colored_ball_from_descriptor,
    colored_ball_to_descriptor,
)
from groupshift.assembly import (
    final_patch_from_descriptor,
    final_patch_to_descriptor,
    standard_context,
)
from groupshift.cli import main
from groupshift.effective import (
    make_codec,
    rho_action_oracle,
    rho_set_oracle,
    subshift_from_descriptor,
)
from groupshift.errors import SchemaError
from groupshift.grid import (
    GridLabel,
    GridPatch,
    PathCover,
    check_grid_local,
    from_translation_action,
    grid_patch_from_descriptor,
    grid_patch_to_descriptor,
    grid_y_check,
)
from groupshift.groups import FreeAbelianOracle, cayley_ball, format_word
from groupshift.shiftcore import Alphabet

Z = {"kind": "free_abelian", "rank": 1}

GOLDEN_SFT = {
    "alphabet": ["0", "1"],
    "allowed_h": [["0", "0"], ["0", "1"], ["1", "0"]],
    "allowed_v": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
}

GOLDEN_SUBSHIFT = {
    "group": Z,
    "alphabet": ["0", "1"],
    "forbidden": [[["", "1"], ["x", "1"]]],
}

SWAP_GROUP = {
    "kind": "mealy",
    "states": ["q"],
    "transition": {"q": {"0": "q", "1": "q"}},
    "output": {"q": {"0": "1", "1": "0"}},
    "generators": {"t": ["q"]},
}

# 27 positions of the three-bit word "010", positions 0..26.
SPREAD_010 = "␣0␣10␣␣0␣00␣10␣␣0␣␣0␣10␣␣0␣"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    obj = json.loads(out)
    assert obj["schema"] == "groupshift/1"
    return obj


@pytest.fixture
def ball_builds(monkeypatch):
    """(group descriptor, radius) of every `cayley_ball` call in the package."""
    calls = []
    build = groups.cayley_ball

    def counted(oracle, radius, *rest):
        calls.append((json.dumps(oracle.descriptor), radius))
        return build(oracle, radius, *rest)

    for name, module in list(sys.modules.items()):
        if name.startswith("groupshift") and getattr(module, "cayley_ball", None) is build:
            monkeypatch.setattr(module, "cayley_ball", counted)
    return calls


def line_grid_descriptor(radius):
    ball = cayley_ball(FreeAbelianOracle(1), radius)
    succ = {h: ball.elements[h] + ("x",) for h in range(len(ball))}
    pred = {h: ball.elements[h] + ("x-",) for h in range(len(ball))}
    return grid_patch_to_descriptor(from_translation_action(ball, succ, pred))


def parity_prefixes(codec_radius=4, g_radius=1, length=7):
    codec = make_codec(FreeAbelianOracle(1), Alphabet(("0", "1")), codec_radius)
    shell = cayley_ball(FreeAbelianOracle(1), g_radius + 1)

    def pos(word):
        return word.count("x") - word.count("x-")

    slots = [pos(codec.ball.elements[m]) for m in range(length)]
    out = {}
    for word in shell.elements:
        base = pos(word)
        out[format_word(word)] = "".join(str((base + q) % 2) for q in slots)
    return out


# ---------------------------------------------------------------------------
# group commands


def test_ball_report_and_dot(tmp_path, capsys):
    group = write(tmp_path, "z.json", Z)
    dot = tmp_path / "ball.dot"
    code, out, _ = run_cli(
        capsys, ["ball", "--group", group, "--radius", "2", "--dot", str(dot)]
    )
    assert code == 0
    obj = report(out)
    assert obj["command"] == "ball"
    assert obj["size"] == 5
    assert obj["elements"][0] == ""
    assert "x x" in obj["elements"]
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph ball {")
    assert '[label="x"]' in text


def test_wp_verdicts(tmp_path, capsys):
    group = write(tmp_path, "f.json", {"kind": "free", "rank": 1})
    code, out, _ = run_cli(
        capsys, ["wp", "--group", group, "--word", "x x-", "--format", "text"]
    )
    assert code == 0
    assert out == "Identity\n"
    code, out, _ = run_cli(capsys, ["wp", "--group", group, "--word", "x"])
    assert code == 0
    assert report(out)["verdict"] == "NotIdentity"


# ---------------------------------------------------------------------------
# planar SFT commands


def test_nn_check_counts_every_adjacency(tmp_path, capsys):
    sft = write(tmp_path, "sft.json", GOLDEN_SFT)
    patch = write(
        tmp_path, "patch.json", {"origin": [0, 0], "rows": [["1", "1"], ["0", None]]}
    )
    code, out, _ = run_cli(capsys, ["nn", "check", "--sft", sft, "--patch", patch])
    assert code == 1
    obj = report(out)
    assert obj["violations"] == [[[0, 0], "h", "1", "1"]]
    assert obj["satisfied"] == 1
    assert obj["unchecked"] == 6


def test_nn_extend_completion_and_dead_end(tmp_path, capsys):
    sft = write(tmp_path, "sft.json", GOLDEN_SFT)
    patch = write(
        tmp_path, "patch.json", {"origin": [0, 0], "rows": [["1", None, "1"]]}
    )
    code, out, _ = run_cli(capsys, ["nn", "extend", "--sft", sft, "--patch", patch])
    assert code == 0
    assert report(out)["patch"]["rows"] == [["1", "0", "1"]]

    strict = write(
        tmp_path,
        "strict.json",
        {
            "alphabet": ["0", "1"],
            "allowed_h": [["0", "1"]],
            "allowed_v": [["0", "0"], ["1", "1"]],
        },
    )
    stuck = write(
        tmp_path, "stuck.json", {"origin": [0, 0], "rows": [["0", None, "0"]]}
    )
    code, out, _ = run_cli(capsys, ["nn", "extend", "--sft", strict, "--patch", stuck])
    assert code == 1
    assert report(out)["patch"] is None


# ---------------------------------------------------------------------------
# effectiveness commands


def test_oracle_query_verdicts(tmp_path, capsys):
    subshift = write(tmp_path, "sub.json", GOLDEN_SUBSHIFT)
    code, out, _ = run_cli(
        capsys,
        ["oracle", "query", "--subshift", subshift, "--word", "11", "--budget", "100000"],
    )
    assert code == 1
    obj = report(out)
    assert obj["verdict"] == "CertifiedEmpty"
    assert obj["radius"] >= 1

    code, out, _ = run_cli(
        capsys,
        [
            "oracle",
            "query",
            "--subshift",
            subshift,
            "--word",
            "01",
            "--budget",
            "100000",
            "--format",
            "text",
        ],
    )
    assert code == 0
    assert out == "Unknown\n"


def test_oracle_query_grows_the_smallest_ball_that_fits(tmp_path, capsys, ball_builds):
    # Without --radius the report names the smallest radius, at most 16, whose
    # ball has an address for every block of the word: 2r + 1 >= |word| on Z.
    subshift = write(tmp_path, "sub.json", GOLDEN_SUBSHIFT)
    for length, radius in ((1, 0), (2, 1), (3, 1), (4, 2), (33, 16), (40, 16)):
        argv = ["oracle", "query", "--subshift", subshift, "--word", "0" * length]
        code, out, _ = run_cli(capsys, argv + ["--budget", "10"])
        assert code == 0
        assert report(out)["radius"] == radius
    # One search grows the ball; no ball is built per radius.
    assert ball_builds == []


# ---------------------------------------------------------------------------
# Toeplitz commands


def test_toeplitz_encode_matches_known_spread(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "toeplitz",
            "encode",
            "--prefix",
            "010",
            "--from",
            "0",
            "--len",
            "27",
            "--format",
            "text",
        ],
    )
    assert code == 0
    assert out == SPREAD_010 + "\n"


def test_toeplitz_decode_word(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["toeplitz", "decode", "--word", SPREAD_010])
    assert code == 0
    assert report(out)["prefix"] == "010"

    code, out, _ = run_cli(capsys, ["toeplitz", "decode", "--word", "0" * 27])
    assert code == 1
    assert report(out)["prefix"] is None


def test_toeplitz_decode_layer_file(tmp_path, capsys):
    ok_code, ok_out, _ = run_cli(
        capsys,
        ["toeplitz", "encode", "--prefix", "011", "--from", "0", "--len", "27"],
    )
    assert ok_code == 0
    spread_011 = json.loads(ok_out)["word"]
    layers = write(tmp_path, "layers.json", {"1": spread_011, "x": SPREAD_010})
    code, out, _ = run_cli(capsys, ["toeplitz", "decode", "--file", layers])
    assert code == 0
    assert report(out)["layers"] == {"1": "011", "x": "010"}

    broken = write(tmp_path, "broken.json", {"1": spread_011, "x": "0" * 27})
    code, out, _ = run_cli(capsys, ["toeplitz", "decode", "--file", broken])
    assert code == 1
    assert report(out)["layers"]["x"] is None


# ---------------------------------------------------------------------------
# grid commands


def test_grid_check_clean_line(tmp_path, capsys):
    grid = write(tmp_path, "grid.json", line_grid_descriptor(3))
    dot = tmp_path / "grid.dot"
    code, out, _ = run_cli(capsys, ["grid", "check", "--grid", grid, "--dot", str(dot)])
    assert code == 0
    obj = report(out)
    assert obj["violations"] == []
    assert obj["satisfied"] > 0
    assert dot.read_text(encoding="utf-8").startswith("digraph grid {")


def test_grid_trace_reports_cycles(tmp_path, capsys):
    ball = cayley_ball(FreeAbelianOracle(1), 1)
    lazy = GridPatch(ball, {h: GridLabel("1", "1") for h in range(len(ball))})
    grid = write(tmp_path, "lazy.json", grid_patch_to_descriptor(lazy))
    code, out, _ = run_cli(capsys, ["grid", "check", "--grid", grid])
    assert code == 0  # self-loops are locally blameless; the trace exposes them
    code, out, _ = run_cli(capsys, ["grid", "trace", "--grid", grid, "--cell", ""])
    assert code == 1
    obj = report(out)
    assert obj["kind"] == "Cycle"
    assert obj["cycle_length"] == 1

    line = write(tmp_path, "line.json", line_grid_descriptor(2))
    code, out, _ = run_cli(capsys, ["grid", "trace", "--grid", line, "--cell", "x-"])
    assert code == 0
    obj = report(out)
    assert obj["kind"] == "LeftBall"
    assert obj["cells"] == ["x-", "", "x", "x x"]


def test_grid_cover_fails_on_order_two_group(tmp_path, capsys):
    group = write(tmp_path, "swap.json", SWAP_GROUP)
    code, out, _ = run_cli(
        capsys, ["grid", "cover", "--group", group, "--radius", "2", "--margin", "1"]
    )
    assert code == 1
    assert "no valid cover" in report(out)["failure"]


def test_grid_cover_reports_a_cover_it_cannot_label(tmp_path, capsys):
    # At radius 16 the Grigorchuk cover passes `validate`, but a path starts
    # at a cell whose generator edges all stay in the ball: no label fits it.
    group = write(tmp_path, "grig.json", {"kind": "grigorchuk"})
    dot = tmp_path / "cover.dot"
    argv = ["grid", "cover", "--group", group, "--radius", "16", "--dot", str(dot)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1
    obj = report(out)
    assert obj["problems"] == ["cell 3313 has no mapping and no outward edge"]
    assert "grid" not in obj
    assert not dot.exists()


def test_grid_cover_lists_the_labelling_error_after_validate_problems(
    tmp_path, capsys, monkeypatch
):
    # A cover that fails `validate` and cannot be labelled reports both.
    search = cli.path_cover_search

    def broken(ball, margin, seed=0):
        cover = search(ball, margin, seed)
        succ = {h: t for h, t in cover.succ.items() if h != 0}
        return PathCover(ball, succ, cover.pred)

    monkeypatch.setattr(cli, "path_cover_search", broken)
    group = write(tmp_path, "z.json", Z)
    dot = tmp_path / "cover.dot"
    argv = ["grid", "cover", "--group", group, "--radius", "4", "--dot", str(dot)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1
    obj = report(out)
    problems = obj["problems"]
    assert "interior cell 0 is a path endpoint" in problems
    assert problems[-1] == "cell 0 has no mapping and no outward edge"
    assert "grid" not in obj
    assert not dot.exists()


def test_grid_label_pair_must_hold_two_symbols(tmp_path, capsys):
    grid = line_grid_descriptor(2)
    grid["labels"][""] = [["x-"], "x"]
    path = write(tmp_path, "grid.json", grid)
    for argv in (["grid", "check", "--grid", path], ["grid", "trace", "--grid", path]):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "grid.labels['']" in err


def test_patch_origin_must_hold_two_integers(tmp_path, capsys):
    sft = write(tmp_path, "sft.json", GOLDEN_SFT)
    patch = write(tmp_path, "patch.json", {"origin": ["a", 0], "rows": [["1", "0"]]})
    code, _, err = run_cli(capsys, ["nn", "check", "--sft", sft, "--patch", patch])
    assert code == 2
    assert "patch.origin" in err


def test_grid_cover_line_feeds_grid_check(tmp_path, capsys):
    group = write(tmp_path, "z.json", Z)
    cover_path = tmp_path / "cover.json"
    argv = [
        "grid",
        "cover",
        "--group",
        group,
        "--radius",
        "4",
        "--margin",
        "2",
        "--out",
        str(cover_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    first = cover_path.read_bytes()
    obj = json.loads(first)
    assert obj["problems"] == []
    assert "grid" in obj

    # identical seeds give byte-identical reports
    assert main(argv) == 0
    capsys.readouterr()
    assert cover_path.read_bytes() == first

    code, out, _ = run_cli(capsys, ["grid", "check", "--grid", str(cover_path)])
    assert code == 0
    assert report(out)["violations"] == []


def test_grid_seed_spreads_planar_patch(tmp_path, capsys):
    grid1 = write(tmp_path, "g1.json", line_grid_descriptor(2))
    grid2 = write(tmp_path, "g2.json", line_grid_descriptor(1))
    rows = [
        [str((x + y) % 2) for x in range(-2, 3)] for y in range(-1, 2)
    ]
    config = write(tmp_path, "config.json", {"origin": [-2, -1], "rows": rows})
    code, out, _ = run_cli(
        capsys, ["grid", "seed", "--grid1", grid1, "--grid2", grid2, "--config", config]
    )
    assert code == 0
    table = report(out)["y"]
    assert table[""][""] == "0"
    assert table["x"][""] == "1"
    assert table[""]["x"] == "1"
    assert table["x x"]["x"] == "1"


def test_grid_seed_builds_one_ball_for_both_grids(tmp_path, capsys, ball_builds):
    grid = write(tmp_path, "g.json", line_grid_descriptor(2))
    rows = [[str((x + y) % 2) for x in range(-2, 3)] for y in range(-2, 3)]
    config = write(tmp_path, "config.json", {"origin": [-2, -2], "rows": rows})
    ball_builds.clear()
    argv = ["grid", "seed", "--grid1", grid, "--grid2", grid, "--config", config]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert ball_builds == [(json.dumps(Z), 2)]


# ---------------------------------------------------------------------------
# final-assembly commands


def final_witness_argv(tmp_path, grid2_radius=2):
    """(ctx path, witness path, `final witness` argv) on written inputs."""
    ctx = write(tmp_path, "ctx.json", {"subshift": GOLDEN_SUBSHIFT, "radius": 4})
    group = write(tmp_path, "z.json", Z)
    prefixes = write(tmp_path, "prefixes.json", parity_prefixes())
    grid1 = write(tmp_path, "grid1.json", line_grid_descriptor(10))
    grid2 = write(tmp_path, "grid2.json", line_grid_descriptor(grid2_radius))
    witness = str(tmp_path / "witness.json")
    argv = [
        "final",
        "witness",
        "--ctx",
        ctx,
        "--group",
        group,
        "--radius",
        "1",
        "--prefixes",
        prefixes,
        "--grid1",
        grid1,
        "--grid2",
        grid2,
        "--out",
        witness,
    ]
    return ctx, witness, argv


def final_fixture(tmp_path):
    ctx, witness, argv = final_witness_argv(tmp_path)
    assert main(argv) == 0
    return ctx, witness


def test_final_witness_passes_all_checkers(tmp_path, capsys):
    ctx, witness = final_fixture(tmp_path)
    capsys.readouterr()
    argv = ["final", "check", "--ctx", ctx, "--patch", witness, "--budget", "20000"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    obj = report(out)
    assert obj["violations"] == []
    assert obj["satisfied"] > 0
    assert obj["unchecked"] > 0


def test_final_check_counts_are_the_per_slice_local_checks(tmp_path, capsys):
    ctx_path, witness = final_fixture(tmp_path)
    capsys.readouterr()
    spec = subshift_from_descriptor(GOLDEN_SUBSHIFT)
    codec = make_codec(spec.group, spec.alphabet, 4)
    ctx = standard_context(
        rho_set_oracle(codec, spec.forbidden),
        rho_action_oracle(codec, spec.forbidden),
        codec.kappa,
    )
    stored = json.loads((tmp_path / "witness.json").read_text(encoding="utf-8"))
    stored["patch"]["y"][""]["x"][""] = "111"
    broken = write(tmp_path, "broken.json", stored)
    for path in (witness, broken):
        patch = final_patch_from_descriptor(
            json.loads(open(path, encoding="utf-8").read())["patch"]
        )
        satisfied = unchecked = 0
        for g in range(len(patch.g_ball)):
            slc = patch.omega[g]
            for local in (
                check_grid_local(slc.patch1),
                check_grid_local(slc.patch2),
                grid_y_check(slc, patch.rows(g), ctx.sft),
            ):
                satisfied += local.satisfied
                unchecked += local.unchecked
        _, out, _ = run_cli(capsys, ["final", "check", "--ctx", ctx_path, "--patch", path])
        obj = report(out)
        assert (obj["satisfied"], obj["unchecked"]) == (satisfied, unchecked)


def test_final_witness_and_check_build_each_ball_once(tmp_path, capsys, ball_builds):
    # The cli-cold inputs: a Z base of radius 1 and two Z line grids of radius 10.
    ctx, witness, argv = final_witness_argv(tmp_path, grid2_radius=10)
    ball_builds.clear()
    assert main(argv) == 0
    z = json.dumps(Z)
    # The codec ball, the radius 2 shell (its radius 1 ball is a restriction)
    # and one grid ball for both grid files.
    assert sorted(ball_builds) == [(z, 2), (z, 4), (z, 10)]
    ball_builds.clear()
    capsys.readouterr()
    code, out, _ = run_cli(capsys, ["final", "check", "--ctx", ctx, "--patch", witness])
    assert code == 0
    assert report(out)["violations"] == []
    # The codec ball, the base ball and one grid ball for all six slice grids.
    assert sorted(ball_builds) == [(z, 1), (z, 4), (z, 10)]


def test_final_phi_reads_the_coded_prefix(tmp_path, capsys):
    ctx, witness = final_fixture(tmp_path)
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys,
        [
            "final",
            "phi",
            "--ctx",
            ctx,
            "--patch",
            witness,
            "--depth",
            "1",
            "--format",
            "text",
        ],
    )
    assert code == 0
    assert out == "01\n"
    code, out, _ = run_cli(
        capsys,
        ["final", "phi", "--ctx", ctx, "--patch", witness, "--depth", "1", "--at", "x"],
    )
    assert code == 0
    assert report(out)["prefix"] == "10"


def test_final_phi_reports_an_undecodable_window(tmp_path, capsys):
    ctx, witness = final_fixture(tmp_path)
    capsys.readouterr()
    stored = json.loads((tmp_path / "witness.json").read_text(encoding="utf-8"))
    stored["patch"]["y"][""]["x"][""] = "111"  # bits where the coding has filler
    broken = write(tmp_path, "broken.json", stored)
    code, out, err = run_cli(
        capsys, ["final", "phi", "--ctx", ctx, "--patch", broken, "--depth", "1"]
    )
    assert (code, err) == (1, "")
    obj = report(out)
    assert obj["prefix"] is None
    assert obj["error"] == "layer '1' does not decode at depth 1"


def test_final_project_compares_patterns(tmp_path, capsys):
    ctx, witness = final_fixture(tmp_path)
    capsys.readouterr()
    good = write(tmp_path, "good.json", {"": "0", "x": "1", "x-": "1"})
    code, out, _ = run_cli(
        capsys,
        ["final", "project", "--ctx", ctx, "--patch", witness, "--pattern", good],
    )
    assert code == 0
    obj = report(out)
    assert obj["matches"] is True
    assert obj["determined"] > 0
    assert obj["undetermined"] > 0
    assert obj["projection"][""][""][""] == "0"

    bad = write(tmp_path, "bad.json", {"": "1", "x": "1", "x-": "1"})
    code, out, _ = run_cli(
        capsys,
        ["final", "project", "--ctx", ctx, "--patch", witness, "--pattern", bad],
    )
    assert code == 1
    assert report(out)["matches"] is False


def test_final_check_flags_corruption(tmp_path, capsys):
    ctx, witness = final_fixture(tmp_path)
    capsys.readouterr()
    stored = json.loads((tmp_path / "witness.json").read_text(encoding="utf-8"))
    stored["patch"]["y"][""]["x"][""] = "111"
    broken = write(tmp_path, "broken.json", stored)
    code, out, _ = run_cli(
        capsys,
        ["final", "check", "--ctx", ctx, "--patch", broken, "--budget", "20000"],
    )
    assert code == 1
    families = {entry[0] for entry in report(out)["violations"]}
    assert "F1" in families


def test_final_witness_rejects_unplaced_prefix(tmp_path, capsys):
    ctx = write(tmp_path, "ctx.json", {"subshift": GOLDEN_SUBSHIFT, "radius": 4})
    group = write(tmp_path, "z.json", Z)
    prefixes = write(tmp_path, "prefixes.json", {"x x x x": "0000000"})
    grid1 = write(tmp_path, "grid1.json", line_grid_descriptor(10))
    grid2 = write(tmp_path, "grid2.json", line_grid_descriptor(2))
    code, _, err = run_cli(
        capsys,
        [
            "final",
            "witness",
            "--ctx",
            ctx,
            "--group",
            group,
            "--radius",
            "1",
            "--prefixes",
            prefixes,
            "--grid1",
            grid1,
            "--grid2",
            grid2,
        ],
    )
    assert code == 2
    assert "prefixes" in err


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def recorded_cases(folder, tmp_path, monkeypatch):
    """The recorded commands of a data folder, copied to and run in tmp_path."""
    shutil.copytree(os.path.join(DATA, folder), tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    with open("commands.json", encoding="utf-8") as f:
        return json.load(f)


def assert_recorded_reports(capsys, cases):
    for case in cases:
        with open(case["out"], encoding="utf-8", newline="") as f:
            expected = (case["exit"], f.read(), case["stderr"])
        assert (case["name"], *run_cli(capsys, case["argv"])) == (case["name"], *expected)


# Inputs, stdout, stderr and exit codes of the `final` commands, recorded
# on the README's Z example and on its witness with one corrupted record.
def test_final_commands_match_the_recorded_reports(tmp_path, capsys, monkeypatch):
    cases = recorded_cases("final", tmp_path, monkeypatch)
    stored = json.loads((tmp_path / "witness.json").read_text(encoding="utf-8"))
    stored["patch"]["y"][""]["x"][""] = "111"
    write(tmp_path, "corrupted.json", stored)
    assert len(cases) == 9
    assert_recorded_reports(capsys, cases)


# Stdout, stderr and exit codes of `ball`, `wp` and `grid cover` on the
# Grigorchuk group, its `mealy` descriptor, Z × Grigorchuk and the
# lamplighter automaton, recorded with minimal-automaton keys for every
# automaton group, so that a new key must give the same reports.
def test_group_commands_match_the_recorded_reports(tmp_path, capsys, monkeypatch):
    cases = recorded_cases("groups", tmp_path, monkeypatch)
    assert len(cases) == 7
    assert_recorded_reports(capsys, cases)


# Stdout, stderr and exit codes of `nn check` and `grid check`, each on a
# clean and a violating input: golden-mean patches with holes, and the
# `grid cover` labels of a Grigorchuk ball with and without one relabelled
# cell.
def test_check_commands_match_the_recorded_reports(tmp_path, capsys, monkeypatch):
    cases = recorded_cases("checks", tmp_path, monkeypatch)
    assert sorted(case["exit"] for case in cases) == [0, 0, 1, 1]
    assert_recorded_reports(capsys, cases)


# Stdout, stderr and exit codes of the backtracking searches: `nn extend`
# completing a three-colouring patch, finding none and running out of
# `--max-nodes`; `aperiodic color` finding a colouring, a ColoringFailure
# and running out of `--budget`; `aperiodic verify` running out of
# `--budget`.  A search engine must give the same reports.
def test_search_commands_match_the_recorded_reports(tmp_path, capsys, monkeypatch):
    cases = recorded_cases("search", tmp_path, monkeypatch)
    assert sorted(case["exit"] for case in cases) == [0, 0, 1, 1, 1, 1, 1]
    assert_recorded_reports(capsys, cases)


# ---------------------------------------------------------------------------
# aperiodicity commands


def test_aperiodic_color_verify_probe(tmp_path, capsys):
    group = write(tmp_path, "z.json", Z)
    coloring = tmp_path / "coloring.json"
    code = main(
        [
            "aperiodic",
            "color",
            "--group",
            group,
            "--radius",
            "6",
            "-k",
            "3",
            "--maxlen",
            "6",
            "--out",
            str(coloring),
        ]
    )
    capsys.readouterr()
    assert code == 0

    code, out, _ = run_cli(
        capsys, ["aperiodic", "verify", "--coloring", str(coloring), "--maxlen", "6"]
    )
    assert code == 0
    obj = report(out)
    assert obj["violations"] == []
    assert obj["satisfied"] == 13
    assert obj["unchecked"] == 0

    code, out, _ = run_cli(
        capsys,
        [
            "aperiodic",
            "probe",
            "--coloring",
            str(coloring),
            "--coloring",
            str(coloring),
            "--length-limit",
            "1",
            "--square-length",
            "6",
        ],
    )
    assert code == 0
    obj = report(out)
    assert obj["ok"] is True
    assert obj["factor_violations"] == [0, 0]
    assert len(obj["entries"]) == 8
    assert all(entry["status"] == "Broken" for entry in obj["entries"])


def test_aperiodic_color_two_colors_fail(tmp_path, capsys):
    group = write(tmp_path, "z.json", Z)
    code, out, _ = run_cli(
        capsys,
        [
            "aperiodic",
            "color",
            "--group",
            group,
            "--radius",
            "4",
            "-k",
            "2",
            "--maxlen",
            "4",
        ],
    )
    assert code == 1
    assert "failure" in report(out)


# ---------------------------------------------------------------------------
# ball-keyed descriptors


@pytest.fixture(scope="module")
def final_files(tmp_path_factory):
    return final_fixture(tmp_path_factory.mktemp("final"))


def _final_doc(files):
    return json.loads(open(files[1], encoding="utf-8").read())["patch"]


def _round_trip(from_descriptor, to_descriptor):
    def read(doc, tmp_path, capsys, files):
        return to_descriptor(from_descriptor(doc))

    return read


def _read_cli(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    if code == 2:
        raise SchemaError("stderr", err)
    return code, report(out)


def _witness_from_prefixes(doc, tmp_path, capsys, files):
    grid1 = write(tmp_path, "grid1.json", line_grid_descriptor(10))
    grid2 = write(tmp_path, "grid2.json", line_grid_descriptor(2))
    argv = ["final", "witness", "--ctx", files[0], "--group", write(tmp_path, "z.json", Z),
            "--radius", "1", "--prefixes", write(tmp_path, "prefixes.json", doc),
            "--grid1", grid1, "--grid2", grid2]
    return _read_cli(capsys, argv)


def _project_against(doc, tmp_path, capsys, files):
    argv = ["final", "project", "--ctx", files[0], "--patch", files[1],
            "--pattern", write(tmp_path, "pattern.json", doc)]
    code, obj = _read_cli(capsys, argv)
    return code, obj["matches"]


def _coloring_doc(files):
    ball = cayley_ball(FreeAbelianOracle(1), 2)
    return colored_ball_to_descriptor(ColoredBall(ball, {h: h % 3 for h in range(len(ball))}, 3))


_final_round_trip = _round_trip(final_patch_from_descriptor, final_patch_to_descriptor)

# name: (valid document, keys from the document down to the word-keyed map, reader)
BALL_KEYED_READERS = {
    "grid labels": (
        lambda files: line_grid_descriptor(2),
        ("labels",),
        _round_trip(grid_patch_from_descriptor, grid_patch_to_descriptor),
    ),
    "colours": (
        _coloring_doc,
        ("colors",),
        _round_trip(colored_ball_from_descriptor, colored_ball_to_descriptor),
    ),
    "final omega": (_final_doc, ("omega",), _final_round_trip),
    "final y": (_final_doc, ("y",), _final_round_trip),
    "final y row": (_final_doc, ("y", ""), _final_round_trip),
    "final y cell": (_final_doc, ("y", "", ""), _final_round_trip),
    "--prefixes": (lambda files: parity_prefixes(), (), _witness_from_prefixes),
    "--pattern": (lambda files: {"": "0", "x": "1", "x-": "1"}, (), _project_against),
}

FAR = " ".join(["x"] * 40)


def _word_map(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _not_an_object(doc, keys):
    if not keys:
        return [doc]
    _word_map(doc, keys[:-1])[keys[-1]] = [_word_map(doc, keys)]
    return doc


def _outside(doc, keys):
    cells = _word_map(doc, keys)
    cells[FAR] = cells["x"]
    return doc


def _duplicate(doc, keys):
    cells = _word_map(doc, keys)
    cells["x x x-"] = cells["x"]
    return doc


@pytest.mark.parametrize("reader", BALL_KEYED_READERS)
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_outside, f"[{FAR!r}]: names a cell outside the ball"),
        (_not_an_object, ": expected an object"),
        (_duplicate, "['x x x-']: names the same cell as 'x'"),
    ],
    ids=["outside", "not-an-object", "duplicate"],
)
def test_ball_keyed_readers_reject_bad_maps(
    reader, corrupt, message, final_files, tmp_path, capsys
):
    make, keys, read = BALL_KEYED_READERS[reader]
    with pytest.raises(SchemaError) as info:
        read(corrupt(make(final_files), keys), tmp_path, capsys, final_files)
    assert message in str(info.value)


@pytest.mark.parametrize("reader", BALL_KEYED_READERS)
@pytest.mark.parametrize("word, alias", [("x", "x x x-"), ("", "x x-")])
def test_ball_keyed_readers_write_canonical_words(
    reader, word, alias, final_files, tmp_path, capsys
):
    make, keys, read = BALL_KEYED_READERS[reader]
    doc = make(final_files)
    expected = read(make(final_files), tmp_path, capsys, final_files)
    cells = _word_map(doc, keys)
    cells[alias] = cells.pop(word)
    assert read(doc, tmp_path, capsys, final_files) == expected


def test_wrong_value_types_exit_two(tmp_path, capsys):
    ctx, witness = final_fixture(tmp_path)
    grid = line_grid_descriptor(2)
    grid["labels"]["x"] = "x"
    grid = write(tmp_path, "bad_grid.json", grid)
    final = json.loads((tmp_path / "witness.json").read_text(encoding="utf-8"))
    final["patch"]["y"][""]["x"][""] = ["111"]
    final = write(tmp_path, "bad_final.json", final)
    coloring = _coloring_doc(None)
    coloring["colors"]["x"] = "1"
    coloring = write(tmp_path, "bad_coloring.json", coloring)
    prefixes = parity_prefixes()
    prefixes["x"] = 5
    prefixes = write(tmp_path, "bad_prefixes.json", prefixes)
    pattern = write(tmp_path, "bad_pattern.json", {"": 0})
    line = write(tmp_path, "line.json", line_grid_descriptor(2))
    config = write(tmp_path, "config.json", {"origin": [-2, -2], "rows": [["0"] * 5] * 5})
    group = write(tmp_path, "z.json", Z)
    for argv, where in (
        (["grid", "check", "--grid", grid], "grid.labels['x']"),
        (["grid", "trace", "--grid", grid], "grid.labels['x']"),
        (["grid", "seed", "--grid1", grid, "--grid2", line, "--config", config],
         "grid1.labels['x']"),
        (["final", "witness", "--ctx", ctx, "--group", group, "--radius", "1",
          "--prefixes", prefixes, "--grid1", line, "--grid2", line], "prefixes['x']"),
        (["final", "check", "--ctx", ctx, "--patch", final], "final.y['']['x']['']"),
        (["final", "phi", "--ctx", ctx, "--patch", final, "--depth", "1"],
         "final.y['']['x']['']"),
        (["final", "project", "--ctx", ctx, "--patch", final], "final.y['']['x']['']"),
        (["final", "project", "--ctx", ctx, "--patch", witness, "--pattern", pattern],
         "pattern['']"),
        (["aperiodic", "verify", "--coloring", coloring, "--maxlen", "2"],
         "coloring.colors['x']"),
        (["aperiodic", "probe", "--coloring", coloring, "--length-limit", "1",
          "--square-length", "2"], "coloring[0].colors['x']"),
    ):
        code, _, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert err.startswith(f"error: {where}: expected"), err


# name: (command, None standing for a valid SFT file; flag of the document;
#        valid document; key path of the integer field; field path in the error)
INTEGER_FIELDS = {
    "group rank": (["ball", "--radius", "1"], "--group",
                   lambda: dict(Z), ("rank",), "group.rank"),
    "ball radius": (["grid", "check"], "--grid",
                    lambda: line_grid_descriptor(2), ("radius",), "grid.radius"),
    "coloring k": (["aperiodic", "verify", "--maxlen", "2"], "--coloring",
                   lambda: _coloring_doc(None), ("k",), "coloring.k"),
    "coloring value": (["aperiodic", "verify", "--maxlen", "2"], "--coloring",
                       lambda: _coloring_doc(None), ("colors", "x"), "coloring.colors['x']"),
    "context radius": (["final", "check", "--patch", "unread.json"], "--ctx",
                       lambda: {"subshift": GOLDEN_SUBSHIFT, "radius": 4}, ("radius",),
                       "ctx.radius"),
    "patch origin": (["nn", "check", "--sft", None], "--patch",
                     lambda: {"origin": [0, 0], "rows": [["1", "0"]]}, ("origin", 0),
                     "patch.origin"),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_json_booleans_are_not_integers(field, value, tmp_path, capsys):
    # `isinstance(True, int)` holds, so a check by isinstance alone takes
    # `true` for 1 and `false` for 0.
    argv, flag, make, keys, where = INTEGER_FIELDS[field]
    doc = inner = make()
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    sft = write(tmp_path, "sft.json", GOLDEN_SFT)
    argv = [sft if arg is None else arg for arg in argv]
    code, out, err = run_cli(capsys, [*argv, flag, write(tmp_path, "doc.json", doc)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: expected"), err


# Every integer, string, list and object field of every descriptor kind, fed
# each JSON value of another type, exits 2 with the field's path, and so
# does every required field of a descriptor object left out.  The path
# is the one the reader reports: a state, word or symbol inside a list is
# reported at the list's path, as are the rows and entries of a Mealy
# automaton's transition and output tables.

WRONG_VALUES = {"true": True, "1.5": 1.5, '"1"': "1", "null": None, "[]": [], "{}": {}}

# field type: the values of WRONG_VALUES the field accepts, or that are of its
# own type and so wrong for some other reason
ACCEPTED = {
    "int": (),
    "str": ('"1"',),
    "list": ("[]",),
    "object": ("{}",),
    "list or object": (),
    "optional object": ("null", "{}"),
    "state or list": ('"1"', "[]"),
    "symbol": ("true", "1.5", '"1"', "null"),
}

MEALY = {**SWAP_GROUP, "inverses": {"t": "t"}}

# kind: (argv before the document, with {name} standing for a fixture file;
#        the document's flag; valid document)
DOCUMENT_KINDS = {
    "free_abelian": (["ball", "--radius", "1"], "--group", lambda files: dict(Z)),
    "free": (["ball", "--radius", "1"], "--group", lambda files: {"kind": "free", "rank": 2}),
    "grigorchuk": (["ball", "--radius", "1"], "--group", lambda files: {"kind": "grigorchuk"}),
    "mealy": (["ball", "--radius", "1"], "--group", lambda files: json.loads(json.dumps(MEALY))),
    "mealy list": (["ball", "--radius", "1"], "--group",
                   lambda files: {**SWAP_GROUP, "generators": ["q"]}),
    "product": (["ball", "--radius", "1"], "--group",
                lambda files: {"kind": "product", "factors": [dict(Z), {"kind": "grigorchuk"}]}),
    "subshift": (["oracle", "query", "--word", "0", "--budget", "10"], "--subshift",
                 lambda files: json.loads(json.dumps(GOLDEN_SUBSHIFT))),
    "ctx": (["final", "check", "--patch", "{witness}"], "--ctx",
            lambda files: {"subshift": GOLDEN_SUBSHIFT, "radius": 4}),
    "sft": (["nn", "check", "--patch", "{patch}"], "--sft",
            lambda files: json.loads(json.dumps(GOLDEN_SFT))),
    "patch": (["nn", "check", "--sft", "{sft}"], "--patch",
              lambda files: {"origin": [0, 0], "rows": [["1", "0"]]}),
    "grid": (["grid", "check"], "--grid", lambda files: line_grid_descriptor(2)),
    "final": (["final", "check", "--ctx", "{ctx}"], "--patch", _final_doc),
    "coloring": (["aperiodic", "verify", "--maxlen", "2"], "--coloring", _coloring_doc),
    "prefixes": (["final", "witness", "--ctx", "{ctx}", "--group", "{z}", "--radius", "1",
                  "--grid1", "{line10}", "--grid2", "{line2}"], "--prefixes",
                 lambda files: parity_prefixes()),
    "pattern": (["final", "project", "--ctx", "{ctx}", "--patch", "{witness}"], "--pattern",
                lambda files: {"": "0", "x": "1", "x-": "1"}),
    "layers": (["toeplitz", "decode"], "--file", lambda files: {"x": SPREAD_010}),
}

# (kind, key path from the document to the field, field type, path in the
#  error); a "required" field left out is reported as missing
TYPED_FIELDS = [
    ("free_abelian", (), "object", "group"),
    ("free_abelian", ("kind",), "str", "group.kind"),
    ("free_abelian", ("rank",), "int", "group.rank"),
    ("free", ("rank",), "int", "group.rank"),
    ("grigorchuk", ("kind",), "str", "group.kind"),
    ("mealy", ("states",), "required list", "group.states"),
    ("mealy", ("states", 0), "str", "group.states"),
    ("mealy", ("transition",), "required object", "group.transition"),
    ("mealy", ("transition", "q"), "object", "group.transition"),
    ("mealy", ("transition", "q", "0"), "str", "group.transition"),
    ("mealy", ("output",), "required object", "group.output"),
    ("mealy", ("output", "q"), "object", "group.output"),
    ("mealy", ("output", "q", "0"), "str", "group.output"),
    ("mealy", ("generators",), "required list or object", "group.generators"),
    ("mealy", ("generators", "t"), "list", "group.generators.t"),
    ("mealy", ("generators", "t", 0), "str", "group.generators.t"),
    ("mealy", ("inverses",), "optional object", "group.inverses"),
    ("mealy", ("inverses", "t"), "str", "group.inverses.t"),
    ("mealy list", ("generators", 0), "state or list", "group.generators[0]"),
    ("product", ("factors",), "list", "group.factors"),
    ("product", ("factors", 0), "object", "group.factors[0]"),
    ("subshift", (), "object", "subshift"),
    ("subshift", ("group",), "required object", "subshift.group"),
    ("subshift", ("alphabet",), "list", "subshift.alphabet"),
    ("subshift", ("alphabet", 0), "str", "subshift.alphabet[0]"),
    ("subshift", ("forbidden",), "list", "subshift.forbidden"),
    ("subshift", ("forbidden", 0), "list", "subshift.forbidden[0]"),
    ("subshift", ("forbidden", 0, 0), "list", "subshift.forbidden[0][0]"),
    ("subshift", ("forbidden", 0, 0, 0), "str", "subshift.forbidden[0][0]"),
    ("subshift", ("forbidden", 0, 0, 1), "str", "subshift.forbidden[0][0]"),
    ("ctx", (), "object", "ctx"),
    ("ctx", ("subshift",), "required object", "ctx.subshift"),
    ("ctx", ("radius",), "required int", "ctx.radius"),
    ("sft", (), "object", "sft"),
    ("sft", ("alphabet",), "required list", "sft.alphabet"),
    ("sft", ("alphabet", 0), "symbol", "sft.alphabet[0]"),
    ("sft", ("allowed_h",), "required list", "sft.allowed_h"),
    ("sft", ("allowed_h", 0), "list", "sft.allowed_h[0]"),
    ("sft", ("allowed_h", 0, 0), "str", "sft.allowed_h[0]"),
    ("sft", ("allowed_v",), "required list", "sft.allowed_v"),
    ("sft", ("allowed_v", 0), "list", "sft.allowed_v[0]"),
    ("sft", ("allowed_v", 0, 1), "str", "sft.allowed_v[0]"),
    ("patch", (), "object", "patch"),
    ("patch", ("origin",), "list", "patch.origin"),
    ("patch", ("origin", 0), "int", "patch.origin"),
    ("patch", ("rows",), "list", "patch.rows"),
    ("patch", ("rows", 0), "list", "patch.rows[0]"),
    ("grid", (), "object", "grid"),
    ("grid", ("group",), "required object", "grid.group"),
    ("grid", ("radius",), "required int", "grid.radius"),
    ("grid", ("labels",), "required object", "grid.labels"),
    ("grid", ("labels", ""), "list", "grid.labels['']"),
    ("grid", ("labels", "", 0), "str", "grid.labels['']"),
    ("final", (), "object", "final"),
    ("final", ("group",), "required object", "final.group"),
    ("final", ("radius",), "required int", "final.radius"),
    ("final", ("omega",), "required object", "final.omega"),
    ("final", ("omega", ""), "list", "final.omega['']"),
    ("final", ("omega", "", 0), "object", "final.omega[''][0]"),
    ("final", ("y",), "required object", "final.y"),
    ("final", ("y", ""), "object", "final.y['']"),
    ("final", ("y", "", "x"), "object", "final.y['']['x']"),
    ("final", ("y", "", "x", ""), "str", "final.y['']['x']['']"),
    ("coloring", (), "object", "coloring"),
    ("coloring", ("group",), "required object", "coloring.group"),
    ("coloring", ("radius",), "required int", "coloring.radius"),
    ("coloring", ("k",), "required int", "coloring.k"),
    ("coloring", ("colors",), "required object", "coloring.colors"),
    ("coloring", ("colors", "x"), "int", "coloring.colors['x']"),
    ("prefixes", (), "object", "prefixes"),
    ("prefixes", ("x",), "str", "prefixes['x']"),
    ("pattern", (), "object", "pattern"),
    ("pattern", ("",), "str", "pattern['']"),
    ("layers", (), "object", "file"),
    ("layers", ("x",), "str", "file['x']"),
]

WRONG_TYPE_CASES = [
    pytest.param(
        kind, keys, sample, where, id=kind + "".join(f"[{key!r}]" for key in keys) + f"={sample}"
    )
    for kind, keys, field_type, where in TYPED_FIELDS
    for sample in [*WRONG_VALUES, "missing"]
    if sample not in ACCEPTED[field_type.removeprefix("required ")]
    and (sample != "missing" or field_type.startswith("required "))
]


@pytest.fixture(scope="module")
def fixture_files(final_files, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("typed")
    ctx, witness = final_files
    return {
        "ctx": ctx,
        "witness": witness,
        "z": write(tmp_path, "z.json", Z),
        "sft": write(tmp_path, "sft.json", GOLDEN_SFT),
        "patch": write(tmp_path, "patch.json", {"origin": [0, 0], "rows": [["1", "0"]]}),
        "line10": write(tmp_path, "line10.json", line_grid_descriptor(10)),
        "line2": write(tmp_path, "line2.json", line_grid_descriptor(2)),
    }


@pytest.mark.parametrize("kind, keys, sample, where", WRONG_TYPE_CASES)
def test_a_missing_or_wrongly_typed_field_exits_two_with_its_path(
    kind, keys, sample, where, final_files, fixture_files, tmp_path, capsys
):
    argv, flag, make = DOCUMENT_KINDS[kind]
    doc = make(final_files)
    if keys:
        inner = doc
        for key in keys[:-1]:
            inner = inner[key]
        if sample == "missing":
            del inner[keys[-1]]
        else:
            inner[keys[-1]] = WRONG_VALUES[sample]
    else:
        doc = WRONG_VALUES[sample]
    argv = [arg.format(**fixture_files) for arg in argv]
    code, out, err = run_cli(capsys, [*argv, flag, write(tmp_path, "doc.json", doc)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: "), err
    if sample == "missing":
        assert err == f"error: {where}: missing\n"


def _edited(doc, **fields):
    return lambda files: {**json.loads(json.dumps(doc)), **fields}


# name: (kind whose argv and flag read the document, document, whole stderr)
NAMED_FAULTS = {
    # Each of these escaped `main` as a Python exception before the
    # descriptor readers were shared.
    "transition list": ("mealy", _edited(SWAP_GROUP, transition=[]),
                        "group.transition: expected an object"),
    "output string": ("mealy", _edited(SWAP_GROUP, output="01"),
                      "group.output: expected an object"),
    "generator entry 5": ("mealy", _edited(SWAP_GROUP, generators=[5]),
                          "group.generators[0]: expected a list of states"),
    "inverse list": ("mealy", _edited(SWAP_GROUP, inverses={"t": ["t"]}),
                     "group.inverses.t: expected a generator name"),
    "sft symbol list": ("sft", _edited(GOLDEN_SFT, alphabet=[["0"], "1"]),
                        "sft.alphabet[0]: expected a symbol"),
    "patch row 5": ("patch", lambda files: {"rows": [5]}, "patch.rows[0]: ragged row"),
    # A kind is looked up only when it is a string.
    "kind list": ("free_abelian", lambda files: {"kind": ["free"]},
                  "group.kind: unknown group kind ['free']"),
    # A Mealy output row's faults are the output's, not the transition's.
    "output row missing": ("mealy", _edited(SWAP_GROUP, output={}),
                           "group.output: output row missing for state 'q'"),
    "output not a permutation": ("mealy",
                                 _edited(SWAP_GROUP, output={"q": {"0": "1", "1": "1"}}),
                                 "group.output: state 'q' does not permute the alphabet"),
    "transition leaves the states": ("mealy",
                                     _edited(SWAP_GROUP, transition={"q": {"0": "q", "1": "r"}}),
                                     "group.transition: transition of 'q' leaves the state set"),
    # A generator the group lacks, and a colour out of range, are named at
    # the file's field.
    "unknown cell generator": ("grid", _edited(line_grid_descriptor(1), labels={"q": ["x", "x-"]}),
                               "grid.labels['q']: unknown generator 'q'"),
    "unknown subshift generator": ("subshift",
                                   _edited(GOLDEN_SUBSHIFT, forbidden=[[["x q", "1"]]]),
                                   "subshift.forbidden[0][0]: unknown generator 'q'"),
    "colour out of range": ("coloring", _edited(_coloring_doc(None), k=2),
                            "coloring.colors['x-']: expected an integer in [0, 2)"),
}


@pytest.mark.parametrize("name", NAMED_FAULTS)
def test_malformed_descriptors_name_their_field(name, fixture_files, tmp_path, capsys):
    kind, make, text = NAMED_FAULTS[name]
    argv, flag, _ = DOCUMENT_KINDS[kind]
    argv = [arg.format(**fixture_files) for arg in argv]
    doc = write(tmp_path, "doc.json", make(None))
    assert run_cli(capsys, [*argv, flag, doc]) == (2, "", f"error: {text}\n")


# ---------------------------------------------------------------------------
# plumbing


def test_missing_file_is_a_schema_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["ball", "--group", str(tmp_path / "nope.json"), "--radius", "1"]
    )
    assert code == 2
    assert "nope.json" in err
    assert "file not found" in err


def test_out_of_range_number_is_a_usage_error(tmp_path, capsys):
    group = write(tmp_path, "z.json", Z)
    code, _, err = run_cli(capsys, ["ball", "--group", group, "--radius", "-1"])
    assert code == 2
    assert "radius" in err


def test_omitted_limits_equal_their_documented_defaults(tmp_path, capsys):
    sft = write(tmp_path, "sft.json", GOLDEN_SFT)
    partial = write(
        tmp_path, "patch.json", {"origin": [0, 0], "rows": [["1", None, "1"]]}
    )
    line = write(tmp_path, "line.json", line_grid_descriptor(2))
    ctx, witness = final_fixture(tmp_path)
    capsys.readouterr()
    for argv, option in (
        (["nn", "extend", "--sft", sft, "--patch", partial], ["--max-nodes", "200000"]),
        (["grid", "trace", "--grid", line, "--cell", "x-"], ["--max-steps", "10000"]),
        (["final", "check", "--ctx", ctx, "--patch", witness], ["--budget", "10000"]),
    ):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert run_cli(capsys, argv + option) == (code, out, "")


def test_seed_is_a_grid_cover_option(tmp_path, capsys):
    group = write(tmp_path, "z.json", Z)
    sft = write(tmp_path, "sft.json", GOLDEN_SFT)
    partial = write(
        tmp_path, "patch.json", {"origin": [0, 0], "rows": [["1", None, "1"]]}
    )
    code, _, err = run_cli(
        capsys, ["nn", "extend", "--sft", sft, "--patch", partial, "--max-nodes", "0"]
    )
    assert code == 2
    assert "max_nodes" in err
    code, _, err = run_cli(capsys, ["ball", "--group", group, "--radius", "1", "--seed", "1"])
    assert code == 2
    assert "--seed" in err
    code, out, _ = run_cli(
        capsys, ["grid", "cover", "--group", group, "--radius", "4", "--seed", "1"]
    )
    assert code == 0
    assert report(out)["problems"] == []


def test_cli_import_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(groupshift.__file__))
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import groupshift.cli, sys; sys.exit('networkx' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert completed.returncode == 0


def test_cover_search_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(groupshift.__file__))
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "from groupshift.grid import path_cover_search\n"
            "from groupshift.groups import GrigorchukOracle, cayley_ball\n"
            "path_cover_search(cayley_ball(GrigorchukOracle(), 5), 2)\n"
            "sys.exit('networkx' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert completed.returncode == 0


def test_decode_requires_word_or_file(capsys):
    code, _, err = run_cli(capsys, ["toeplitz", "decode"])
    assert code == 2
    assert "word" in err


def test_unknown_and_bare_commands_exit_two(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()
    assert main(["nn"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    group = write(tmp_path, "z.json", Z)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["ball", "--group", group, "--radius", "1", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text(encoding="utf-8"))["size"] == 3


def test_console_entry_point_runs(tmp_path):
    group = write(tmp_path, "z.json", Z)
    completed = subprocess.run(
        [sys.executable, "-m", "groupshift.cli", "ball", "--group", group, "--radius", "1"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0
    assert json.loads(completed.stdout)["size"] == 3
