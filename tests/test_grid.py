"""Direction labels, path covers, and grid reads."""

from __future__ import annotations

import itertools
import random

import pytest

import groupshift.grid as grid
from groupshift.errors import BallTooSmall, CycleDetected, DisplacementNotGenerator, SchemaError
from groupshift.grid import (
    CoverFailure,
    GridLabel,
    GridPatch,
    ProductGridPatch,
    SeedFailure,
    check_grid_local,
    from_translation_action,
    grid_patch_from_descriptor,
    grid_patch_to_descriptor,
    grid_patch_to_dot,
    grid_y_check,
    induced_step,
    orbit_trace,
    path_cover_search,
    read_grid,
    seed_grid_from_config,
)
from groupshift.groups import (
    FreeAbelianOracle,
    GrigorchukOracle,
    cayley_ball,
    group_from_descriptor,
)
from groupshift.shiftcore import Alphabet, NNSFT2D, Patch2D, full_shift


def line_ball(radius):
    return cayley_ball(FreeAbelianOracle(1), radius)


def line_patch(radius):
    """Constant (x-, x) labels from the genuine +1 translation."""
    ball = line_ball(radius)
    succ = {h: ball.elements[h] + ("x",) for h in range(len(ball))}
    pred = {h: ball.elements[h] + ("x-",) for h in range(len(ball))}
    return from_translation_action(ball, succ, pred)


def plane_patch(radius, axis="x"):
    ball = cayley_ball(FreeAbelianOracle(2), radius)
    succ = {h: ball.elements[h] + (axis,) for h in range(len(ball))}
    pred = {h: ball.elements[h] + (axis + "-",) for h in range(len(ball))}
    return from_translation_action(ball, succ, pred)


def position(ball, h):
    word = ball.elements[h]
    return word.count("x") - word.count("x-")


def golden_h_sft():
    alphabet = Alphabet(("0", "1"))
    allowed_h = frozenset({("0", "0"), ("0", "1"), ("1", "0")})
    allowed_v = frozenset(itertools.product("01", repeat=2))
    return NNSFT2D(alphabet, allowed_h, allowed_v)


def test_translation_patch_is_constant_and_clean():
    patch = line_patch(4)
    assert all(lab == GridLabel("x-", "x") for lab in patch.labels.values())
    report = check_grid_local(patch)
    assert report.ok
    assert report.unchecked == 2
    assert report.satisfied == 2 * len(patch.ball) - 2


def test_single_bad_label_is_reported():
    ball = line_ball(1)
    labels = {
        ball.index[()]: GridLabel("x-", "x"),
        ball.index[("x",)]: GridLabel("x", "x"),
        ball.index[("x-",)]: GridLabel("x-", "x"),
    }
    report = check_grid_local(GridPatch(ball, labels))
    assert len(report.violations) == 1
    h, direction, sym, observed = report.violations[0]
    assert (h, direction, sym, observed) == (ball.index[()], "right", "x", "x")


def test_plane_translation_patch_is_clean():
    report = check_grid_local(plane_patch(3))
    assert report.ok


def test_induced_step_walks_the_line():
    patch = line_patch(3)
    ball = patch.ball
    origin = ball.index[()]
    right = induced_step(patch, origin, +1)
    assert ball.elements[right] == ("x",)
    assert induced_step(patch, right, -1) == origin
    for h in range(len(ball)):
        forward = induced_step(patch, h, +1)
        if forward is not None:
            assert induced_step(patch, forward, -1) == h


def test_fixed_point_label_traces_a_cycle():
    ball = line_ball(1)
    labels = {h: GridLabel("1", "1") for h in range(len(ball))}
    patch = GridPatch(ball, labels)
    trace = orbit_trace(patch, 0)
    assert trace.kind == "Cycle"
    assert trace.cycle_length == 1


def test_translation_trace_spans_the_ball():
    patch = line_patch(4)
    leftmost = patch.ball.index[("x-",) * 4]
    trace = orbit_trace(patch, leftmost)
    assert trace.kind == "Path" or trace.kind == "LeftBall"
    assert trace.kind == "LeftBall"
    assert len(trace.cells) == len(patch.ball)


def test_two_cycle_is_detected():
    ball = line_ball(1)
    i0, i1 = ball.index[()], ball.index[("x",)]
    labels = {
        i0: GridLabel("x", "x"),
        i1: GridLabel("x-", "x-"),
        ball.index[("x-",)]: GridLabel("x-", "x"),
    }
    patch = GridPatch(ball, labels)
    trace = orbit_trace(patch, i0)
    assert trace.kind == "Cycle"
    assert trace.cycle_length == 2


def test_displacement_must_be_a_generator():
    ball = line_ball(2)
    succ = {h: ball.elements[h] + ("x", "x") for h in range(len(ball))}
    pred = {h: ball.elements[h] + ("x-",) for h in range(len(ball))}
    with pytest.raises(DisplacementNotGenerator):
        from_translation_action(ball, succ, pred)


def test_line_cover_is_the_whole_line():
    ball = line_ball(4)
    cover = path_cover_search(ball, 1)
    assert not isinstance(cover, CoverFailure)
    assert cover.validate(1) == []
    assert len(cover.succ) == len(ball) - 1
    start = next(h for h in cover.succ if h not in cover.pred)
    seen = [start]
    while seen[-1] in cover.succ:
        seen.append(cover.succ[seen[-1]])
    assert len(seen) == len(ball)


def test_plane_cover_exists():
    ball = cayley_ball(FreeAbelianOracle(2), 3)
    cover = path_cover_search(ball, 1)
    assert not isinstance(cover, CoverFailure)
    assert cover.validate(1) == []


def test_cover_search_is_deterministic():
    ball = cayley_ball(FreeAbelianOracle(2), 3)
    first = path_cover_search(ball, 1, seed=7)
    second = path_cover_search(ball, 1, seed=7)
    assert first.succ == second.succ and first.pred == second.pred


def test_grigorchuk_cover_radius_five():
    ball = cayley_ball(GrigorchukOracle(), 5)
    cover = path_cover_search(ball, 2)
    assert not isinstance(cover, CoverFailure)
    assert cover.validate(2) == []
    patch = from_translation_action(ball, cover.succ, cover.pred, within=3)
    assert check_grid_local(patch).ok
    for h in range(len(patch.ball)):
        assert orbit_trace(patch, h).kind != "Cycle"


def test_margin_bounds_are_enforced():
    ball = line_ball(2)
    with pytest.raises(BallTooSmall):
        path_cover_search(ball, 0)
    with pytest.raises(BallTooSmall):
        path_cover_search(ball, 3)


def test_order_two_group_has_no_cover():
    descriptor = {
        "kind": "mealy",
        "states": ["q"],
        "transition": {"q": {"0": "q", "1": "q"}},
        "output": {"q": {"0": "1", "1": "0"}},
        "generators": {"t": ["q"]},
    }
    oracle = group_from_descriptor(descriptor)
    ball = cayley_ball(oracle, 2)
    assert len(ball) == 2
    result = path_cover_search(ball, 1)
    assert isinstance(result, CoverFailure)
    assert "no valid cover" in result.reason
    assert "no generator pair" in result.reason


def test_cover_failure_names_the_pairs_tried_and_the_best_problem():
    # Z/2 × Z/2 as two commuting involutions: the single pair closes a 4-cycle.
    descriptor = {
        "kind": "mealy",
        "states": ["p", "q", "e"],
        "transition": {
            "p": {"0": "e", "1": "e"},
            "q": {"0": "p", "1": "p"},
            "e": {"0": "e", "1": "e"},
        },
        "output": {
            "p": {"0": "1", "1": "0"},
            "q": {"0": "0", "1": "1"},
            "e": {"0": "0", "1": "1"},
        },
        "generators": {"s": ["p"], "t": ["q"]},
    }
    ball = cayley_ball(group_from_descriptor(descriptor), 2)
    assert len(ball) == 4
    result = path_cover_search(ball, 1)
    assert isinstance(result, CoverFailure)
    assert result.reason.startswith("no valid cover from 1 generator pairs")
    assert "(s, t)" in result.reason
    assert result.reason.endswith("first: cycle of 4 cells")


GRIGORCHUK = {"kind": "grigorchuk"}
GRIGORCHUK_BCDA = {
    "kind": "mealy",
    "states": ["a", "b", "c", "d", "e"],
    "transition": {
        "a": {"0": "e", "1": "e"},
        "b": {"0": "a", "1": "c"},
        "c": {"0": "a", "1": "d"},
        "d": {"0": "e", "1": "b"},
        "e": {"0": "e", "1": "e"},
    },
    "output": {
        "a": {"0": "1", "1": "0"},
        "b": {"0": "0", "1": "1"},
        "c": {"0": "0", "1": "1"},
        "d": {"0": "0", "1": "1"},
        "e": {"0": "0", "1": "1"},
    },
    "generators": ["b", "c", "d", "a"],
}


def _walks_cleanly(ball, succ, pred, margin):
    """Independent walker: generator edges, inverse maps, acyclic walks,
    and both neighbours at every interior cell."""
    oracle = ball.oracle
    moving = [s for s in oracle.gens.symbols if s != oracle.gens.identity]
    for forward, backward in ((succ, pred), (pred, succ)):
        for h, t in forward.items():
            if backward.get(t) != h:
                return False
            if not any(oracle.equals(ball.elements[h] + (s,), ball.elements[t]) for s in moving):
                return False
    walked = set()
    for start in succ.keys() - pred.keys():
        cur = start
        while cur is not None:
            walked.add(cur)
            cur = succ.get(cur)
    if not succ.keys() <= walked:
        return False
    return all(
        h in succ and h in pred
        for h in range(len(ball))
        if ball.distance[h] <= ball.radius - margin
    )


@pytest.mark.parametrize(
    "descriptor, radius",
    [pytest.param(GRIGORCHUK, r, id=f"grigorchuk-{r}") for r in range(5, 13)]
    + [
        pytest.param({"kind": "free", "rank": 2}, 6, id="free2-6"),
        pytest.param({"kind": "free_abelian", "rank": 2}, 20, id="z2-20"),
        pytest.param(
            {"kind": "product", "factors": [{"kind": "free_abelian", "rank": 1}, GRIGORCHUK]},
            5,
            id="z-by-grigorchuk-5",
        ),
        pytest.param(GRIGORCHUK_BCDA, 6, id="mealy-bcda-6"),
    ],
)
def test_covers_pass_an_independent_walker(descriptor, radius):
    margin = 2
    ball = cayley_ball(group_from_descriptor(descriptor), radius)
    cover = path_cover_search(ball, margin)
    assert not isinstance(cover, CoverFailure), cover.reason
    assert _walks_cleanly(ball, cover.succ, cover.pred, margin)
    patch = from_translation_action(ball, cover.succ, cover.pred, within=radius - margin)
    assert check_grid_local(patch).ok
    for h in range(len(patch.ball)):
        assert orbit_trace(patch, h).kind != "Cycle"
    redirected = dict(cover.succ)
    redirected[0] = next(u for u in ball.neighbors(0) if u != cover.succ[0])
    assert not _walks_cleanly(ball, redirected, cover.pred, margin)


def test_cover_search_moves_past_pairs_that_close_cycles(monkeypatch):
    exchanges = []
    original = grid._two_opt
    monkeypatch.setattr(grid, "_two_opt", lambda *args: exchanges.append(1) or original(*args))
    ball = cayley_ball(group_from_descriptor(GRIGORCHUK_BCDA), 5)
    cover = path_cover_search(ball, 2)
    assert not isinstance(cover, CoverFailure)
    assert exchanges
    # (b, c) and (b, d) generate Klein four-groups; the cover uses a.
    patch = from_translation_action(ball, cover.succ, cover.pred, within=3)
    assert "a" in {patch.label(h).right for h in range(len(patch.ball))}


def test_interior_mutations_of_the_plane_patch_are_visible():
    patch = plane_patch(4)
    ball = patch.ball
    syms = list(ball.oracle.gens.symbols)
    interior = [h for h in range(len(ball)) if ball.distance[h] <= 3]
    assert interior
    for h in interior:
        original = patch.labels[h]
        for left, right in itertools.product(syms, repeat=2):
            candidate = GridLabel(left, right)
            if candidate == original:
                continue
            mutated = dict(patch.labels)
            mutated[h] = candidate
            report = check_grid_local(GridPatch(ball, mutated))
            assert report.violations, (h, candidate)


def test_boundary_self_loop_hides_locally_but_not_from_traces():
    # A corner cell with no in-ball neighbours along the step axis can be
    # relabelled as a fixed point without upsetting any local pairing; the
    # orbit walk still exposes it as a cycle.
    patch = plane_patch(4)
    ball = patch.ball
    corner = ball.index[("y",) * 4]
    mutated = dict(patch.labels)
    mutated[corner] = GridLabel("1", "1")
    changed = GridPatch(ball, mutated)
    assert check_grid_local(changed).ok
    trace = orbit_trace(changed, corner)
    assert trace.kind == "Cycle" and trace.cycle_length == 1


def test_grid_y_check_full_shift_never_complains():
    rng = random.Random(3)
    omega = ProductGridPatch(line_patch(2), line_patch(2))
    y = {
        (h1, h2): rng.choice("ab")
        for h1 in range(len(omega.patch1.ball))
        for h2 in range(len(omega.patch2.ball))
    }
    report = grid_y_check(omega, y, full_shift(("a", "b")))
    assert report.ok


def test_grid_y_check_counts_horizontal_failures():
    omega = ProductGridPatch(line_patch(2), line_patch(2))
    y = {
        (h1, h2): "1"
        for h1 in range(len(omega.patch1.ball))
        for h2 in range(len(omega.patch2.ball))
    }
    report = grid_y_check(omega, y, golden_h_sft())
    assert len(report.violations) == 4 * 5
    assert all(kind == "h" for (_, kind, _, _) in report.violations)


def test_read_grid_single_cell():
    omega = ProductGridPatch(line_patch(2), line_patch(2))
    y = {
        (h1, h2): f"{position(omega.patch1.ball, h1)},{position(omega.patch2.ball, h2)}"
        for h1 in range(len(omega.patch1.ball))
        for h2 in range(len(omega.patch2.ball))
    }
    patch = read_grid(omega, y, (0, 0), (0, 0, 1, 1))
    assert patch.cells == {(0, 0): "0,0"}


def test_read_grid_is_a_literal_rectangle_for_translations():
    omega = ProductGridPatch(line_patch(3), line_patch(3))
    y = {
        (h1, h2): (position(omega.patch1.ball, h1), position(omega.patch2.ball, h2))
        for h1 in range(len(omega.patch1.ball))
        for h2 in range(len(omega.patch2.ball))
    }
    patch = read_grid(omega, y, (0, 0), (-2, -1, 4, 3))
    for x in range(-2, 2):
        for yy in range(-1, 2):
            assert patch.get(x, yy) == (x, yy)
    assert read_grid(omega, y, (0, 0), (-4, 0, 9, 1)) is None


def test_read_grid_base_shift_matches_window_shift():
    omega = ProductGridPatch(line_patch(3), line_patch(3))
    y = {
        (h1, h2): (position(omega.patch1.ball, h1), position(omega.patch2.ball, h2))
        for h1 in range(len(omega.patch1.ball))
        for h2 in range(len(omega.patch2.ball))
    }
    ball = omega.patch1.ball
    moved_base = (ball.index[("x",)], 0)
    a = read_grid(omega, y, moved_base, (-1, -1, 3, 3))
    b = read_grid(omega, y, (0, 0), (0, -1, 3, 3))
    assert a is not None and b is not None
    assert b.translated(-1, 0).cells == a.cells


def test_seed_lays_out_the_plane_directly():
    omega = ProductGridPatch(line_patch(2), line_patch(2))
    cells = {(x, yy): f"{x}|{yy}" for x in range(-2, 3) for yy in range(-2, 3)}
    c = Patch2D(-2, -2, 5, 5, cells)
    y = seed_grid_from_config(omega, c)
    assert not isinstance(y, SeedFailure)
    for h1 in range(len(omega.patch1.ball)):
        for h2 in range(len(omega.patch2.ball)):
            expected = f"{position(omega.patch1.ball, h1)}|{position(omega.patch2.ball, h2)}"
            assert y[(h1, h2)] == expected
    back = read_grid(omega, y, (0, 0), (-2, -2, 5, 5))
    assert back.cells == c.cells


def test_seed_rejects_small_or_bad_configs():
    omega = ProductGridPatch(line_patch(2), line_patch(2))
    small = Patch2D(0, 0, 2, 2, {(x, yy): "0" for x in range(2) for yy in range(2)})
    assert isinstance(seed_grid_from_config(omega, small), SeedFailure)
    ones = Patch2D(-2, -2, 5, 5, {(x, yy): "1" for x in range(-2, 3) for yy in range(-2, 3)})
    assert isinstance(seed_grid_from_config(omega, ones, golden_h_sft()), SeedFailure)


def test_seed_fails_on_label_cycles():
    ball = line_ball(1)
    labels = {h: GridLabel("1", "1") for h in range(len(ball))}
    cyclic = GridPatch(ball, labels)
    omega = ProductGridPatch(cyclic, line_patch(1))
    c = Patch2D(-1, -1, 3, 3, {(x, yy): "0" for x in range(-1, 2) for yy in range(-1, 2)})
    with pytest.raises(CycleDetected):
        seed_grid_from_config(omega, c)


def test_seed_and_check_on_a_grigorchuk_grid():
    ball = cayley_ball(GrigorchukOracle(), 4)
    cover = path_cover_search(ball, 2)
    assert not isinstance(cover, CoverFailure)
    patch1 = from_translation_action(ball, cover.succ, cover.pred, within=2)
    patch2 = line_patch(3)
    omega = ProductGridPatch(patch1, patch2)
    span = len(patch1.ball) + len(patch2.ball) + 2
    cells = {
        (x, yy): "1" if (x % 2 == 0 and yy % 2 == 0) else "0"
        for x in range(-span, span + 1)
        for yy in range(-span, span + 1)
    }
    c = Patch2D(-span, -span, 2 * span + 1, 2 * span + 1, cells)
    sft = golden_h_sft()
    y = seed_grid_from_config(omega, c, sft)
    assert not isinstance(y, SeedFailure)
    assert grid_y_check(omega, y, sft).ok


def test_grid_patch_descriptor_round_trip():
    patch = line_patch(2)
    obj = grid_patch_to_descriptor(patch)
    assert obj["radius"] == 2
    back = grid_patch_from_descriptor(obj)
    assert back.labels == patch.labels
    with pytest.raises(SchemaError):
        grid_patch_from_descriptor({"group": obj["group"], "radius": 2, "labels": {"x x x": ["x-", "x"]}})


def test_grid_patch_dot_export():
    text = grid_patch_to_dot(line_patch(1))
    assert text.startswith("digraph")
    assert "->" in text
