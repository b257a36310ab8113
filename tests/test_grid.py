"""Direction labels, path covers, and grid reads."""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    FreeGroupOracle,
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
    assert not report
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
    assert len(report) == 1
    h, direction, sym, observed = report[0]
    assert (h, direction, sym, observed) == (ball.index[()], "right", "x", "x")


def test_plane_translation_patch_is_clean():
    report = check_grid_local(plane_patch(3))
    assert not report


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
    assert not check_grid_local(patch)
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


# Z/2 × Z/2 as two commuting involutions.
KLEIN_FOUR = {
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


def test_cover_failure_names_the_pairs_tried_and_the_best_problem():
    # The single pair of Klein four closes a 4-cycle.
    ball = cayley_ball(group_from_descriptor(KLEIN_FOUR), 2)
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
            key = oracle.canonical_key(ball.elements[t])
            if not any(oracle.canonical_key(ball.elements[h] + (s,)) == key for s in moving):
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
    assert not check_grid_local(patch)
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
    assert "a" in {patch.labels[h].right for h in range(len(patch.ball))}


# The multi-pass cycle repair that the one-pass `_repair_cycles` replaced:
# it recomputes the components after every cut and every exchange.


def reference_repair_cycles(adjacency, ball, interior_limit):
    guard = 0
    while True:
        cycles = [
            c for c in grid._components(adjacency) if all(len(adjacency[v]) == 2 for v in c)
        ]
        if not cycles or guard > len(adjacency) + 5:
            return adjacency, cycles
        guard += 1
        cycle = min(cycles, key=min)
        boundary_edges = sorted(
            (a, b)
            for a in cycle
            for b in adjacency[a]
            if a < b
            and ball.distance[a] > interior_limit
            and ball.distance[b] > interior_limit
        )
        if boundary_edges:
            a, b = max(
                boundary_edges,
                key=lambda e: (
                    min(ball.distance[e[0]], ball.distance[e[1]]),
                    max(ball.distance[e[0]], ball.distance[e[1]]),
                    (-e[0], -e[1]),
                ),
            )
            adjacency[a].discard(b)
            adjacency[b].discard(a)
            continue
        if not reference_two_opt(adjacency, ball, cycle):
            return adjacency, cycles


def reference_two_opt(adjacency, ball, cycle):
    comp_of = {}
    for comp in grid._components(adjacency):
        tag = min(comp)
        for v in comp:
            comp_of[v] = tag
    tag = comp_of[min(cycle)]
    for a in sorted(cycle):
        for b in sorted(adjacency[a]):
            for c in sorted(ball.neighbors(a)):
                if comp_of.get(c, -1) == tag or not adjacency.get(c):
                    continue
                for d in sorted(adjacency[c]):
                    if d in ball.neighbors(b) and comp_of.get(d) == comp_of[c]:
                        adjacency[a].discard(b)
                        adjacency[b].discard(a)
                        adjacency[c].discard(d)
                        adjacency[d].discard(c)
                        adjacency[a].add(c)
                        adjacency[c].add(a)
                        adjacency[b].add(d)
                        adjacency[d].add(b)
                        return True
    return False


def cover_outcome(cover):
    if isinstance(cover, CoverFailure):
        return cover.reason
    return cover.succ, cover.pred


@pytest.mark.parametrize("radius, margin", [(3, 1), (5, 2)])
def test_one_pass_repair_merges_components_as_the_multi_pass_reference(
    monkeypatch, radius, margin
):
    descriptor = {"kind": "product", "factors": [KLEIN_FOUR, GRIGORCHUK]}
    ball = cayley_ball(group_from_descriptor(descriptor), radius)
    merges = []
    original = grid._two_opt
    monkeypatch.setattr(
        grid, "_two_opt", lambda *args: merges.append(original(*args)) or merges[-1]
    )
    found = cover_outcome(path_cover_search(ball, margin))
    assert any(j is not None for j in merges)
    monkeypatch.setattr(grid, "_repair_cycles", reference_repair_cycles)
    assert found == cover_outcome(path_cover_search(ball, margin))


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
            assert report, (h, candidate)


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
    assert not check_grid_local(changed)
    trace = orbit_trace(changed, corner)
    assert trace.kind == "Cycle" and trace.cycle_length == 1


def as_rows(omega, y):
    """The rows grid_y_check reads, rows[h1][h2], of a (h1, h2) map."""
    return [
        [y[(h1, h2)] for h2 in range(len(omega.patch2.ball))]
        for h1 in range(len(omega.patch1.ball))
    ]


def test_grid_y_check_full_shift_never_complains():
    rng = random.Random(3)
    omega = ProductGridPatch(line_patch(2), line_patch(2))
    y = {
        (h1, h2): rng.choice("ab")
        for h1 in range(len(omega.patch1.ball))
        for h2 in range(len(omega.patch2.ball))
    }
    report = grid_y_check(omega, as_rows(omega, y), full_shift(("a", "b")))
    assert not report


def test_grid_y_check_counts_horizontal_failures():
    omega = ProductGridPatch(line_patch(2), line_patch(2))
    y = {
        (h1, h2): "1"
        for h1 in range(len(omega.patch1.ball))
        for h2 in range(len(omega.patch2.ball))
    }
    report = grid_y_check(omega, as_rows(omega, y), golden_h_sft())
    assert len(report) == 4 * 5
    assert all(kind == "h" for (_, kind, _, _) in report)


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
    assert not grid_y_check(omega, as_rows(omega, y), sft)


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


def test_grid_patch_labels_are_read_only():
    patch = line_patch(2)
    with pytest.raises(TypeError):
        patch.labels[0] = GridLabel("x", "x-")
    with pytest.raises(TypeError):
        del patch.labels[0]
    copy = dict(patch.labels)
    copy[0] = GridLabel("x", "x-")
    changed = GridPatch(patch.ball, copy)
    assert patch.labels[0] == GridLabel("x-", "x")
    assert changed.right[0] == patch.left[0]
    for gp in (patch, changed, plane_patch(3, "y")):
        for h in range(len(gp.ball)):
            label = gp.labels[h]
            assert gp.right[h] == gp.ball.edges.get((h, label.right))
            assert gp.left[h] == gp.ball.edges.get((h, label.left))


def keyed_displacement(ball, h, target):
    """The first s with key(h·s) = key(target), keying every product."""
    key = ball.oracle.canonical_key(tuple(target))
    source = ball.elements[h]
    return next(
        (s for s in ball.oracle.gens.symbols if ball.oracle.canonical_key(source + (s,)) == key),
        None,
    )


def count_keys(monkeypatch, oracle):
    """Counters of the words keyed whole, and of the (key, generator) steps
    taken apart from keying a whole word."""
    calls, steps = Counter(), Counter()
    original, step = oracle.canonical_key, oracle.key_step
    keying = []

    def counting(word):
        calls[tuple(word)] += 1
        keying.append(word)
        try:
            return original(word)
        finally:
            keying.pop()

    def stepping(key, sym):
        if not keying:
            steps[key, sym] += 1
        return step(key, sym)

    monkeypatch.setattr(oracle, "canonical_key", counting)
    monkeypatch.setattr(oracle, "key_step", stepping)
    return calls, steps


def test_line_grid_keys_only_targets_outside_the_ball(monkeypatch):
    ball = line_ball(19)
    calls, steps = count_keys(monkeypatch, ball.oracle)
    patch = line_patch_on(ball)
    assert all(label == GridLabel("x-", "x") for label in patch.labels.values())
    # x^20 and x-^20 leave the ball: each is keyed once, its source x^19
    # once, and only the one product that also leaves the ball is stepped.
    outside = [("x",) * 20, ("x-",) * 20]
    assert calls == Counter({word: 1 for word in outside}) + Counter(w[1:] for w in outside)
    assert steps == Counter({((19,), "x"): 1, ((-19,), "x-"): 1})


def line_patch_on(ball):
    succ = {h: ball.elements[h] + ("x",) for h in range(len(ball))}
    pred = {h: ball.elements[h] + ("x-",) for h in range(len(ball))}
    return from_translation_action(ball, succ, pred)


@pytest.mark.parametrize(
    "oracle, radius, step, back",
    [
        (FreeAbelianOracle(1), 6, "x", "x-"),
        (FreeAbelianOracle(2), 4, "y", "y-"),
        (FreeGroupOracle(2), 3, "y-", "y"),
        (GrigorchukOracle(), 5, "a", "a"),
        (GrigorchukOracle(), 5, "d", "c"),
    ],
)
def test_word_targets_give_the_keyed_labels(monkeypatch, oracle, radius, step, back):
    ball = cayley_ball(oracle, radius)
    succ = {h: ball.elements[h] + (step,) for h in range(len(ball))}
    pred = {h: ball.elements[h] + (back,) for h in range(len(ball))}
    # Targets inside the ball, and some outside it, on every sphere.
    assert any(ball.resolve(w) is None for w in succ.values())
    expected = {
        h: GridLabel(keyed_displacement(ball, h, pred[h]), keyed_displacement(ball, h, succ[h]))
        for h in range(len(ball))
    }
    sources = {
        ball.elements[h]
        for h in range(len(ball))
        if ball.resolve(succ[h]) is None or ball.resolve(pred[h]) is None
    }
    step = ball.oracle.key_step
    calls, steps = count_keys(monkeypatch, ball.oracle)
    patch = from_translation_action(ball, succ, pred)
    assert dict(patch.labels) == expected
    # Only targets outside the ball and their sources are keyed whole, and
    # only products that leave the ball as those targets do are stepped.
    assert calls and steps
    assert all(ball.resolve(word) is None or word in sources for word in calls)
    assert all(ball._keyed.get(step(key, sym)) is None for key, sym in steps)


def reference_seed(omega, c, sft=None):
    """Seeding class by class with its own chain walk, as a reference."""
    if sft is not None:
        bad = grid.check_patch_nn(sft, c)
        if bad:
            return SeedFailure(f"source patch violates the local rule at {bad[0][0]}")
    chains1, where1 = grid._chains(omega.patch1)
    chains2, where2 = grid._chains(omega.patch2)
    y = {}
    for id1, chain1 in enumerate(chains1):
        for id2, chain2 in enumerate(chains2):
            if where1[0][0] == id1 and where2[0][0] == id2:
                a1, a2 = where1[0][1], where2[0][1]
            else:
                a1, a2 = where1[min(chain1)][1], where2[min(chain2)][1]
            for h1 in chain1:
                for h2 in chain2:
                    x = where1[h1][1] - a1
                    yy = where2[h2][1] - a2
                    if not c.contains(x, yy):
                        return SeedFailure(
                            f"source patch misses cell ({x},{yy}) needed by class ({id1},{id2})"
                        )
                    val = c.get(x, yy)
                    if val is None:
                        return SeedFailure(f"source patch has a hole at ({x},{yy})")
                    y[(h1, h2)] = val
    return y


def test_seed_matches_the_class_by_class_reference():
    ball = cayley_ball(GrigorchukOracle(), 4)
    cover = path_cover_search(ball, 2)
    grids = [
        ProductGridPatch(line_patch(2), line_patch(2)),
        ProductGridPatch(plane_patch(2), line_patch(1)),
        ProductGridPatch(
            from_translation_action(ball, cover.succ, cover.pred, within=2), line_patch(2)
        ),
    ]
    rng = random.Random(7)
    for omega in grids:
        for span in (1, 3, 9):
            cells = {
                (x, yy): rng.choice("01")
                for x in range(-span, span + 1)
                for yy in range(-span, span + 1)
            }
            holed = dict(cells)
            for _ in range(3):
                del holed[rng.choice(sorted(holed))]
            for sft in (None, golden_h_sft()):
                for chosen in (cells, holed):
                    c = Patch2D(-span, -span, 2 * span + 1, 2 * span + 1, chosen)
                    got, want = seed_grid_from_config(omega, c, sft), reference_seed(omega, c, sft)
                    if isinstance(want, SeedFailure):
                        assert isinstance(got, SeedFailure) and got.reason == want.reason
                    else:
                        assert list(got.items()) == list(want.items())


def reference_y_check(omega, y, sft):
    """Cell by cell, one label step at a time."""
    violations, satisfied, unchecked = [], 0, 0
    for h1 in range(len(omega.patch1.ball)):
        for h2 in range(len(omega.patch2.ball)):
            a = y[(h1, h2)]
            for kind, step, allowed in (
                ("h", induced_step(omega.patch1, h1, +1), sft.allowed_h),
                ("v", induced_step(omega.patch2, h2, +1), sft.allowed_v),
            ):
                if step is None:
                    unchecked += 1
                    continue
                b = y[(step, h2)] if kind == "h" else y[(h1, step)]
                if (a, b) in allowed:
                    satisfied += 1
                else:
                    violations.append(((h1, h2), kind, a, b))
    return violations, satisfied, unchecked


def test_grid_y_check_matches_the_cell_by_cell_reference():
    ball = cayley_ball(GrigorchukOracle(), 4)
    cover = path_cover_search(ball, 2)
    grids = [
        ProductGridPatch(line_patch(3), line_patch(2)),
        ProductGridPatch(plane_patch(2), plane_patch(2, "y")),
        ProductGridPatch(from_translation_action(ball, cover.succ, cover.pred), line_patch(1)),
    ]
    vertical_golden = NNSFT2D(
        Alphabet(("0", "1")), golden_h_sft().allowed_h, golden_h_sft().allowed_h
    )
    rng = random.Random(11)
    for omega in grids:
        for density in (0.0, 0.02, 0.3):
            y = {
                (h1, h2): "1" if rng.random() < density else "0"
                for h1 in range(len(omega.patch1.ball))
                for h2 in range(len(omega.patch2.ball))
            }
            for sft in (golden_h_sft(), vertical_golden):
                report = grid_y_check(omega, as_rows(omega, y), sft)
                assert (list(report), report.satisfied, report.unchecked) == (
                    reference_y_check(omega, y, sft)
                )


def former_y_check(omega, rows, sft):
    """`grid_y_check` as it was before its memos: cell by cell, with the
    horizontal domino of a cell tested before its vertical one."""
    violations = []
    satisfied = 0
    unchecked = 0
    right2 = omega.patch2.right
    for h1, step1 in enumerate(omega.patch1.right):
        row = rows[h1]
        over = None if step1 is None else rows[step1]
        for h2, step2 in enumerate(right2):
            a = row[h2]
            if over is None:
                unchecked += 1
            elif (a, over[h2]) in sft.allowed_h:
                satisfied += 1
            else:
                violations.append(((h1, h2), "h", a, over[h2]))
            if step2 is None:
                unchecked += 1
            elif (a, row[step2]) in sft.allowed_v:
                satisfied += 1
            else:
                violations.append(((h1, h2), "v", a, row[step2]))
    return violations, satisfied, unchecked


@functools.cache
def y_check_grid(name):
    if name == "line":
        return ProductGridPatch(line_patch(4), line_patch(2))
    if name == "z2":
        return ProductGridPatch(plane_patch(2), plane_patch(2, "y"))
    ball = cayley_ball(GrigorchukOracle(), 4)
    cover = path_cover_search(ball, 2)
    return ProductGridPatch(from_translation_action(ball, cover.succ, cover.pred), line_patch(1))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_grid_y_check_matches_the_former_per_cell_loop(data):
    omega = y_check_grid(data.draw(st.sampled_from(["line", "z2", "cover"])))
    symbols = "abcd"[: data.draw(st.integers(2, 4))]
    pairs = sorted(itertools.product(symbols, repeat=2))
    sft = NNSFT2D(
        Alphabet(tuple(symbols)),
        frozenset(data.draw(st.sets(st.sampled_from(pairs)))),
        frozenset(data.draw(st.sets(st.sampled_from(pairs)))),
    )
    n1, n2 = len(omega.patch1.ball), len(omega.patch2.ball)
    # Rows drawn from a few distinct ones, so that equal rows meet unequal
    # rows one step above them.
    row = st.lists(st.sampled_from(symbols), min_size=n2, max_size=n2)
    pool = data.draw(st.lists(row, min_size=1, max_size=4))
    kind = data.draw(st.sampled_from([list, tuple]))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n1, max_size=n1))
    rows = [kind(pool[i]) for i in picks]
    report = grid_y_check(omega, rows, sft)
    assert (list(report), report.satisfied, report.unchecked) == former_y_check(omega, rows, sft)
