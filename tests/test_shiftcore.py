"""Planar patches, extension search, and SFT descriptors."""

from __future__ import annotations

import itertools
import random

import pytest

from groupshift.errors import AlphabetMismatch, ResourceLimit
from groupshift.shiftcore import (
    Alphabet,
    NNSFT2D,
    Patch2D,
    check_patch_nn,
    full_shift,
    patch_extension_search,
    patch_from_descriptor,
    patch_to_descriptor,
    sft_from_descriptor,
    _candidates,
)


def golden_mean_sft() -> NNSFT2D:
    # Horizontally forbid "11"; vertically everything is allowed.
    alphabet = Alphabet(("0", "1"))
    allowed_h = frozenset({("0", "0"), ("0", "1"), ("1", "0")})
    allowed_v = frozenset(itertools.product("01", repeat=2))
    return NNSFT2D(alphabet, allowed_h, allowed_v)


def row_patch(text: str) -> Patch2D:
    return Patch2D(0, 0, len(text), 1, {(i, 0): ch for i, ch in enumerate(text)})


def test_check_patch_counts_the_forbidden_domino():
    sft = golden_mean_sft()
    violations = check_patch_nn(sft, row_patch("0110"))
    assert len(violations) == 1
    assert violations[0][:2] == ((1, 0), "h")
    # Two allowed horizontal pairs; the last cell's right neighbour and
    # all four upper neighbours lie outside the row.
    assert (violations.satisfied, violations.unchecked) == (2, 5)
    # A hole at either end of a pair leaves it unchecked.
    holed = check_patch_nn(sft, Patch2D(0, 0, 3, 1, {(0, 0): "0", (2, 0): "1"}))
    assert holed == [] and (holed.satisfied, holed.unchecked) == (0, 6)


def test_single_cell_patch_has_no_adjacencies():
    sft = golden_mean_sft()
    assert check_patch_nn(sft, row_patch("1")) == []


def test_full_shift_accepts_random_patches():
    sft = full_shift(("0", "1"))
    rng = random.Random(5)
    cells = {(x, y): rng.choice("01") for x in range(5) for y in range(5)}
    patch = Patch2D(0, 0, 5, 5, cells)
    assert check_patch_nn(sft, patch) == []


def test_check_patch_is_translation_invariant():
    sft = golden_mean_sft()
    rng = random.Random(11)
    cells = {(x, y): rng.choice("01") for x in range(4) for y in range(3)}
    patch = Patch2D(0, 0, 4, 3, cells)
    moved = patch.translated(-7, 3)
    assert len(check_patch_nn(sft, patch)) == len(check_patch_nn(sft, moved))


@pytest.mark.parametrize(
    "allowed_h, allowed_v",
    [
        ({("a", "a"), ("b", "c")}, set()),
        ({("a", "b")}, {("a", "a"), ("c", "a")}),
    ],
)
def test_sft_rejects_a_pair_outside_the_alphabet(allowed_h, allowed_v):
    with pytest.raises(ValueError) as caught:
        NNSFT2D(Alphabet(("a", "b")), frozenset(allowed_h), frozenset(allowed_v))
    assert str(caught.value) == "allowed pair uses a symbol outside the alphabet"


def test_check_patch_rejects_foreign_symbols():
    sft = golden_mean_sft()
    with pytest.raises(AlphabetMismatch):
        check_patch_nn(sft, row_patch("02"))


def test_extension_search_fills_full_shift_with_first_symbol():
    sft = full_shift(("a", "b"))
    partial = Patch2D(0, 0, 3, 2, {})
    completed = patch_extension_search(sft, partial)
    assert completed is not None
    assert set(completed.cells.values()) == {"a"}


def test_extension_search_unsatisfiable():
    # Only the constant-"0" configuration is allowed.
    alphabet = Alphabet(("0", "1"))
    only_zero = frozenset({("0", "0")})
    sft = NNSFT2D(alphabet, only_zero, only_zero)
    partial = Patch2D(0, 0, 2, 2, {(0, 0): "1"})
    assert patch_extension_search(sft, partial) is None


def test_extension_search_golden_mean_strip():
    sft = golden_mean_sft()
    partial = Patch2D(0, 0, 3, 1, {(0, 0): "1", (2, 0): "1"})
    completed = patch_extension_search(sft, partial)
    assert completed is not None
    assert [completed.get(x, 0) for x in range(3)] == ["1", "0", "1"]


def test_extension_search_agrees_with_exhaustive_enumeration():
    rng = random.Random(23)
    symbols = ("0", "1", "2")
    for trial in range(25):
        size = len(symbols)
        allowed_h = frozenset(
            p for p in itertools.product(symbols, repeat=2) if rng.random() < 0.55
        )
        allowed_v = frozenset(
            p for p in itertools.product(symbols, repeat=2) if rng.random() < 0.55
        )
        sft = NNSFT2D(Alphabet(symbols), allowed_h, allowed_v)
        w, h = rng.choice([(2, 2), (3, 2), (3, 3)])
        cells = {}
        for x in range(w):
            for y in range(h):
                if rng.random() < 0.3:
                    cells[(x, y)] = rng.choice(symbols)
        partial = Patch2D(0, 0, w, h, cells)

        def satisfiable():
            holes = [p for p in partial.positions() if p not in cells]
            for fill in itertools.product(symbols, repeat=len(holes)):
                candidate = dict(cells)
                candidate.update(zip(holes, fill))
                if not check_patch_nn(sft, Patch2D(0, 0, w, h, candidate)):
                    return True
            return False

        found = patch_extension_search(sft, partial)
        assert (found is not None) == satisfiable()
        if found is not None:
            assert check_patch_nn(sft, found) == []
            assert all(found.get(x, y) is not None for (x, y) in found.positions())


def reference_extension_search(sft, partial):
    """The former loop of `patch_extension_search`: the completed cells, or
    None, and the number of nodes it tried."""
    cells = {pos: v for pos, v in partial.cells.items() if v is not None}
    if check_patch_nn(sft, partial):
        return None, 0
    holes = sorted(
        (pos for pos in partial.positions() if pos not in cells),
        key=lambda pos: (pos[1], pos[0]),
    )
    nodes = 0

    def solve(remaining):
        nonlocal nodes
        if not remaining:
            return True
        scored = sorted(
            (len(_candidates(sft, cells, x, y, partial)), (y, x), (x, y)) for (x, y) in remaining
        )
        _, _, pick = scored[0]
        rest = [pos for pos in remaining if pos != pick]
        for sym in _candidates(sft, cells, pick[0], pick[1], partial):
            nodes += 1
            cells[pick] = sym
            if solve(rest):
                return True
            del cells[pick]
        return False

    return (cells if solve(holes) else None), nodes


def random_partial(rng, symbols):
    """A random SFT over the symbols and a patch of it with holes, placed
    anywhere in the plane; some holes are explicit None cells."""
    pairs = list(itertools.product(symbols, repeat=2))
    density = rng.choice([0.4, 0.6, 0.8])
    allowed_h = frozenset(p for p in pairs if rng.random() < density)
    allowed_v = frozenset(p for p in pairs if rng.random() < density)
    sft = NNSFT2D(Alphabet(symbols), allowed_h, allowed_v)
    x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
    w, h = rng.randint(1, 6), rng.randint(1, 6)
    cells = {}
    for x in range(x0, x0 + w):
        for y in range(y0, y0 + h):
            roll = rng.random()
            if roll < 0.15:
                cells[(x, y)] = rng.choice(symbols)
            elif roll < 0.25:
                cells[(x, y)] = None
    return sft, Patch2D(x0, y0, w, h, cells)


@pytest.mark.parametrize("symbols", [("0", "1"), ("0", "1", "2")])
def test_extension_search_matches_the_former_loop(symbols):
    # The same completion or None, and the same smallest max_nodes: the
    # search succeeds with exactly the nodes the old loop tried and refuses
    # the last one with one fewer.
    rng = random.Random(36)
    tried = 0
    for _ in range(400):
        sft, partial = random_partial(rng, symbols)
        cells, nodes = reference_extension_search(sft, partial)
        for max_nodes in (200_000, max(nodes, 1)):
            found = patch_extension_search(sft, partial, max_nodes)
            assert (None if found is None else found.cells) == cells
        if nodes:
            tried += 1
            text = f"^extension search exceeded {nodes - 1} nodes$"
            with pytest.raises(ResourceLimit, match=text):
                patch_extension_search(sft, partial, nodes - 1)
    assert tried > 200


def test_patch_descriptor_round_trip():
    sft = sft_from_descriptor(
        {
            "alphabet": ["0", "1"],
            "allowed_h": [["0", "0"], ["0", "1"], ["1", "0"]],
            "allowed_v": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
        }
    )
    assert ("1", "1") not in sft.allowed_h
    obj = {"origin": [-1, 2], "rows": [["0", "1"], [None, "0"]]}
    patch = patch_from_descriptor(obj)
    assert patch.get(-1, 2) == "0"
    assert patch.get(-1, 3) is None
    back = patch_to_descriptor(patch)
    assert back["origin"] == [-1, 2]
    assert back["rows"][1] == [None, "0"]
