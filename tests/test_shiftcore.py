"""Planar patches, recoding, extension search, and ball patterns."""

from __future__ import annotations

import itertools
import random

import pytest

from groupshift.errors import AlphabetMismatch, DegenerateK, OutOfBall
from groupshift.groups import FreeAbelianOracle, cayley_ball, parse_word
from groupshift.shiftcore import (
    Alphabet,
    NNSFT2D,
    Patch2D,
    Pattern,
    check_patch_nn,
    full_shift,
    higher_block_recode,
    patch_extension_search,
    patch_from_descriptor,
    patch_to_descriptor,
    pattern_occurs,
    recode_patch,
    sft_from_descriptor,
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


def test_check_patch_rejects_foreign_symbols():
    sft = golden_mean_sft()
    with pytest.raises(AlphabetMismatch):
        check_patch_nn(sft, row_patch("02"))


def test_recode_rejects_degenerate_block_size():
    with pytest.raises(DegenerateK):
        higher_block_recode(Alphabet(("0", "1")), [], 0)


def test_recode_block_counts():
    alphabet = Alphabet(("0", "1"))
    # No forbidden patterns: all 2x2 blocks survive.
    sft, block_map = higher_block_recode(alphabet, [], 2)
    assert len(sft.alphabet) == 16
    # Forbid the all-"1" square: one block is rejected.
    square = {(0, 0): "1", (1, 0): "1", (0, 1): "1", (1, 1): "1"}
    sft, block_map = higher_block_recode(alphabet, [square], 2)
    assert len(sft.alphabet) == 15
    assert all(block_map[b] == b[0][0] for b in sft.alphabet.symbols)


def test_recode_k1_keeps_symbols():
    alphabet = Alphabet(("0", "1", "2"))
    sft, block_map = higher_block_recode(alphabet, [{(0, 0): "2"}], 1)
    assert sft.alphabet.symbols == ("0", "1")
    assert block_map == {"0": "0", "1": "1"}


def test_recode_agrees_with_direct_checking_on_3x3_patches():
    # A 3x3 patch is admissible iff its 2-block image is a valid patch of
    # the recoded SFT (all blocks in the new alphabet, no domino violations).
    alphabet = Alphabet(("0", "1"))
    horizontal_11 = {(0, 0): "1", (1, 0): "1"}
    recoded, _ = higher_block_recode(alphabet, [horizontal_11], 2)
    for assignment in itertools.product("01", repeat=9):
        cells = {(i % 3, i // 3): assignment[i] for i in range(9)}
        patch = Patch2D(0, 0, 3, 3, cells)
        admissible = all(
            not (cells[(x, y)] == "1" and cells[(x + 1, y)] == "1")
            for x in range(2)
            for y in range(3)
        )
        image = recode_patch(patch, 2)
        in_alphabet = all(v in recoded.alphabet for v in image.cells.values())
        if not in_alphabet:
            assert not admissible
            continue
        assert admissible == (not check_patch_nn(recoded, image))


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


def test_pattern_occurs_on_a_line_ball():
    ball = cayley_ball(FreeAbelianOracle(1), 4)
    # Patch holding ...0 1 0 1 0... by parity of the displacement.
    values = {}
    for i, word in enumerate(ball.elements):
        net = word.count("x") - word.count("x-")
        values[i] = "1" if net % 2 else "0"
    adjacent_ones = Pattern.from_pairs([((), "1"), (("x",), "1")])
    for i, word in enumerate(ball.elements):
        if ball.distance[i] >= 4:
            continue
        assert not pattern_occurs(ball, values, adjacent_ones, i)
    empty = Pattern.from_pairs([])
    assert pattern_occurs(ball, values, empty, 0)
    single = Pattern.from_pairs([((), "0")])
    assert pattern_occurs(ball, values, single, 0)
    with pytest.raises(OutOfBall):
        pattern_occurs(ball, values, adjacent_ones, ball.index[parse_word("x x x x")])


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
