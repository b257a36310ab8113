"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each test pins down one externally meaningful behaviour of the package
at a fixed finite scale, together with the wall-clock budget it must
meet.  Expected values are either hand-derived or cross-checked against
an independent brute-force enumeration inside the test itself.
"""

from __future__ import annotations

import itertools
import time

from groupshift.aperiodic import (
    ColoredBall,
    ColoringFailure,
    PeriodStatus,
    product_aperiodicity_probe,
    square_free_search,
    square_free_verify,
    z_sft_periodic_point,
)
from groupshift.assembly import (
    check_F1,
    check_F2,
    check_F3,
    check_F4,
    factor_phi,
    hat_phi_project,
    projective_check,
    standard_context,
    witness_construct,
)
from groupshift.effective import (
    Verdict,
    coding_from_pairs,
    make_codec,
    rho_action_oracle,
    rho_set_oracle,
)
from groupshift.grid import (
    GridLabel,
    GridPatch,
    PathCover,
    ProductGridPatch,
    check_grid_local,
    from_translation_action,
    path_cover_search,
)
from groupshift.groups import (
    FreeAbelianOracle,
    GrigorchukOracle,
    MealyAutomaton,
    cayley_ball,
    parse_word,
)
from groupshift.shiftcore import Alphabet, Pattern
from groupshift.toeplitz import decode_procedure, psi_encode

# A 27-symbol window of the filler-coded spreading of "010": depth-0
# bits sit at every third cell, depth-1 bits at every ninth, one
# depth-2 bit in the middle, filler everywhere else.
KNOWN_WINDOW = "␣0␣10␣␣0␣00␣10␣␣0␣␣0␣10␣␣0␣"

ADJACENT_ONES = (coding_from_pairs([((), "1"), (("x",), "1")]),)

GENERATOR_SYMBOLS = ("1", "x", "x-")


def line_patch(radius):
    ball = cayley_ball(FreeAbelianOracle(1), radius)
    succ = {h: ball.elements[h] + ("x",) for h in range(len(ball))}
    pred = {h: ball.elements[h] + ("x-",) for h in range(len(ball))}
    return from_translation_action(ball, succ, pred)


def golden_context(radius=4):
    codec = make_codec(FreeAbelianOracle(1), Alphabet(("0", "1")), radius)
    ctx = standard_context(
        rho_set_oracle(codec, ADJACENT_ONES),
        rho_action_oracle(codec, ADJACENT_ONES),
        codec.kappa,
    )
    return ctx, codec


def coordinate(word):
    return word.count("x") - word.count("x-")


def parity_prefixes(codec, g_radius, length=7):
    shell = cayley_ball(FreeAbelianOracle(1), g_radius + 1)
    slots = [coordinate(codec.ball.elements[m]) for m in range(length)]
    return {
        word: "".join(str((coordinate(word) + q) % 2) for q in slots)
        for word in shell.elements
    }


def build_witness(radius1=28, radius2=28):
    ctx, codec = golden_context()
    g_ball = cayley_ball(FreeAbelianOracle(1), 1)
    prefixes = parity_prefixes(codec, g_ball.radius)
    omega_bar = ProductGridPatch(line_patch(radius1), line_patch(radius2))
    patch = witness_construct(ctx, g_ball, prefixes, omega_bar)
    return patch, ctx, codec


def test_criterion_01_known_window_decodes_instantly():
    started = time.perf_counter()
    prefix = decode_procedure(KNOWN_WINDOW)
    elapsed = time.perf_counter() - started
    assert prefix == "010"
    assert elapsed < 0.001


def test_criterion_02_roundtrip_every_window_of_one_period():
    started = time.perf_counter()
    block = 3**5
    period = 3**6
    checked = 0
    for bits in itertools.product("01", repeat=5):
        prefix = "".join(bits)
        # Two padding bits cover the deeper carriers inside one period.
        spread = psi_encode(prefix + "00", range(1, period + block + 1))
        for offset in range(period):
            assert decode_procedure(spread[offset : offset + block]) == prefix
            checked += 1
    assert checked == 32 * period
    assert time.perf_counter() - started < 5.0


def test_criterion_03_self_similar_word_problem_cross_validated():
    started = time.perf_counter()
    oracle = GrigorchukOracle()
    identity_words = ["a a", "b b", "c c", "d d", "b c d", "a d a d a d a d"]
    other_words = ["a", "b", "a b", "a d", "a d a d"]
    for text in identity_words:
        assert oracle.is_identity(parse_word(text)), text
    for text in other_words:
        assert not oracle.is_identity(parse_word(text)), text

    automaton = MealyAutomaton(
        ("a", "b", "c", "d", "id"),
        {
            "a": {"0": "id", "1": "id"},
            "b": {"0": "a", "1": "c"},
            "c": {"0": "a", "1": "d"},
            "d": {"0": "id", "1": "b"},
            "id": {"0": "id", "1": "id"},
        },
        {
            "a": {"0": "1", "1": "0"},
            "b": {"0": "0", "1": "1"},
            "c": {"0": "0", "1": "1"},
            "d": {"0": "0", "1": "1"},
            "id": {"0": "0", "1": "1"},
        },
    )

    def transforms_trivially(text):
        letters = text.split()
        for length in range(1, 13):
            for bits in itertools.product("01", repeat=length):
                string = "".join(bits)
                moved = string
                for letter in letters:
                    moved = automaton.run_state(letter, moved)
                if moved != string:
                    return False
        return True

    for text in identity_words:
        assert transforms_trivially(text), text
    for text in other_words:
        assert not transforms_trivially(text), text
    assert time.perf_counter() - started < 10.0


def test_criterion_04_grid_mutations_always_leave_a_trace():
    started = time.perf_counter()
    omega = ProductGridPatch(line_patch(4), line_patch(4))
    for factor in (omega.patch1, omega.patch2):
        baseline = check_grid_local(factor)
        assert baseline == []
        for h in range(len(factor.ball)):
            original = factor.labels[h]
            for left in GENERATOR_SYMBOLS:
                for right in GENERATOR_SYMBOLS:
                    mutated_label = GridLabel(left, right)
                    if mutated_label == original:
                        continue
                    labels = dict(factor.labels)
                    labels[h] = mutated_label
                    report = check_grid_local(GridPatch(factor.ball, labels))
                    detected = bool(report) or (
                        report.unchecked != baseline.unchecked
                    )
                    assert detected, (h, left, right)
    assert time.perf_counter() - started < 30.0


def test_criterion_05_path_cover_of_self_similar_ball():
    started = time.perf_counter()
    ball = cayley_ball(GrigorchukOracle(), 5)
    cover = path_cover_search(ball, 2)
    assert isinstance(cover, PathCover)
    assert cover.validate(2) == []
    assert time.perf_counter() - started < 120.0


def test_criterion_06_full_assembly_round_trip():
    started = time.perf_counter()
    patch, ctx, codec = build_witness()
    assert check_F1(patch, ctx, 100_000) == []
    assert check_F2(patch) == []
    assert check_F3(patch, ctx) == []
    assert check_F4(patch, ctx) == []
    assert factor_phi(patch, ctx, 2) == "011"
    projection = hat_phi_project(patch, ctx, codec)
    expected = Pattern.from_pairs([((), "0"), (("x",), "1"), (("x-",), "1")])
    assert projective_check(patch, projection, expected)
    assert time.perf_counter() - started < 120.0


def test_criterion_07_translating_the_witness_stays_consistent():
    started = time.perf_counter()
    patch, ctx, _ = build_witness()
    reference = factor_phi(patch, ctx, 2)
    inverse = FreeAbelianOracle(1).gens.inverse
    for s in ("x", "x-"):
        translated = factor_phi(patch, ctx, 2, at=(inverse[s],))
        verdict = ctx.T.query(s, translated, reference, 100_000)
        assert verdict is Verdict.UNKNOWN, s
    assert time.perf_counter() - started < 60.0


def test_criterion_08_set_oracle_agrees_with_enumeration():
    started = time.perf_counter()
    ctx, codec = golden_context()
    addresses = [coordinate(codec.ball.elements[m]) for m in range(9)]
    checked = 0
    for length in range(1, 9):
        for bits in itertools.product("01", repeat=length):
            word = "".join(bits)
            span = addresses[:length]
            low, high = min(span), max(span)
            pinned = dict(zip(span, word))
            admits_row = False
            for fill in itertools.product("01", repeat=high - low + 1):
                row = {low + i: b for i, b in enumerate(fill)}
                if any(row[p] != pinned[p] for p in pinned):
                    continue
                if any(row[i] == "1" and row[i + 1] == "1" for i in range(low, high)):
                    continue
                admits_row = True
                break
            verdict = ctx.X.query(word, 100_000)
            assert (verdict is Verdict.CERTIFIED_EMPTY) == (not admits_row), word
            checked += 1
    assert checked == 510
    assert time.perf_counter() - started < 60.0


def test_criterion_09_square_free_suite():
    started = time.perf_counter()
    ball = cayley_ball(FreeAbelianOracle(1), 10)
    colored = square_free_search(ball, 3, 10)
    assert isinstance(colored, ColoredBall)
    assert square_free_verify(colored, 10) == []

    failed = square_free_search(ball, 2, 4)
    assert isinstance(failed, ColoringFailure)

    probe = product_aperiodicity_probe([colored, colored, colored], 2, 10)
    assert probe.ok
    assert len(probe.entries) == 5**3 - 1
    assert all(entry.status is PeriodStatus.BROKEN for entry in probe.entries)
    assert time.perf_counter() - started < 60.0


def test_criterion_10_line_periodic_points_match_brute_force():
    started = time.perf_counter()
    alphabet = ("0", "1")
    all_pairs = tuple(itertools.product(alphabet, repeat=2))
    for picks in itertools.product((False, True), repeat=4):
        allowed = {pair for pair, keep in zip(all_pairs, picks) if keep}
        brute = None
        for length in range(1, 7):
            for word in itertools.product(alphabet, repeat=length):
                if all(
                    (word[i], word[(i + 1) % length]) in allowed
                    for i in range(length)
                ):
                    brute = "".join(word)
                    break
            if brute is not None:
                break
        assert z_sft_periodic_point(alphabet, allowed) == brute, allowed
    assert time.perf_counter() - started < 1.0
