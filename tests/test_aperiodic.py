"""Repetition-free colorings, period detection, and periodic rows."""

from __future__ import annotations

import functools
import itertools
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groupshift.aperiodic import (
    ColoredBall,
    ColoringFailure,
    PeriodCandidate,
    PeriodStatus,
    ProbeReport,
    ProductColoring,
    colored_ball_from_descriptor,
    colored_ball_to_descriptor,
    detect_period,
    period_comparisons,
    product_aperiodicity_probe,
    square_free_search,
    square_free_verify,
    z_sft_periodic_point,
)
from groupshift.errors import ResourceLimit, SchemaError
from groupshift.groups import (
    FreeAbelianOracle,
    FreeGroupOracle,
    GrigorchukOracle,
    cayley_ball,
)


def line_ball(radius):
    return cayley_ball(FreeAbelianOracle(1), radius)


def line_word(radius):
    """Ternary word with no repeated block, long enough for the ball."""
    rules = {"0": "012", "1": "02", "2": "1"}
    word = "0"
    while len(word) < 2 * radius + 1:
        word = "".join(rules[ch] for ch in word)
    return word[: 2 * radius + 1]


def first_square(word):
    for i in range(len(word)):
        for half in range(1, (len(word) - i) // 2 + 1):
            if word[i : i + half] == word[i + half : i + 2 * half]:
                return (i, half)
    return None


def position(ball, h):
    word = ball.elements[h]
    return word.count("x") - word.count("x-")


def word_coloring(radius, offset=0):
    """Color position p of a radius ball by a repetition-free word."""
    source = line_word(radius + offset)
    ball = line_ball(radius)
    colors = {
        h: int(source[position(ball, h) + radius + offset]) for h in range(len(ball))
    }
    return ColoredBall(ball, colors, 3)


def test_colored_ball_must_be_total_and_in_range():
    ball = line_ball(1)
    with pytest.raises(SchemaError):
        ColoredBall(ball, {0: 0, 1: 0}, 1)
    with pytest.raises(SchemaError):
        ColoredBall(ball, {0: 0, 1: 1, 2: 2}, 2)
    with pytest.raises(SchemaError):
        ColoredBall(ball, {0: 0, 1: 0, 2: 0}, 0)
    cb = ColoredBall(ball, {0: 0, 1: 1, 2: 0}, 2)
    assert cb.colors[1] == 1


def test_period_candidate_must_move_something():
    with pytest.raises(ValueError):
        PeriodCandidate(((), ()))
    ok = PeriodCandidate(((), ("x",)))
    assert ok.components[1] == ("x",)


def test_alternating_colors_repeat_on_four_cells():
    ball = line_ball(3)
    colors = {h: (position(ball, h) + 3) % 2 for h in range(len(ball))}
    cb = ColoredBall(ball, colors, 2)
    assert square_free_verify(cb, 2) == []
    violations = square_free_verify(cb, 4)
    assert len(violations) == 4
    for path in violations:
        assert len(path) == len(set(path)) == 4
        word = [colors[v] for v in path]
        assert word[:2] == word[2:]
        assert path[0] < path[-1]


def test_distinct_colors_never_repeat():
    ball = line_ball(3)
    cb = ColoredBall(ball, {h: h for h in range(len(ball))}, len(ball))
    assert square_free_verify(cb, 6) == []


def test_word_coloring_is_repetition_free():
    assert first_square(line_word(10)) is None
    assert square_free_verify(word_coloring(10), 12) == []


def test_verify_budget_is_enforced():
    cb = word_coloring(3)
    with pytest.raises(ResourceLimit):
        square_free_verify(cb, 4, budget=5)


def test_length_bound_must_be_even():
    cb = word_coloring(2)
    with pytest.raises(ValueError):
        square_free_verify(cb, 3)
    with pytest.raises(ValueError):
        square_free_verify(cb, 0)


def test_search_colors_a_line_with_three_colors():
    ball = line_ball(10)
    found = square_free_search(ball, 3, 10)
    assert not isinstance(found, ColoringFailure)
    assert square_free_verify(found, 10) == []
    again = square_free_search(ball, 3, 10)
    assert again.colors == found.colors


def test_two_colors_always_repeat():
    ball = line_ball(2)
    result = square_free_search(ball, 2, 4)
    assert isinstance(result, ColoringFailure)
    for assignment in itertools.product(range(2), repeat=len(ball)):
        cb = ColoredBall(ball, dict(enumerate(assignment)), 2)
        assert square_free_verify(cb, 4), assignment


def test_single_vertex_is_trivially_colorable():
    ball = line_ball(0)
    found = square_free_search(ball, 1, 2)
    assert not isinstance(found, ColoringFailure)
    assert found.colors == {0: 0}


def test_search_budget_is_enforced():
    with pytest.raises(ResourceLimit):
        square_free_search(line_ball(10), 3, 10, budget=2)


def test_constant_coloring_respects_every_translation():
    ball = line_ball(4)
    constant = ColoredBall(ball, {h: 0 for h in range(len(ball))}, 1)
    coloring = ProductColoring((constant,))
    for word in (("x",), ("x-",), ("x", "x")):
        assert detect_period(coloring, PeriodCandidate((word,))) is PeriodStatus.RESPECTED
    with pytest.raises(ValueError):
        detect_period(coloring, PeriodCandidate((("x",), ())))


def test_repetition_free_coloring_breaks_every_short_translation():
    cb = word_coloring(4)
    coloring = ProductColoring((cb,))
    for h in range(1, len(cb.ball)):
        g = PeriodCandidate((cb.ball.elements[h],))
        assert detect_period(coloring, g) is PeriodStatus.BROKEN


def test_unreachable_translation_is_undetermined():
    cb = word_coloring(4)
    g = PeriodCandidate((("x",) * 9,))
    assert detect_period(ProductColoring((cb,)), g) is PeriodStatus.UNDETERMINED


def test_shifted_coloring_agrees_on_shared_comparisons():
    source = line_word(5)
    ball = line_ball(4)
    colant = {h: int(source[position(ball, h) + 5]) for h in range(len(ball))}
    shifted = {h: int(source[position(ball, h) + 6]) for h in range(len(ball))}
    one = ProductColoring((ColoredBall(ball, colant, 3),))
    other = ProductColoring((ColoredBall(ball, shifted, 3),))
    for word in (("x",), ("x", "x"), ("x-",)):
        g = PeriodCandidate((word,))
        base = period_comparisons(one, g)
        moved = period_comparisons(other, g)
        shared = 0
        for (h,), outcome in moved.items():
            p = position(ball, h) + 1
            if abs(p) > 4:
                continue
            key = (ball.index[("x",) * p if p >= 0 else ("x-",) * (-p)],)
            if key in base:
                assert base[key] == outcome
                shared += 1
        assert shared > 0


def three_factor_candidates(factors, limit):
    lists = [
        [cb.ball.elements[h] for h in range(len(cb.ball)) if cb.ball.distance[h] <= limit]
        for cb in factors
    ]
    for combo in itertools.product(*lists):
        if any(comp for comp in combo):
            yield combo


def test_broken_products_decompose_factorwise():
    ball = line_ball(4)
    constant = ColoredBall(ball, {h: 0 for h in range(len(ball))}, 1)
    factors = (word_coloring(4), word_coloring(4, offset=1), constant)
    coloring = ProductColoring(factors)
    for combo in three_factor_candidates(factors, 2):
        product_status = detect_period(coloring, PeriodCandidate(combo))
        component_broken = any(
            comp
            and detect_period(
                ProductColoring((factors[i],)), PeriodCandidate((comp,))
            )
            is PeriodStatus.BROKEN
            for i, comp in enumerate(combo)
        )
        assert (product_status is PeriodStatus.BROKEN) == component_broken, combo


def test_probe_confirms_three_repetition_free_factors():
    factors = tuple(word_coloring(4, offset=i) for i in range(3))
    report = product_aperiodicity_probe(factors, 2, 8)
    assert isinstance(report, ProbeReport)
    assert report.factor_violations == (0, 0, 0)
    assert len(report.entries) == 5 * 5 * 5 - 1
    for entry in report.entries:
        assert entry.status is PeriodStatus.BROKEN
        moving = [i for i, comp in enumerate(entry.candidate.components) if comp]
        assert entry.broken_by == moving[0]
    assert report.ok


def test_probe_reports_a_constant_factor_as_weak():
    ball = line_ball(4)
    constant = ColoredBall(ball, {h: 0 for h in range(len(ball))}, 1)
    factors = (word_coloring(4), word_coloring(4, offset=1), constant)
    report = product_aperiodicity_probe(factors, 2, 8)
    assert not report.ok
    assert report.factor_violations[0] == report.factor_violations[1] == 0
    assert report.factor_violations[2] > 0
    for entry in report.entries:
        moving = [i for i, comp in enumerate(entry.candidate.components) if comp]
        if moving == [2]:
            assert entry.status is PeriodStatus.RESPECTED
            assert entry.broken_by is None
        else:
            assert entry.status is PeriodStatus.BROKEN


def test_probe_handles_four_factors():
    factors = [word_coloring(10)] * 4
    started = time.perf_counter()
    report = product_aperiodicity_probe(factors, 2, 10)
    elapsed = time.perf_counter() - started
    assert len(report.entries) == 5**4 - 1
    assert all(entry.status is PeriodStatus.BROKEN for entry in report.entries)
    assert report.ok
    assert elapsed < 5.0


PROPERTY_GROUPS = (
    FreeAbelianOracle(1),
    FreeAbelianOracle(2),
    FreeGroupOracle(2),
    GrigorchukOracle(),
)


@functools.lru_cache(maxsize=None)
def property_ball(group: int, radius: int):
    return cayley_ball(PROPERTY_GROUPS[group], radius)


@st.composite
def product_colorings(draw):
    """One to three colored balls of radius <= 2 over Z, Z², F₂, Grigorchuk."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        ball = property_ball(
            draw(st.integers(0, len(PROPERTY_GROUPS) - 1)), draw(st.integers(0, 2))
        )
        k = draw(st.integers(1, 3))
        colors = draw(
            st.lists(st.integers(0, k - 1), min_size=len(ball), max_size=len(ball))
        )
        factors.append(ColoredBall(ball, dict(enumerate(colors)), k))
    return ProductColoring(tuple(factors))


@st.composite
def period_cases(draw):
    """A product coloring and a candidate whose components may leave the balls."""
    coloring = draw(product_colorings())
    components = []
    for cb in coloring.factors:
        gens = cb.ball.oracle.gens
        moves = [s for s in gens.symbols if s != gens.identity]
        word = draw(st.lists(st.sampled_from(moves), max_size=2 * cb.ball.radius + 1))
        components.append(tuple(word))
    assume(any(components))
    return coloring, PeriodCandidate(tuple(components))


def enumerated_status(coloring, g):
    """The verdict read off every comparable product cell."""
    comparisons = period_comparisons(coloring, g)
    if not comparisons:
        return PeriodStatus.UNDETERMINED
    if all(comparisons.values()):
        return PeriodStatus.RESPECTED
    return PeriodStatus.BROKEN


def _constant(radius):
    ball = line_ball(radius)
    return ColoredBall(ball, {h: 0 for h in range(len(ball))}, 1)


@settings(max_examples=200, deadline=None)
@given(period_cases())
@example((ProductColoring((_constant(2),)), PeriodCandidate((("x",),))))
@example((ProductColoring((word_coloring(2),)), PeriodCandidate((("x",),))))
@example(
    (
        ProductColoring((word_coloring(2), word_coloring(1))),
        PeriodCandidate((("x",), ("x",) * 3)),
    )
)
def test_factorwise_verdict_matches_product_enumeration(case):
    coloring, g = case
    assert detect_period(coloring, g) is enumerated_status(coloring, g)


@settings(max_examples=60, deadline=None)
@given(product_colorings(), st.integers(0, 2))
@example(ProductColoring((word_coloring(2), _constant(2))), 1)
def test_probe_entries_match_product_enumeration(coloring, length_limit):
    report = product_aperiodicity_probe(coloring.factors, length_limit, 2)
    for entry in report.entries:
        components = entry.candidate.components
        assert entry.status is enumerated_status(coloring, entry.candidate)
        factor_broken = [
            bool(comp)
            and enumerated_status(ProductColoring((cb,)), PeriodCandidate((comp,)))
            is PeriodStatus.BROKEN
            for cb, comp in zip(coloring.factors, components)
        ]
        assert entry.broken_by == (
            factor_broken.index(True) if any(factor_broken) else None
        )


def test_periodic_rows_of_small_line_shifts():
    assert z_sft_periodic_point("01", {("0", "0"), ("0", "1"), ("1", "0")}) == "0"
    assert z_sft_periodic_point("01", {("0", "1"), ("1", "0")}) == "01"
    assert z_sft_periodic_point("01", set()) is None
    assert z_sft_periodic_point("abc", {("a", "b")}) is None
    assert z_sft_periodic_point("abc", {("a", "b"), ("b", "a")}) == "ab"


def test_periodic_row_matches_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        alphabet = "abcd"[: rng.randint(2, 4)]
        pairs = {
            (a, b)
            for a in alphabet
            for b in alphabet
            if rng.random() < 0.4
        }
        got = z_sft_periodic_point(alphabet, pairs)
        expected = None
        for length in range(1, 7):
            if expected is not None:
                break
            for word in itertools.product(sorted(alphabet), repeat=length):
                if all(
                    (word[i], word[(i + 1) % length]) in pairs
                    for i in range(length)
                ):
                    expected = "".join(word)
                    break
        assert got == expected, (alphabet, sorted(pairs))


def test_coloring_descriptor_round_trip():
    cb = word_coloring(2)
    obj = colored_ball_to_descriptor(cb)
    assert obj["radius"] == 2 and obj["k"] == 3
    back = colored_ball_from_descriptor(obj)
    assert back.colors == cb.colors
    with pytest.raises(SchemaError):
        colored_ball_from_descriptor({"group": obj["group"], "radius": 2, "colors": {}})
    bad = dict(obj)
    bad["colors"] = dict(obj["colors"], **{"x x x": 0})
    with pytest.raises(SchemaError):
        colored_ball_from_descriptor(bad)
