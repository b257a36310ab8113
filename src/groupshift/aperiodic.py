"""Repetition-free colorings and period detection on group balls.

A coloring of a ball is repetition-free when no simple path through the
graph reads a color word of the form ww.  Such colorings break every small
translation: shifting the ball along a group element must change the colors
somewhere.  This module searches for repetition-free colorings, verifies
them, detects whether a candidate translation is respected or broken by a
(product) coloring, and computes periodic rows of one-dimensional
nearest-neighbour shifts.

A product cell matches its translate exactly when every factor cell does,
so a product verdict is combined from factor verdicts and product cells
are never enumerated: Undetermined if some factor is, else Broken if some
factor is, else Respected.
"""

from __future__ import annotations

import itertools
import sys
from enum import Enum

from .errors import GroupshiftError, Record, ResourceLimit, SchemaError, Value, read_int
from .groups import (
    CayleyBall,
    Word,
    ball_from_descriptor,
    ball_to_descriptor,
    cells_from_words,
    cells_to_words,
)
from .shiftcore import Budget, extension_search


class PeriodStatus(Enum):
    """Outcome of comparing a coloring with its own translate."""

    RESPECTED = "Respected"
    BROKEN = "Broken"
    UNDETERMINED = "Undetermined"


class ColoredBall:
    """A total assignment of color indices below ``k`` to a ball; `paths`,
    when given, names the field of each cell in range errors."""

    def __init__(self, ball: CayleyBall, colors: dict, k: int, paths: dict | None = None):
        if k < 1:
            raise SchemaError("k", "need at least one color")
        for h in range(len(ball)):
            c = colors.get(h)
            if c is None:
                raise SchemaError(f"colors[{h}]", "colors must cover the whole ball")
            if type(c) is not int or not 0 <= c < k:
                where = paths[h] if paths else f"colors[{h}]"
                raise SchemaError(where, f"expected an integer in [0, {k})")
        self.ball = ball
        self.colors = dict(colors)
        self.k = k


class PeriodCandidate(Value):
    """One translation word per factor, not all of them empty."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[Word, ...]):
        self.components = components
        if not self.components or all(not comp for comp in self.components):
            raise ValueError("a period candidate must move at least one factor")


class ProductColoring(Record):
    """Componentwise colors over the product of several colored balls."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[ColoredBall, ...]):
        self.factors = factors


class ColoringFailure(Record):
    """Definite failure of the coloring search."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


class ProbeEntry(Value):
    """Verdict for one candidate translation of a product coloring."""

    __slots__ = ("candidate", "status", "broken_by")

    def __init__(self, candidate: PeriodCandidate, status: PeriodStatus, broken_by: int | None):
        self.candidate = candidate
        self.status = status
        self.broken_by = broken_by


class ProbeReport(Record):
    """All candidate verdicts plus the repetition count of each factor."""

    __slots__ = ("entries", "factor_violations")

    def __init__(self, entries: tuple[ProbeEntry, ...], factor_violations: tuple[int, ...]):
        self.entries = entries
        self.factor_violations = factor_violations

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.factor_violations) and all(
            e.status is not PeriodStatus.RESPECTED for e in self.entries
        )


def _check_even_length(max_len: int) -> None:
    if max_len < 2 or max_len % 2 != 0:
        raise ValueError("the path length bound must be an even integer >= 2")


def square_free_verify(cb: ColoredBall, max_len: int, budget: int | None = None):
    """List the simple paths of even length <= max_len whose colors read ww.

    Paths step along non-identity generator edges and never repeat a
    vertex.  A path and its reversal read the same repetition, so each
    offending path is reported once, oriented from its smaller endpoint.
    """
    _check_even_length(max_len)
    adj = [sorted(cb.ball.neighbors(h)) for h in range(len(cb.ball))]
    colors = cb.colors
    violations: list[tuple[int, ...]] = []
    extensions = Budget(sys.maxsize if budget is None else budget)

    def walk(path: list[int], used: set[int]) -> None:
        length = len(path)
        if length % 2 == 0 and path[0] < path[-1]:
            half = length // 2
            if all(colors[path[i]] == colors[path[half + i]] for i in range(half)):
                violations.append(tuple(path))
        if length == max_len:
            return
        for nxt in adj[path[-1]]:
            if nxt in used:
                continue
            if not extensions.spend():
                raise ResourceLimit(f"path enumeration exceeded {budget} extensions")
            path.append(nxt)
            used.add(nxt)
            walk(path, used)
            path.pop()
            used.remove(nxt)

    for start in range(len(cb.ball)):
        walk([start], {start})
    return violations


def _is_square(word: list[int]) -> bool:
    half = len(word) // 2
    return word[:half] == word[half:]


def _arms(v: int, colors: dict, adj, max_extra: int):
    """Simple paths from v through already-colored vertices, as vertex lists."""
    arms = [[v]]
    stack = [[v]]
    while stack:
        path = stack.pop()
        if len(path) - 1 == max_extra:
            continue
        for nxt in adj[path[-1]]:
            if nxt in path or nxt not in colors:
                continue
            extended = path + [nxt]
            arms.append(extended)
            stack.append(extended)
    return arms


def _square_through(v: int, colors: dict, adj, max_len: int) -> bool:
    """Does some even simple path through v read a repeated color word?"""
    arms = _arms(v, colors, adj, max_len - 1)
    for left in arms:
        left_set = set(left[1:])
        for right in arms:
            total = len(left) + len(right) - 1
            if total % 2 or total < 2 or total > max_len:
                continue
            if left_set & set(right[1:]):
                continue
            word = [colors[x] for x in reversed(left[1:])]
            word.append(colors[v])
            word.extend(colors[x] for x in right[1:])
            if _is_square(word):
                return True
    return False


def square_free_search(
    ball: CayleyBall, k: int, max_len: int, budget: int | None = None
):
    """Backtracking search for a repetition-free k-coloring of the ball.

    Vertices are colored in ball order; each assignment is pruned as soon
    as some even path through the new vertex repeats.  The final coloring
    is re-verified from scratch rather than trusted from the pruning.
    """
    if k < 1:
        raise ValueError("need at least one color")
    _check_even_length(max_len)
    adj = [sorted(ball.neighbors(h)) for h in range(len(ball))]
    colors = extension_search(
        range(len(ball)),
        lambda open_cells, _: (open_cells[0], range(k)),
        Budget(sys.maxsize if budget is None else budget),
        f"coloring search exceeded {budget} assignments",
        lambda h, colored: not _square_through(h, colored, adj, max_len),
    )
    if colors is None:
        return ColoringFailure(
            f"no {k}-coloring of the ball avoids repetitions up to length {max_len}"
        )
    result = ColoredBall(ball, colors, k)
    if square_free_verify(result, max_len):
        raise GroupshiftError("search pruning let a repetition through")
    return result


def _translate_pairs(cb: ColoredBall, component: Word):
    """Cells h paired with h*component when the translate stays in the ball."""
    ball = cb.ball
    pairs = []
    for h in range(len(ball)):
        target = ball.resolve(ball.elements[h] + tuple(component))
        if target is not None:
            pairs.append((h, target))
    return pairs


def period_comparisons(coloring: ProductColoring, g: PeriodCandidate):
    """Map each comparable product cell to whether its translate matches.

    A product cell is comparable when every component translate stays in
    its factor ball; the value records equality of the two color tuples.
    This enumerates all product cells, so it is the reference the tests
    check the factorwise `detect_period` against; the benchmark tracer
    also resolves it by name.
    """
    if len(g.components) != len(coloring.factors):
        raise ValueError("candidate and coloring have different factor counts")
    pair_lists = []
    for cb, comp in zip(coloring.factors, g.components):
        pairs = _translate_pairs(cb, comp)
        if not pairs:
            return {}
        pair_lists.append(pairs)
    out: dict[tuple[int, ...], bool] = {}
    for combo in itertools.product(*pair_lists):
        key = tuple(h for h, _ in combo)
        out[key] = all(
            cb.colors[h] == cb.colors[t]
            for cb, (h, t) in zip(coloring.factors, combo)
        )
    return out


def _factor_status(cb: ColoredBall, component: Word) -> PeriodStatus:
    """Verdict of one factor: no comparable cell, a mismatch, or neither."""
    pairs = _translate_pairs(cb, component)
    if not pairs:
        return PeriodStatus.UNDETERMINED
    if all(cb.colors[h] == cb.colors[t] for h, t in pairs):
        return PeriodStatus.RESPECTED
    return PeriodStatus.BROKEN


_PRECEDENCE = (PeriodStatus.UNDETERMINED, PeriodStatus.BROKEN, PeriodStatus.RESPECTED)


def _combine(statuses) -> PeriodStatus:
    return min(statuses, key=_PRECEDENCE.index)


def detect_period(coloring: ProductColoring, g: PeriodCandidate) -> PeriodStatus:
    """Three-valued verdict: does the coloring respect the translation g?

    Broken needs one mismatching comparable cell; Respected needs at least
    one comparison and no mismatch; no comparable cell is Undetermined,
    never silently promoted to Respected.  A product cell matches its
    translate exactly when every factor cell does, so the verdict is
    decided factor by factor: Undetermined if some factor is, else Broken
    if some factor is, else Respected.
    """
    if len(g.components) != len(coloring.factors):
        raise ValueError("candidate and coloring have different factor counts")
    return _combine(
        _factor_status(cb, comp) for cb, comp in zip(coloring.factors, g.components)
    )


def product_aperiodicity_probe(
    factors,
    length_limit: int,
    square_length: int,
    budget: int | None = None,
) -> ProbeReport:
    """Try every short translation against a product of colored balls.

    Candidates combine one ball element of length <= length_limit per
    factor, skipping the all-identity combination.  Each verdict is
    combined from one status per (factor, component), as in
    `detect_period`; broken_by names the first Broken factor.  Each
    factor is also re-checked for repetitions up to square_length; a
    factor that fails shows up both in the counts and as Respected
    candidates.
    """
    factors = tuple(factors)
    violation_counts = tuple(
        len(square_free_verify(cb, square_length, budget)) for cb in factors
    )
    # The identity component pairs every cell with itself: Respected.
    tables = [
        {
            word: _factor_status(cb, word)
            for word, dist in zip(cb.ball.elements, cb.ball.distance)
            if dist <= length_limit
        }
        for cb in factors
    ]
    entries = []
    for combo in itertools.product(*(table.items() for table in tables)):
        components = tuple(comp for comp, _ in combo)
        if not any(components):
            continue
        statuses = [status for _, status in combo]
        broken = [i for i, status in enumerate(statuses) if status is PeriodStatus.BROKEN]
        candidate = PeriodCandidate(components)
        entries.append(ProbeEntry(candidate, _combine(statuses), broken[0] if broken else None))
    return ProbeReport(tuple(entries), violation_counts)


def z_sft_periodic_point(alphabet, allowed) -> str | None:
    """Least periodic row of a nearest-neighbour shift on a line.

    The result is the smallest word under (length, lexicographic) order all
    of whose cyclic neighbour pairs are allowed, or None when there is none.
    A shortest such word visits no symbol twice, so it is searched for on
    Z/n for n up to the alphabet size.  A symbol is refused at position i
    when the word's first symbol lies more than n - i allowed steps ahead
    of it, so a search without an answer stops early.
    """
    allowed = set(allowed)
    order = sorted(set(alphabet))
    # ahead[a][b]: the fewest allowed steps, at least one, from a to b.
    ahead = {}
    for a in order:
        dist = ahead[a] = {}
        frontier, d = [a], 1
        while frontier:
            frontier = [
                b for b in order if b not in dist and any((u, b) in allowed for u in frontier)
            ]
            dist.update(dict.fromkeys(frontier, d))
            d += 1

    def fits(i, w):  # n is the length being searched
        back = ahead[w[i]].get(w[0], n + 1)
        return back <= n - i and (i == 0 or (w[i - 1], w[i]) in allowed)

    for n in range(1, len(order) + 1):
        row = extension_search(
            range(n), lambda open_cells, _: (open_cells[0], order), Budget(sys.maxsize), "", fits
        )
        if row is not None:
            return "".join(row[i] for i in range(n))
    return None


def colored_ball_to_descriptor(cb: ColoredBall) -> dict:
    return {**ball_to_descriptor(cb.ball), "k": cb.k, "colors": cells_to_words(cb.ball, cb.colors)}


def colored_ball_from_descriptor(obj, path: str = "coloring") -> ColoredBall:
    ball = ball_from_descriptor(obj, path, "k", "colors")
    k = read_int(obj["k"], f"{path}.k", 1)
    colors, paths = {}, {}
    for idx, value, where in cells_from_words(ball, obj["colors"], f"{path}.colors"):
        colors[idx], paths[idx] = read_int(value, where), where
    return ColoredBall(ball, colors, k, paths)
