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
from dataclasses import dataclass
from enum import Enum

from .errors import GroupshiftError, ResourceLimit, SchemaError
from .groups import CayleyBall, Word, cayley_ball, group_from_descriptor, parse_word


class PeriodStatus(Enum):
    """Outcome of comparing a coloring with its own translate."""

    RESPECTED = "Respected"
    BROKEN = "Broken"
    UNDETERMINED = "Undetermined"


class ColoredBall:
    """A total assignment of color indices below ``k`` to a ball."""

    def __init__(self, ball: CayleyBall, colors: dict, k: int):
        if k < 1:
            raise SchemaError("k", "need at least one color")
        for h in range(len(ball)):
            c = colors.get(h)
            if c is None:
                raise SchemaError(f"colors[{h}]", "colors must cover the whole ball")
            if not isinstance(c, int) or not 0 <= c < k:
                raise SchemaError(f"colors[{h}]", f"expected an integer in [0, {k})")
        self.ball = ball
        self.colors = dict(colors)
        self.k = k


@dataclass(frozen=True)
class PeriodCandidate:
    """One translation word per factor, not all of them empty."""

    components: tuple[Word, ...]

    def __post_init__(self):
        if not self.components or all(not comp for comp in self.components):
            raise ValueError("a period candidate must move at least one factor")


@dataclass(frozen=True, eq=False)
class ProductColoring:
    """Componentwise colors over the product of several colored balls."""

    factors: tuple[ColoredBall, ...]


@dataclass(frozen=True, eq=False)
class ColoringFailure:
    """Definite failure of the coloring search."""

    reason: str


@dataclass(frozen=True)
class ProbeEntry:
    """Verdict for one candidate translation of a product coloring."""

    candidate: PeriodCandidate
    status: PeriodStatus
    broken_by: int | None


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """All candidate verdicts plus the repetition count of each factor."""

    entries: tuple[ProbeEntry, ...]
    factor_violations: tuple[int, ...]

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
    steps = 0

    def walk(path: list[int], used: set[int]) -> None:
        nonlocal steps
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
            steps += 1
            if budget is not None and steps > budget:
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
    n = len(ball)
    colors: dict[int, int] = {}
    steps = 0

    def assign(i: int) -> bool:
        nonlocal steps
        if i == n:
            return True
        for c in range(k):
            steps += 1
            if budget is not None and steps > budget:
                raise ResourceLimit(f"coloring search exceeded {budget} assignments")
            colors[i] = c
            if not _square_through(i, colors, adj, max_len) and assign(i + 1):
                return True
            del colors[i]
        return False

    if not assign(0):
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

    Symbols with no usable successor or predecessor are trimmed until the
    transition graph stabilizes; the result is the smallest word under
    (length, lexicographic) order all of whose cyclic neighbour pairs are
    allowed, or None when no cycle survives.
    """
    allowed = set(allowed)
    alive = set(alphabet)
    changed = True
    while changed:
        changed = False
        for sym in sorted(alive):
            has_succ = any((sym, t) in allowed for t in alive)
            has_pred = any((t, sym) in allowed for t in alive)
            if not (has_succ and has_pred):
                alive.remove(sym)
                changed = True
    if not alive:
        return None
    order = sorted(alive)
    for length in range(1, len(order) + 1):
        for word in itertools.product(order, repeat=length):
            if all(
                (word[i], word[(i + 1) % length]) in allowed for i in range(length)
            ):
                return "".join(word)
    return None


def colored_ball_to_descriptor(cb: ColoredBall) -> dict:
    colors = {
        " ".join(cb.ball.elements[h]): cb.colors[h] for h in range(len(cb.ball))
    }
    return {
        "group": cb.ball.oracle.descriptor,
        "radius": cb.ball.radius,
        "k": cb.k,
        "colors": colors,
    }


def colored_ball_from_descriptor(obj, path: str = "coloring") -> ColoredBall:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in ("group", "radius", "k", "colors"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing")
    oracle = group_from_descriptor(obj["group"], f"{path}.group")
    radius = obj["radius"]
    if not isinstance(radius, int) or radius < 0:
        raise SchemaError(f"{path}.radius", "expected a non-negative integer")
    k = obj["k"]
    if not isinstance(k, int) or k < 1:
        raise SchemaError(f"{path}.k", "expected a positive integer")
    raw = obj["colors"]
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}.colors", "expected an object")
    ball = cayley_ball(oracle, radius)
    colors = {}
    for text, value in raw.items():
        idx = ball.resolve(parse_word(text))
        if idx is None:
            raise SchemaError(f"{path}.colors[{text!r}]", "names a cell outside the ball")
        if not isinstance(value, int):
            raise SchemaError(f"{path}.colors[{text!r}]", "expected an integer")
        colors[idx] = value
    return ColoredBall(ball, colors, k)
