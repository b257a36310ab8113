"""Patterns, nearest-neighbour planar SFTs, and the one extension search.

Two pattern flavours live here: patterns over a group ball (supports are
canonical words, used by the effective-set machinery) and finite rectangular
patches of the plane (spread over product balls by the grid machinery).
The hole marker for
partial patches is None, which is reserved and never a user symbol.

`extension_search` is the one backtracking search: patch completion here,
and the square-free colorings and periodic rows of `aperiodic`, each
spending one `Budget` step per value tried.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .errors import (
    AlphabetMismatch,
    Record,
    ResourceLimit,
    SchemaError,
    Value,
    fields,
    need,
    read_int,
    read_list,
    read_object,
)
from .groups import Word

HOLE = None


class Budget:
    """Mutable step counter; spend() refuses once the limit is reached."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = max(0, int(limit))
        self.used = 0

    def spend(self, steps: int = 1) -> bool:
        """Charge steps, or refuse and use up the budget if they do not fit.

        Charging k steps at once leaves the same `used` as k charges of
        one: either all fit, or the limit is reached and the call refuses.
        """
        if self.used + steps > self.limit:
            self.used = self.limit
            return False
        self.used += steps
        return True


class Alphabet(Value):
    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple):
        self.symbols = symbols
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    def __contains__(self, sym) -> bool:
        return sym in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)


class Pattern(Record):
    """A finite pattern over a group: canonical words mapped to symbols."""

    __slots__ = ("support", "values")

    def __init__(self, support: tuple[Word, ...], values: dict):
        self.support = support
        self.values = values
        for word in self.support:
            if word not in self.values:
                raise ValueError("pattern values must be total on the support")

    @staticmethod
    def from_pairs(pairs) -> "Pattern":
        pairs = [(tuple(word), sym) for word, sym in pairs]
        return Pattern(tuple(w for w, _ in pairs), dict(pairs))


PatternCoding = tuple  # of (Word, symbol) pairs


def coding_from_pairs(pairs) -> PatternCoding:
    return tuple((tuple(word), sym) for word, sym in pairs)


class NNSFT2D(Value):
    """A nearest-neighbour planar SFT given by allowed dominoes."""

    __slots__ = ("alphabet", "allowed_h", "allowed_v")

    def __init__(self, alphabet: Alphabet, allowed_h: frozenset, allowed_v: frozenset):
        self.alphabet = alphabet
        self.allowed_h = allowed_h
        self.allowed_v = allowed_v
        symbols = set(self.alphabet.symbols)
        for a, b in itertools.chain(self.allowed_h, self.allowed_v):
            if a not in symbols or b not in symbols:
                raise ValueError("allowed pair uses a symbol outside the alphabet")


def full_shift(symbols) -> NNSFT2D:
    alphabet = Alphabet(tuple(symbols))
    pairs = frozenset(itertools.product(alphabet.symbols, repeat=2))
    return NNSFT2D(alphabet, pairs, pairs)


def sft_from_descriptor(obj, path: str = "sft") -> NNSFT2D:
    symbols, allowed_h, allowed_v = fields(obj, path, "alphabet", "allowed_h", "allowed_v")
    read_list(symbols, f"{path}.alphabet", "expected a non-empty list")
    for i, sym in enumerate(symbols):
        need(not isinstance(sym, (list, dict)), f"{path}.alphabet[{i}]", "expected a symbol")
    try:
        alphabet = Alphabet(tuple(symbols))
    except ValueError as exc:
        raise SchemaError(f"{path}.alphabet", str(exc)) from exc

    def pair_set(raw, key):
        pairs, where = set(), f"{path}.{key}"
        for i, entry in enumerate(read_list(raw, where, "expected a list of pairs", empty=True)):
            at = f"{where}[{i}]"
            need(isinstance(entry, list) and len(entry) == 2, at, "expected a 2-element list")
            need(entry[0] in alphabet and entry[1] in alphabet, at, "symbol outside the alphabet")
            pairs.add((entry[0], entry[1]))
        return frozenset(pairs)

    return NNSFT2D(alphabet, pair_set(allowed_h, "allowed_h"), pair_set(allowed_v, "allowed_v"))


class Patch2D(Value):
    """A rectangular window of the plane; x grows right, y grows up.

    Cells missing from the mapping (or mapped to None) are holes.
    """

    __slots__ = ("x0", "y0", "width", "height", "cells")
    __hash__ = None

    def __init__(self, x0: int, y0: int, width: int, height: int, cells: dict):
        self.x0 = x0
        self.y0 = y0
        self.width = width
        self.height = height
        self.cells = cells
        if self.width < 1 or self.height < 1:
            raise ValueError("patch dimensions must be positive")
        for (x, y) in self.cells:
            if not self.contains(x, y):
                raise ValueError(f"cell ({x},{y}) lies outside the patch rectangle")

    def contains(self, x: int, y: int) -> bool:
        return self.x0 <= x < self.x0 + self.width and self.y0 <= y < self.y0 + self.height

    def get(self, x: int, y: int):
        return self.cells.get((x, y))

    def positions(self):
        for y in range(self.y0, self.y0 + self.height):
            for x in range(self.x0, self.x0 + self.width):
                yield (x, y)

    def translated(self, dx: int, dy: int) -> "Patch2D":
        return Patch2D(
            self.x0 + dx,
            self.y0 + dy,
            self.width,
            self.height,
            {(x + dx, y + dy): v for (x, y), v in self.cells.items()},
        )


def patch_from_descriptor(obj, path: str = "patch") -> Patch2D:
    origin = read_object(obj, path).get("origin", [0, 0])
    where, text = f"{path}.origin", "expected [x, y] integers"
    need(isinstance(origin, list) and len(origin) == 2, where, text)
    x0, y0 = (read_int(v, where, text=text) for v in origin)
    rows = read_list(obj.get("rows"), f"{path}.rows", "expected a non-empty list of rows")
    width = len(rows[0]) if isinstance(rows[0], list) else None
    cells = {}
    for r, row in enumerate(rows):
        need(isinstance(row, list) and len(row) == width, f"{path}.rows[{r}]", "ragged row")
        for c, value in enumerate(row):
            if value is not None:
                cells[(x0 + c, y0 + r)] = value
    return Patch2D(x0, y0, width, len(rows), cells)


def patch_to_descriptor(patch: Patch2D) -> dict:
    rows = []
    for y in range(patch.y0, patch.y0 + patch.height):
        rows.append([patch.get(x, y) for x in range(patch.x0, patch.x0 + patch.width)])
    return {"origin": [patch.x0, patch.y0], "rows": rows}


class Violations(list):
    """The one report of every local checker: the list of the constraints
    that failed, with `satisfied`, how many held, and `unchecked`, how many
    reach past the edge of the ball or patch or touch a hole.  It is falsy
    exactly when nothing failed."""

    satisfied = 0
    unchecked = 0

    def tally(self, report: "Violations") -> None:
        """Add the counts of another report to these."""
        self.satisfied += report.satisfied
        self.unchecked += report.unchecked

    @property
    def violations(self) -> list:
        # Read only by bench/workloads/geometry.py; goes with the benchmark
        # refresh (ROADMAP item 1).
        return list(self)


def check_patch_nn(sft: NNSFT2D, patch: Patch2D) -> Violations:
    """Every adjacent pair that violates the SFT, as ((x, y), axis, a, b).

    The pair is anchored at its left (for "h") or bottom (for "v") cell.
    A pair whose second cell lies outside the patch, or that touches a
    hole, counts as unchecked; an allowed pair counts as satisfied.
    """
    for value in patch.cells.values():
        if value is not HOLE and value not in sft.alphabet:
            raise AlphabetMismatch(repr(value))
    axes = (("h", 1, 0, sft.allowed_h), ("v", 0, 1, sft.allowed_v))
    violations = Violations()
    for (x, y) in patch.positions():
        a = patch.get(x, y)
        for axis, dx, dy, allowed in axes:
            b = patch.get(x + dx, y + dy)
            if a is HOLE or b is HOLE or not patch.contains(x + dx, y + dy):
                violations.unchecked += 1
            elif (a, b) in allowed:
                violations.satisfied += 1
            else:
                violations.append(((x, y), axis, a, b))
    return violations


def _candidates(sft: NNSFT2D, cells: dict, x: int, y: int, patch: Patch2D) -> list:
    options = []
    left = cells.get((x - 1, y)) if patch.contains(x - 1, y) else HOLE
    right = cells.get((x + 1, y)) if patch.contains(x + 1, y) else HOLE
    below = cells.get((x, y - 1)) if patch.contains(x, y - 1) else HOLE
    above = cells.get((x, y + 1)) if patch.contains(x, y + 1) else HOLE
    for sym in sft.alphabet.symbols:
        if left is not HOLE and (left, sym) not in sft.allowed_h:
            continue
        if right is not HOLE and (sym, right) not in sft.allowed_h:
            continue
        if below is not HOLE and (below, sym) not in sft.allowed_v:
            continue
        if above is not HOLE and (sym, above) not in sft.allowed_v:
            continue
        options.append(sym)
    return options


def extension_search(cells, choose, budget: Budget, refusal: str, fits=None, fixed=()):
    """The first full assignment of the cells that extends `fixed`, or None.

    `choose(open, values)` gives the next open cell (open cells keep the
    order of `cells`) and the values to try there, in order; `fits(cell,
    values)`, if given, is checked once a value is set.  Each value tried
    spends one budget step; a refused step raises ResourceLimit(refusal).
    """
    values = dict(fixed)
    open_cells = [cell for cell in cells if cell not in values]

    def extend() -> bool:
        if not open_cells:
            return True
        cell, options = choose(open_cells, values)
        at = open_cells.index(cell)
        del open_cells[at]
        for value in options:
            if not budget.spend():
                raise ResourceLimit(refusal)
            values[cell] = value
            if (fits is None or fits(cell, values)) and extend():
                return True
        values.pop(cell, None)
        open_cells.insert(at, cell)
        return False

    return values if extend() else None


def patch_extension_search(
    sft: NNSFT2D, partial: Patch2D, max_nodes: int = 200_000
) -> Optional[Patch2D]:
    """Complete a partial patch, or None when no completion exists.

    Backtracking assigns the most constrained hole first (ties in (y, x)
    order) and tries symbols in alphabet order, so results are reproducible.
    """
    cells = {pos: v for pos, v in partial.cells.items() if v is not HOLE}
    if check_patch_nn(sft, partial):
        return None

    def choose(holes, values):
        scored = [(_candidates(sft, values, x, y, partial), (x, y)) for x, y in holes]
        options, pick = min(scored, key=lambda pair: len(pair[0]))
        return pick, options

    refusal = f"extension search exceeded {max_nodes} nodes"
    found = extension_search(partial.positions(), choose, Budget(max_nodes), refusal, fixed=cells)
    if found is None:
        return None
    return Patch2D(partial.x0, partial.y0, partial.width, partial.height, found)
