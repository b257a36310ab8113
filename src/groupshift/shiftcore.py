"""Patterns, nearest-neighbour planar SFTs, recoding, and patch search.

Two pattern flavours live here: patterns over a group ball (supports are
canonical words, used by the effective-set machinery) and finite rectangular
patches of the plane (spread over product balls by the grid machinery).
The hole marker for
partial patches is None, which is reserved and never a user symbol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (
    AlphabetMismatch,
    DegenerateK,
    OutOfBall,
    ResourceLimit,
    SchemaError,
)
from .groups import CayleyBall, Word

HOLE = None


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    def __contains__(self, sym) -> bool:
        return sym in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, sym) -> int:
        return self.symbols.index(sym)


@dataclass(frozen=True, eq=False)
class Pattern:
    """A finite pattern over a group: canonical words mapped to symbols."""

    support: tuple[Word, ...]
    values: dict

    def __post_init__(self):
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


@dataclass(frozen=True)
class NNSFT2D:
    """A nearest-neighbour planar SFT given by allowed dominoes."""

    alphabet: Alphabet
    allowed_h: frozenset
    allowed_v: frozenset

    def __post_init__(self):
        for a, b in itertools.chain(self.allowed_h, self.allowed_v):
            if a not in self.alphabet or b not in self.alphabet:
                raise ValueError("allowed pair uses a symbol outside the alphabet")


def full_shift(symbols) -> NNSFT2D:
    alphabet = Alphabet(tuple(symbols))
    pairs = frozenset(itertools.product(alphabet.symbols, repeat=2))
    return NNSFT2D(alphabet, pairs, pairs)


def sft_from_descriptor(obj, path: str = "sft") -> NNSFT2D:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in ("alphabet", "allowed_h", "allowed_v"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing field")
    symbols = obj["alphabet"]
    if not isinstance(symbols, list) or not symbols:
        raise SchemaError(f"{path}.alphabet", "expected a non-empty list")
    try:
        alphabet = Alphabet(tuple(symbols))
    except ValueError as exc:
        raise SchemaError(f"{path}.alphabet", str(exc)) from exc

    def pair_set(key):
        raw = obj[key]
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.{key}", "expected a list of pairs")
        pairs = set()
        for i, entry in enumerate(raw):
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError(f"{path}.{key}[{i}]", "expected a 2-element list")
            if entry[0] not in alphabet or entry[1] not in alphabet:
                raise SchemaError(f"{path}.{key}[{i}]", "symbol outside the alphabet")
            pairs.add((entry[0], entry[1]))
        return frozenset(pairs)

    return NNSFT2D(alphabet, pair_set("allowed_h"), pair_set("allowed_v"))


def sft_to_descriptor(sft: NNSFT2D) -> dict:
    return {
        "alphabet": list(sft.alphabet.symbols),
        "allowed_h": sorted([list(p) for p in sft.allowed_h]),
        "allowed_v": sorted([list(p) for p in sft.allowed_v]),
    }


@dataclass
class Patch2D:
    """A rectangular window of the plane; x grows right, y grows up.

    Cells missing from the mapping (or mapped to None) are holes.
    """

    x0: int
    y0: int
    width: int
    height: int
    cells: dict

    def __post_init__(self):
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

    def holes(self) -> list:
        return [(x, y) for (x, y) in self.positions() if self.get(x, y) is HOLE]

    def translated(self, dx: int, dy: int) -> "Patch2D":
        return Patch2D(
            self.x0 + dx,
            self.y0 + dy,
            self.width,
            self.height,
            {(x + dx, y + dy): v for (x, y), v in self.cells.items()},
        )


def patch_from_descriptor(obj, path: str = "patch") -> Patch2D:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    origin = obj.get("origin", [0, 0])
    if not (isinstance(origin, list) and len(origin) == 2):
        raise SchemaError(f"{path}.origin", "expected [x, y]")
    rows = obj.get("rows")
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{path}.rows", "expected a non-empty list of rows")
    width = len(rows[0])
    cells = {}
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(f"{path}.rows[{r}]", "ragged row")
        for c, value in enumerate(row):
            if value is not None:
                cells[(origin[0] + c, origin[1] + r)] = value
    return Patch2D(origin[0], origin[1], width, len(rows), cells)


def patch_to_descriptor(patch: Patch2D) -> dict:
    rows = []
    for y in range(patch.y0, patch.y0 + patch.height):
        rows.append([patch.get(x, y) for x in range(patch.x0, patch.x0 + patch.width)])
    return {"origin": [patch.x0, patch.y0], "rows": rows}


class Violations(list):
    """A checker's violation list that also counts its local constraints:
    `satisfied` held, `unchecked` reached past the edge of the ball or
    patch, or touched a hole."""

    satisfied = 0
    unchecked = 0

    def tally(self, report) -> None:
        self.satisfied += report.satisfied
        self.unchecked += report.unchecked


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


def _block_admissible(block, forbidden, k: int) -> bool:
    # block[dx][dy]; a forbidden pattern occurs if some translate of its
    # support fits fully inside the k-square and matches.
    for pattern in forbidden:
        support = list(pattern)
        max_x = max(dx for dx, _ in support)
        max_y = max(dy for _, dy in support)
        for ox in range(k - max_x):
            for oy in range(k - max_y):
                if all(block[ox + dx][oy + dy] == pattern[(dx, dy)] for dx, dy in support):
                    return False
    return True


def higher_block_recode(alphabet: Alphabet, forbidden, k: int):
    """Recode forbidden k-square patterns into a nearest-neighbour SFT.

    `forbidden` is an iterable of {(col, row): symbol} mappings with supports
    inside {0..k-1}^2.  Returns the block SFT and the 1-block factor map
    (block -> its (0,0) cell).  For k = 1 the symbols stay as they are.
    """
    if k < 1:
        raise DegenerateK(str(k))
    forbidden = [dict(p) for p in forbidden]
    for pattern in forbidden:
        if not pattern:
            raise ValueError("empty forbidden pattern forbids everything")
        for (dx, dy), sym in pattern.items():
            if not (0 <= dx < k and 0 <= dy < k):
                raise ValueError("forbidden support leaves the k-square")
            if sym not in alphabet:
                raise AlphabetMismatch(repr(sym))

    if k == 1:
        rejected = {next(iter(p.values())) for p in forbidden if len(p) == 1}
        symbols = tuple(s for s in alphabet.symbols if s not in rejected)
        new_alphabet = Alphabet(symbols)
        pairs = frozenset(itertools.product(symbols, repeat=2))
        return NNSFT2D(new_alphabet, pairs, pairs), {s: s for s in symbols}

    blocks = []
    for flat in itertools.product(alphabet.symbols, repeat=k * k):
        block = tuple(tuple(flat[dx * k + dy] for dy in range(k)) for dx in range(k))
        if _block_admissible(block, forbidden, k):
            blocks.append(block)
    allowed_h = frozenset(
        (b, c) for b in blocks for c in blocks if b[1:] == c[:-1]
    )
    allowed_v = frozenset(
        (b, c)
        for b in blocks
        for c in blocks
        if all(b[dx][1:] == c[dx][:-1] for dx in range(k))
    )
    block_map = {b: b[0][0] for b in blocks}
    return NNSFT2D(Alphabet(tuple(blocks)), allowed_h, allowed_v), block_map


def recode_patch(patch: Patch2D, k: int) -> Patch2D:
    """Slide a k-square window over a total patch, producing the block image."""
    if patch.width < k or patch.height < k:
        raise ValueError("patch too small to recode")
    cells = {}
    for x in range(patch.x0, patch.x0 + patch.width - k + 1):
        for y in range(patch.y0, patch.y0 + patch.height - k + 1):
            block = tuple(
                tuple(patch.get(x + dx, y + dy) for dy in range(k)) for dx in range(k)
            )
            cells[(x, y)] = block if k > 1 else block[0][0]
    return Patch2D(patch.x0, patch.y0, patch.width - k + 1, patch.height - k + 1, cells)


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


def patch_extension_search(
    sft: NNSFT2D, partial: Patch2D, max_nodes: int = 200_000
) -> Optional[Patch2D]:
    """Complete a partial patch, or None when no completion exists.

    Backtracking assigns the most constrained hole first (ties in (y, x)
    order) and tries symbols in alphabet order, so results are reproducible.
    """
    for value in partial.cells.values():
        if value is not HOLE and value not in sft.alphabet:
            raise AlphabetMismatch(repr(value))
    cells = {pos: v for pos, v in partial.cells.items() if v is not HOLE}
    probe = Patch2D(partial.x0, partial.y0, partial.width, partial.height, dict(cells))
    if check_patch_nn(sft, probe):
        return None
    holes = sorted(
        (pos for pos in partial.positions() if pos not in cells),
        key=lambda pos: (pos[1], pos[0]),
    )
    nodes = 0

    def solve(remaining: list) -> bool:
        nonlocal nodes
        if not remaining:
            return True
        scored = [
            (len(_candidates(sft, cells, x, y, partial)), (y, x), (x, y))
            for (x, y) in remaining
        ]
        scored.sort()
        _, _, pick = scored[0]
        rest = [pos for pos in remaining if pos != pick]
        for sym in _candidates(sft, cells, pick[0], pick[1], partial):
            nodes += 1
            if nodes > max_nodes:
                raise ResourceLimit(f"extension search exceeded {max_nodes} nodes")
            cells[pick] = sym
            if solve(rest):
                return True
            del cells[pick]
        return False

    if not solve(holes):
        return None
    return Patch2D(partial.x0, partial.y0, partial.width, partial.height, cells)


def pattern_occurs(ball: CayleyBall, values, pattern: Pattern, at) -> bool:
    """Does the pattern occur in a ball patch at the given translate?

    `values` maps element indices to symbols and must cover every translate;
    `at` is an element index or a word over the ball's generator set.
    """
    if isinstance(at, int):
        base = ball.elements[at]
    else:
        base = tuple(at)
        if ball.resolve(base) is None:
            raise OutOfBall(f"base {base!r} is outside the ball")
    resolved = []
    for h in pattern.support:
        idx = ball.resolve(base + h)
        if idx is None:
            raise OutOfBall(f"translate of {h!r} leaves the ball")
        resolved.append((idx, h))
    return all(values[idx] == pattern.values[h] for idx, h in resolved)
