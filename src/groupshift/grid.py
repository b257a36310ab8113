"""Direction labels on group balls and the planar reads they induce.

Each cell of a ball carries a pair of generators (left, right); following
the right label repeatedly walks a discrete line through the group, so a
labelled ball approximates a translation action of the integers.  Two
labelled balls give a plane: stepping right in the first factor and in the
second factor spans a grid along which configurations are read as planar
patches.  The labellings are read off path covers of a ball, built
deterministically from the edges of one generator pair.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    BallTooSmall,
    CycleDetected,
    DisplacementNotGenerator,
    Record,
    SchemaError,
    UnknownSymbol,
    Value,
    need,
)
from .groups import (
    CayleyBall,
    ball_from_descriptor,
    ball_to_descriptor,
    cells_from_words,
    cells_to_words,
)
from .shiftcore import NNSFT2D, Patch2D, Violations, check_patch_nn


class GridLabel(Value):
    """A (left, right) pair of generator symbols."""

    __slots__ = ("left", "right")

    def __init__(self, left: str, right: str):
        self.left = left
        self.right = right


class GridPatch:
    """A total assignment of direction labels to a ball.

    The labels are read-only; `right[h]` and `left[h]` are the indices of
    h·right(h) and h·left(h), or None where the step leaves the ball.
    """

    def __init__(self, ball: CayleyBall, labels: dict):
        gens = ball.oracle.gens
        right = []
        left = []
        for h in range(len(ball)):
            label = labels.get(h)
            if label is None:
                raise SchemaError(f"labels[{h}]", "labels must cover the whole ball")
            for sym in (label.left, label.right):
                if sym not in gens.inverse:
                    raise UnknownSymbol(f"label symbol {sym!r} is not a generator")
            right.append(ball.edges.get((h, label.right)))
            left.append(ball.edges.get((h, label.left)))
        self.ball = ball
        self.labels = MappingProxyType(dict(labels))
        self.right = tuple(right)
        self.left = tuple(left)


class ProductGridPatch(Record):
    """Independent direction labels on two factor balls."""

    __slots__ = ("patch1", "patch2")

    def __init__(self, patch1: GridPatch, patch2: GridPatch):
        self.patch1 = patch1
        self.patch2 = patch2


def check_grid_local(patch: GridPatch) -> Violations:
    """Check that right and left labels of adjacent cells are inverse.

    For every cell h with right(h) = s, the cell h·s must carry
    left = s⁻¹, and symmetrically with left and right swapped.  Pairs
    whose partner cell lies outside the ball are only counted as
    unchecked.
    """
    gens = patch.ball.oracle.gens
    violations = Violations()
    satisfied = 0
    unchecked = 0
    for h in range(len(patch.ball)):
        label = patch.labels[h]
        for direction, sym, partner in (
            ("right", label.right, patch.right[h]),
            ("left", label.left, patch.left[h]),
        ):
            if partner is None:
                unchecked += 1
                continue
            back = patch.labels[partner]
            observed = back.left if direction == "right" else back.right
            if observed == gens.inverse_of(sym):
                satisfied += 1
            else:
                violations.append((h, direction, sym, observed))
    violations.satisfied = satisfied
    violations.unchecked = unchecked
    return violations


def induced_step(patch: GridPatch, h: int, direction: int):
    """One step along the labelled line; None when it exits the ball."""
    return (patch.right if direction > 0 else patch.left)[h]


class OrbitTrace(Value):
    """Result of following right labels: kind is Path, Cycle or LeftBall."""

    __slots__ = ("kind", "cells", "cycle_length")

    def __init__(self, kind: str, cells: tuple, cycle_length: int = 0):
        self.kind = kind
        self.cells = cells
        self.cycle_length = cycle_length


def orbit_trace(patch: GridPatch, h: int, max_steps: int = 10_000) -> OrbitTrace:
    """Follow right labels until the walk exits, repeats, or runs out."""
    seen = {h: 0}
    cells = [h]
    current = h
    for step in range(1, max_steps + 1):
        current = induced_step(patch, current, +1)
        if current is None:
            return OrbitTrace("LeftBall", tuple(cells))
        if current in seen:
            return OrbitTrace("Cycle", tuple(cells), step - seen[current])
        seen[current] = step
        cells.append(current)
    return OrbitTrace("Path", tuple(cells))


def from_translation_action(
    ball: CayleyBall, succ: dict, pred: dict, within=None
) -> GridPatch:
    """Labels read off a partial successor/predecessor action on a ball.

    Mapping values are ball indices or words (words may name elements
    outside the ball).  The label symbol is the displacement h⁻¹·target,
    which must be a single generator.  Where a direction is missing the
    first generator whose edge leaves the patch is used, so the local
    rule records the cell as unchecked rather than violated; a cell with
    no such outward edge raises DisplacementNotGenerator.  `within`
    restricts the patch to a smaller radius while still resolving
    displacements on the full ball.
    """
    sub = ball.restrict(within) if within is not None else ball
    gens = ball.oracle.gens
    moving = [s for s in gens.symbols if s != gens.identity]
    labels = {}
    for h in range(len(sub)):
        out = []
        for mapping in (pred, succ):
            target = mapping.get(h)
            if target is None:
                sym = next((s for s in moving if (h, s) not in sub.edges), None)
                if sym is None:
                    raise DisplacementNotGenerator(
                        f"cell {h} has no mapping and no outward edge"
                    )
            else:
                sym = _displacement(ball, h, target)
            out.append(sym)
        labels[h] = GridLabel(out[0], out[1])
    return GridPatch(sub, labels)


def _displacement(ball: CayleyBall, h: int, target) -> str:
    """The first generator s with h·s equal to the target cell or word.

    A word is followed along the edges, and keyed once only if it leaves
    the ball: a target outside the ball is matched against the key of h
    stepped by each generator whose product leaves the ball too.
    """
    oracle = ball.oracle
    symbols = oracle.gens.symbols
    cell = target if isinstance(target, int) else ball.follow(tuple(target))
    if cell is None:
        key = oracle.canonical_key(tuple(target))
        cell = ball._keyed.get(key)
    if cell is not None:
        found = (s for s in symbols if ball.edges.get((h, s)) == cell)
    else:
        source = oracle.canonical_key(ball.elements[h])
        found = (
            s for s in symbols if (h, s) not in ball.edges and oracle.key_step(source, s) == key
        )
    sym = next(found, None)
    if sym is None:
        raise DisplacementNotGenerator(f"cell {h}: displacement to {target!r} is not a generator")
    return sym


class PathCover(Record):
    """Vertex-disjoint simple paths on a ball, as successor/predecessor maps."""

    __slots__ = ("ball", "succ", "pred")

    def __init__(self, ball: CayleyBall, succ: dict, pred: dict):
        self.ball = ball
        self.succ = succ
        self.pred = pred

    def validate(self, margin: int) -> list:
        """Problems with the cover; an empty list means it is valid.

        Checks mutual inverses, generator edges, absence of cycles, and
        that cells deeper than radius − margin have both neighbours.
        """
        problems = []
        for name, forward, backward in (("succ", self.succ, self.pred), ("pred", self.pred, self.succ)):
            for h, t in forward.items():
                if t == h:
                    problems.append(f"{name}[{h}] is a self-loop")
                if backward.get(t) != h:
                    problems.append(f"{name}[{h}]={t} lacks the inverse entry")
                if not any(
                    self.ball.edges.get((h, s)) == t
                    for s in self.ball.oracle.gens.symbols
                    if s != self.ball.oracle.gens.identity
                ):
                    problems.append(f"{name}[{h}]={t} is not a generator edge")
        interior_limit = self.ball.radius - margin
        for h in range(len(self.ball)):
            if self.ball.distance[h] <= interior_limit:
                if h not in self.succ or h not in self.pred:
                    problems.append(f"interior cell {h} is a path endpoint")
        visited = set()
        for h in self.succ:
            if h in visited or h in self.pred:
                continue
            cur = h
            while cur is not None:
                visited.add(cur)
                cur = self.succ.get(cur)
        on_paths = visited | {t for t in self.pred if t not in self.succ}
        for h in self.succ:
            if h not in on_paths:
                problems.append(f"cell {h} lies on a cycle")
        return problems


class CoverFailure(Record):
    """Why no generator pair yields a valid cover."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


def _generator_pairs(gens) -> list:
    """(s, s⁻¹) for each non-involution s, then each pair of involutions,
    in generator order."""
    moving = [s for s in gens.symbols if s != gens.identity]
    inverse = gens.inverse
    pairs = [(s, inverse[s]) for i, s in enumerate(moving) if inverse[s] in moving[i + 1 :]]
    involutions = [s for s in moving if inverse[s] == s]
    return pairs + list(itertools.combinations(involutions, 2))


def path_cover_search(ball: CayleyBall, margin: int, seed: int = 0) -> PathCover:
    """Cover the deep part of a ball by vertex-disjoint simple paths.

    Every cell at distance ≤ radius − margin must end up in the interior
    of a path; endpoints may only sit in the boundary shell.  Each
    generator pair — (s, s⁻¹) for a non-involution s, or two involutions —
    gives every cell degree at most 2: its edges split the ball into the
    pieces of the cosets of ⟨s⟩ or of the dihedral group the involutions
    generate, so lines and cycles.  Cycles are cut at a boundary edge or
    merged into another component by exchanging a pair of edges.  Pairs
    are tried in generator order, non-involution pairs first, and the
    first that validates is returned; otherwise a CoverFailure names the
    first problem of the best pair.  The cover is deterministic: `seed`
    is accepted and has no effect.
    """
    if margin < 1 or ball.radius < margin:
        raise BallTooSmall("need radius ≥ margin ≥ 1")
    interior_limit = ball.radius - margin
    pairs = _generator_pairs(ball.oracle.gens)
    if not pairs:
        return CoverFailure(
            "no valid cover: the group has no generator pair "
            "(a non-involution or two involutions)"
        )
    best = None
    for pair in pairs:
        # A missing edge leaves the ball; a self-loop is a trivial generator.
        adjacency = {h: {ball.edges.get((h, s), h) for s in pair} - {h} for h in range(len(ball))}
        adjacency, cycles = _repair_cycles(adjacency, ball, interior_limit)
        if cycles:
            problems = [f"cycle of {len(cycle)} cells" for cycle in cycles]
        else:
            cover = _orient(adjacency, ball)
            problems = cover.validate(margin)
            if not problems:
                return cover
        if best is None or len(problems) < len(best[1]):
            best = (pair, problems)
    pair, problems = best
    return CoverFailure(
        f"no valid cover from {len(pairs)} generator pairs; the best, "
        f"({pair[0]}, {pair[1]}), has {len(problems)} problems, first: {problems[0]}"
    )


def _components(adjacency):
    seen = set()
    comps = []
    for h in adjacency:
        if h in seen or not adjacency[h]:
            continue
        comp = set()
        stack = [h]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adjacency[v] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def _repair_cycles(adjacency, ball, interior_limit):
    """Cut or merge cycle components until only paths remain, in one pass.

    The components are found once and walked in order of least cell.  A
    cut keeps a component's cells; a merge joins two components, which
    `comp_of` records, and a cycle merged with another cycle is a cycle
    again, so it is repaired once more.  Paths never close into cycles.
    On failure the current cycle and the later cycles are returned.
    """
    comps = _components(adjacency)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    is_cycle = [all(len(adjacency[v]) == 2 for v in comp) for comp in comps]
    depth = ball.distance
    for i, cycle in enumerate(comps):
        while is_cycle[i]:
            cuts = [
                (a, b)
                for a in cycle
                for b in adjacency[a]
                if a < b and depth[a] > interior_limit and depth[b] > interior_limit
            ]
            if cuts:
                # The outermost boundary edge; ties go to the least cells.
                a, b = max(cuts, key=lambda e: (sorted(depth[v] for v in e), -e[0], -e[1]))
                adjacency[a].discard(b)
                adjacency[b].discard(a)
                is_cycle[i] = False
                continue
            j = _two_opt(adjacency, ball, cycle, comp_of)
            if j is None:
                later = [c for k, c in enumerate(comps) if k > i and is_cycle[k]]
                return adjacency, [cycle] + later
            for v in comps[j]:
                comp_of[v] = i
            cycle |= comps[j]
            is_cycle[i], is_cycle[j] = is_cycle[j], False
    return adjacency, []


def _two_opt(adjacency, ball, cycle, comp_of):
    """Exchange one cycle edge with an edge of another component; the
    index of that component in `comp_of`, or None when no exchange fits."""
    tag = comp_of[min(cycle)]
    for a in sorted(cycle):
        for b in sorted(adjacency[a]):
            for c in sorted(ball.neighbors(a)):
                if comp_of.get(c, tag) == tag:  # c is isolated or on the cycle
                    continue
                for d in sorted(adjacency[c]):
                    if d in ball.neighbors(b):
                        adjacency[a].discard(b)
                        adjacency[b].discard(a)
                        adjacency[c].discard(d)
                        adjacency[d].discard(c)
                        adjacency[a].add(c)
                        adjacency[c].add(a)
                        adjacency[b].add(d)
                        adjacency[d].add(b)
                        return comp_of[c]
    return None


def _orient(adjacency, ball) -> PathCover:
    """Deterministic orientation of a linear forest into succ/pred maps."""
    succ = {}
    pred = {}
    for comp in _components(adjacency):
        ends = sorted(v for v in comp if len(adjacency[v]) <= 1)
        if not ends:
            continue
        start = ends[0]
        prev = None
        cur = start
        while cur is not None:
            nxt = next((v for v in sorted(adjacency[cur]) if v != prev), None)
            if nxt is not None:
                succ[cur] = nxt
                pred[nxt] = cur
            prev, cur = cur, nxt
    return PathCover(ball, succ, pred)


def grid_y_check(omega: ProductGridPatch, rows, sft: NNSFT2D) -> Violations:
    """Check a product-ball configuration against a planar local rule.

    The configuration is given row by row: rows[h₁][h₂].  The horizontal
    neighbour of (h₁,h₂) is one right-step in the first factor, the
    vertical neighbour one right-step in the second; pairs are tested
    against the allowed horizontal/vertical dominoes.  Within one call the
    vertical dominoes are tested once per distinct row and the horizontal
    ones once per distinct pair of a row and the row it steps to; cells
    are visited only where a domino fails, the horizontal one first.
    """
    violations = Violations()
    right2 = omega.patch2.right
    n2 = len(right2)
    steps2 = [(h2, step2) for h2, step2 in enumerate(right2) if step2 is not None]
    failed_v = {}
    failed_h = {}
    satisfied = 0
    unchecked = 0
    for h1, step1 in enumerate(omega.patch1.right):
        row = rows[h1]
        key = tuple(row)
        bad_v = failed_v.get(key)
        if bad_v is None:
            bad_v = failed_v[key] = {
                h2 for h2, step2 in steps2 if (row[h2], row[step2]) not in sft.allowed_v
            }
        unchecked += n2 - len(steps2)
        satisfied += len(steps2) - len(bad_v)
        if step1 is None:
            over, bad_h = None, set()
            unchecked += n2
        else:
            over = rows[step1]
            pair = (key, tuple(over))
            bad_h = failed_h.get(pair)
            if bad_h is None:
                bad_h = failed_h[pair] = {
                    h2 for h2 in range(n2) if (row[h2], over[h2]) not in sft.allowed_h
                }
            satisfied += n2 - len(bad_h)
        if bad_h or bad_v:
            for h2 in sorted(bad_h | bad_v):
                a = row[h2]
                if h2 in bad_h:
                    violations.append(((h1, h2), "h", a, over[h2]))
                if h2 in bad_v:
                    violations.append(((h1, h2), "v", a, row[right2[h2]]))
    violations.satisfied = satisfied
    violations.unchecked = unchecked
    return violations


def _walk_line(patch: GridPatch, base: int, lo: int, hi: int):
    """Cells at offsets lo..hi−1 from base along the labels, else None."""
    cells = {0: base}
    for step, offsets in ((patch.right, range(1, hi)), (patch.left, range(-1, lo - 1, -1))):
        cur = base
        for z in offsets:
            cur = step[cur]
            if cur is None:
                return None
            cells[z] = cur
    return {z: c for z, c in cells.items() if lo <= z < hi}


def read_grid(omega: ProductGridPatch, y: dict, base, window) -> Patch2D:
    """Planar patch read along the grid; None if the walk exits a ball.

    `window` is (x0, y0, width, height) in grid coordinates relative to
    the base pair: cell (x, y) holds y at (x steps in factor one,
    y steps in factor two) from base.
    """
    x0, y0, width, height = window
    b1, b2 = base
    line1 = _walk_line(omega.patch1, b1, x0, x0 + width)
    line2 = _walk_line(omega.patch2, b2, y0, y0 + height)
    if line1 is None or line2 is None:
        return None
    cells = {}
    for x, h1 in line1.items():
        for yy, h2 in line2.items():
            cells[(x, yy)] = y[(h1, h2)]
    return Patch2D(x0, y0, width, height, cells)


def _chains(patch: GridPatch):
    """Maximal label chains; each cell gets (chain id, coordinate)."""
    right, left = patch.right, patch.left
    where = {}
    chains = []
    for h in range(len(patch.ball)):
        if h in where:
            continue
        cur = h
        steps = 0
        while True:
            prev = left[cur]
            if prev is None or prev in where:
                break
            if prev == cur or steps > len(patch.ball):
                raise CycleDetected(f"cell {h} lies on a label cycle")
            cur, steps = prev, steps + 1
        chain = []
        chain_id = len(chains)
        while cur is not None and cur not in where:
            where[cur] = (chain_id, len(chain))
            chain.append(cur)
            nxt = right[cur]
            if nxt == cur:
                raise CycleDetected(f"cell {cur} is a label fixed point")
            cur = nxt
        if cur is not None and where.get(cur, (None,))[0] == chain_id:
            raise CycleDetected(f"cell {cur} closes a label cycle")
        chains.append(chain)
    return chains, where


def _coordinates(patch: GridPatch):
    """The label chains and each cell's grid coordinate x[h]: h's place on
    its chain minus the place of the chain's least cell, so the identity,
    cell 0, sits at 0.  Raises CycleDetected when the labels close a cycle.
    """
    chains, _ = _chains(patch)
    x = [0] * len(patch.ball)
    for chain in chains:
        for place, h in enumerate(chain, -chain.index(min(chain))):
            x[h] = place
    return chains, x


def _row_reader(patch: GridPatch, h: int, length: int):
    """A getter of the row window of a length rightwards from h out of a
    column's records, indexed by row cell; None when the walk leaves the
    ball."""
    line = _walk_line(patch, h, 0, length)
    if line is None:
        return None
    if length == 1:
        # An itemgetter of one index returns the item, not a 1-tuple.
        return lambda column: (column[h],)
    return itemgetter(*(line[x] for x in range(length)))


class SeedFailure(Record):
    """Seeding failure: the source patch cannot cover some orbit."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


def seed_grid_from_config(omega: ProductGridPatch, c: Patch2D, sft: NNSFT2D = None):
    """Spread a planar patch over a product ball along the grid labels.

    Cell pair (h1, h2) reads c at the grid coordinates `_coordinates`
    gives h1 and h2, so read_grid at the identity pair reproduces c.
    Returns that total configuration y, or a SeedFailure for the first
    cell, orbit class (a chain pair) by class, that c does not cover.
    Raises CycleDetected when a factor's labels close a cycle.
    """
    if sft is not None:
        bad = check_patch_nn(sft, c)
        if bad:
            return SeedFailure(f"source patch violates the local rule at {bad[0][0]}")
    chains1, x1 = _coordinates(omega.patch1)
    chains2, x2 = _coordinates(omega.patch2)
    y = {}
    for (id1, chain1), (id2, chain2) in itertools.product(enumerate(chains1), enumerate(chains2)):
        for h1, h2 in itertools.product(chain1, chain2):
            x, yy = x1[h1], x2[h2]
            if not c.contains(x, yy):
                return SeedFailure(
                    f"source patch misses cell ({x},{yy}) needed by class ({id1},{id2})"
                )
            val = c.get(x, yy)
            if val is None:
                return SeedFailure(f"source patch has a hole at ({x},{yy})")
            y[(h1, h2)] = val
    return y


def grid_patch_to_descriptor(patch: GridPatch) -> dict:
    labels = {h: [label.left, label.right] for h, label in patch.labels.items()}
    return {**ball_to_descriptor(patch.ball), "labels": cells_to_words(patch.ball, labels)}


def grid_patch_from_descriptor(obj, path: str = "grid", balls=None) -> GridPatch:
    ball = ball_from_descriptor(obj, path, "labels", balls=balls)
    labels = {}
    for idx, pair, where in cells_from_words(ball, obj["labels"], f"{path}.labels"):
        ok = isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)
        need(ok, where, "expected [left, right] symbols")
        labels[idx] = GridLabel(pair[0], pair[1])
    return GridPatch(ball, labels)


def grid_patch_to_dot(patch: GridPatch) -> str:
    """DOT digraph of the successor edges of a labelled ball."""
    lines = ["digraph grid {"]
    for h in range(len(patch.ball)):
        name = " ".join(patch.ball.elements[h]) or "1"
        lines.append(f'  n{h} [label="{name}"];')
    for h in range(len(patch.ball)):
        target = induced_step(patch, h, +1)
        if target is not None:
            lines.append(f"  n{h} -> n{target};")
    lines.append("}")
    return "\n".join(lines)
