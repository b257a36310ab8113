"""Direction labels on group balls and the planar reads they induce.

Each cell of a ball carries a pair of generators (left, right); following
the right label repeatedly walks a discrete line through the group, so a
labelled ball approximates a translation action of the integers.  Two
labelled balls give a plane: stepping right in the first factor and in the
second factor spans a grid along which configurations are read as planar
patches.  A matching-based search produces the labellings from scratch by
covering a ball with vertex-disjoint paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BallTooSmall,
    CycleDetected,
    DisplacementNotGenerator,
    SchemaError,
    UnknownSymbol,
)
from .groups import CayleyBall, cayley_ball, group_from_descriptor, parse_word
from .shiftcore import NNSFT2D, Patch2D, check_patch_nn


@dataclass(frozen=True)
class GridLabel:
    """A (left, right) pair of generator symbols."""

    left: str
    right: str


class GridPatch:
    """A total assignment of direction labels to a ball."""

    def __init__(self, ball: CayleyBall, labels: dict):
        gens = ball.oracle.gens
        for h in range(len(ball)):
            label = labels.get(h)
            if label is None:
                raise SchemaError(f"labels[{h}]", "labels must cover the whole ball")
            for sym in (label.left, label.right):
                if sym not in gens.inverse:
                    raise UnknownSymbol(f"label symbol {sym!r} is not a generator")
        self.ball = ball
        self.labels = dict(labels)

    def label(self, h: int) -> GridLabel:
        return self.labels[h]


@dataclass(frozen=True, eq=False)
class ProductGridPatch:
    """Independent direction labels on two factor balls."""

    patch1: GridPatch
    patch2: GridPatch


@dataclass(frozen=True, eq=False)
class LocalCheckReport:
    """Constraint accounting: hard failures, passes, and boundary skips."""

    violations: list
    satisfied: int
    unchecked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_grid_local(patch: GridPatch) -> LocalCheckReport:
    """Check that right and left labels of adjacent cells are inverse.

    For every cell h with right(h) = s, the cell h·s must carry
    left = s⁻¹, and symmetrically with left and right swapped.  Pairs
    whose partner cell lies outside the ball are only counted as
    unchecked.
    """
    gens = patch.ball.oracle.gens
    violations = []
    satisfied = 0
    unchecked = 0
    for h in range(len(patch.ball)):
        label = patch.labels[h]
        for direction, sym in (("right", label.right), ("left", label.left)):
            partner = patch.ball.edges.get((h, sym))
            if partner is None:
                unchecked += 1
                continue
            back = patch.labels[partner]
            observed = back.left if direction == "right" else back.right
            if observed == gens.inverse_of(sym):
                satisfied += 1
            else:
                violations.append((h, direction, sym, observed))
    return LocalCheckReport(violations, satisfied, unchecked)


def induced_step(patch: GridPatch, h: int, direction: int):
    """One step along the labelled line; None when it exits the ball."""
    label = patch.labels[h]
    sym = label.right if direction > 0 else label.left
    return patch.ball.edges.get((h, sym))


@dataclass(frozen=True)
class OrbitTrace:
    """Result of following right labels: kind is Path, Cycle or LeftBall."""

    kind: str
    cells: tuple
    cycle_length: int = 0


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
    """The first generator s with h·s equal to the target cell or word."""
    gens = ball.oracle.gens
    source = ball.elements[h]
    for s in gens.symbols:
        if isinstance(target, int):
            if ball.edges.get((h, s)) == target:
                return s
        elif ball.oracle.equals(source + (s,), tuple(target)):
            return s
    raise DisplacementNotGenerator(f"cell {h}: displacement to {target!r} is not a generator")


@dataclass(frozen=True, eq=False)
class PathCover:
    """Vertex-disjoint simple paths on a ball, as successor/predecessor maps."""

    ball: CayleyBall
    succ: dict
    pred: dict

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


@dataclass(frozen=True, eq=False)
class CoverFailure:
    """Search failure report with the best partial cover found."""

    reason: str
    partial: PathCover = None


def _ball_graph(ball: CayleyBall) -> list:
    edges = set()
    for h in range(len(ball)):
        for t in ball.neighbors(h):
            edges.add((min(h, t), max(h, t)))
    return sorted(edges)


def path_cover_search(
    ball: CayleyBall, margin: int, seed: int = 0, attempts: int = 60
) -> PathCover:
    """Cover the deep part of a ball by vertex-disjoint simple paths.

    Every cell at distance ≤ radius − margin must end up in the interior
    of a path; endpoints may only sit in the boundary shell.  The search
    takes the union of two successive maximum-weight matchings (weights
    favour saturating interior cells twice), which yields paths plus even
    cycles, then repairs cycles by cutting boundary edges or exchanging a
    pair of edges with another component.  Retries reshuffle the edge
    order; returns a CoverFailure with the best partial cover if no
    attempt succeeds.
    """
    if margin < 1 or ball.radius < margin:
        raise BallTooSmall("need radius ≥ margin ≥ 1")
    interior_limit = ball.radius - margin
    interior = {h for h in range(len(ball)) if ball.distance[h] <= interior_limit}
    base_edges = _ball_graph(ball)
    rng = random.Random(seed)
    best = None
    for attempt in range(attempts):
        order = list(base_edges)
        if attempt:
            rng.shuffle(order)
        adjacency, leftover = _two_matching(order, len(ball), interior)
        missing = [h for h in interior if len(adjacency[h]) < 2]
        if not missing:
            adjacency, cycles = _repair_cycles(adjacency, order, ball, interior_limit)
            if not cycles:
                cover = _orient(adjacency, ball)
                if not cover.validate(margin):
                    return cover
                missing = ["post-validation"]
            else:
                missing = [f"cycle of {len(cycles[0])}"]
        score = len(missing)
        if best is None or score < best[0]:
            best = (score, adjacency)
    partial = _orient(_drop_cycles(best[1]), ball)
    return CoverFailure(
        f"no valid cover in {attempts} attempts (last diagnosis: {best[0]} problems)",
        partial,
    )


def _two_matching(order, count, interior):
    """Union of two successive interior-saturating matchings."""
    import networkx as nx  # only cover searches need it, and it is slow to import

    big = count + 1

    def weight(a, b):
        return ((a in interior) + (b in interior)) * big + 1

    graph = nx.Graph()
    graph.add_nodes_from(range(count))
    for a, b in order:
        graph.add_edge(a, b, weight=weight(a, b))
    first = nx.max_weight_matching(graph)
    matched = {v for pair in first for v in pair}
    need_more = interior & matched
    used = {(min(x, y), max(x, y)) for x, y in first}

    def weight2(a, b):
        return ((a in need_more) + (b in need_more)) * big + 1

    graph2 = nx.Graph()
    graph2.add_nodes_from(range(count))
    for a, b in order:
        if (min(a, b), max(a, b)) in used:
            continue
        graph2.add_edge(a, b, weight=weight2(a, b))
    second = nx.max_weight_matching(graph2)
    adjacency = {h: set() for h in range(count)}
    for a, b in list(first) + list(second):
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency, None


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


def _cycle_components(adjacency):
    return [c for c in _components(adjacency) if all(len(adjacency[v]) == 2 for v in c)]


def _repair_cycles(adjacency, order, ball, interior_limit):
    """Cut or merge cycle components until only paths remain."""
    graph_adj = {h: set() for h in adjacency}
    for a, b in order:
        graph_adj[a].add(b)
        graph_adj[b].add(a)
    guard = 0
    while True:
        cycles = _cycle_components(adjacency)
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
        if not _two_opt(adjacency, graph_adj, cycle):
            return adjacency, cycles


def _two_opt(adjacency, graph_adj, cycle):
    """Exchange one cycle edge with an edge of another component."""
    comp_of = {}
    for comp in _components(adjacency):
        tag = min(comp)
        for v in comp:
            comp_of[v] = tag
    tag = comp_of[min(cycle)]
    for a in sorted(cycle):
        for b in sorted(adjacency[a]):
            for c in sorted(graph_adj[a]):
                if comp_of.get(c, -1) == tag or not adjacency.get(c):
                    continue
                for d in sorted(adjacency[c]):
                    if d in graph_adj[b] and comp_of.get(d) == comp_of[c]:
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


def _drop_cycles(adjacency):
    cleaned = {h: set(n) for h, n in adjacency.items()}
    for cycle in _cycle_components(cleaned):
        for v in cycle:
            cleaned[v] = set()
    return cleaned


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


def grid_y_check(omega: ProductGridPatch, y: dict, sft: NNSFT2D) -> LocalCheckReport:
    """Check a product-ball configuration against a planar local rule.

    The horizontal neighbour of (h₁,h₂) is one right-step in the first
    factor, the vertical neighbour one right-step in the second; pairs
    are tested against the allowed horizontal/vertical dominoes.
    """
    violations = []
    satisfied = 0
    unchecked = 0
    for h1 in range(len(omega.patch1.ball)):
        step1 = induced_step(omega.patch1, h1, +1)
        for h2 in range(len(omega.patch2.ball)):
            a = y[(h1, h2)]
            if step1 is None:
                unchecked += 1
            elif (a, y[(step1, h2)]) in sft.allowed_h:
                satisfied += 1
            else:
                violations.append(((h1, h2), "h", a, y[(step1, h2)]))
            step2 = induced_step(omega.patch2, h2, +1)
            if step2 is None:
                unchecked += 1
            elif (a, y[(h1, step2)]) in sft.allowed_v:
                satisfied += 1
            else:
                violations.append(((h1, h2), "v", a, y[(h1, step2)]))
    return LocalCheckReport(violations, satisfied, unchecked)


def _walk_line(patch: GridPatch, base: int, lo: int, hi: int):
    """Cells at offsets lo..hi−1 from base along the labels, else None."""
    cells = {0: base}
    cur = base
    for z in range(1, max(hi, 1)):
        cur = induced_step(patch, cur, +1)
        if cur is None:
            return None
        cells[z] = cur
    cur = base
    for z in range(-1, min(lo, 0) - 1, -1):
        cur = induced_step(patch, cur, -1)
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
    where = {}
    chains = []
    for h in range(len(patch.ball)):
        if h in where:
            continue
        cur = h
        steps = 0
        while True:
            prev = induced_step(patch, cur, -1)
            if prev is None or prev in where:
                break
            if prev == cur or steps > len(patch.ball):
                raise CycleDetected(f"cell {h} lies on a label cycle")
            cur, steps = prev, steps + 1
        if cur in where:
            continue
        chain = []
        chain_id = len(chains)
        while cur is not None and cur not in where:
            where[cur] = (chain_id, len(chain))
            chain.append(cur)
            nxt = induced_step(patch, cur, +1)
            if nxt == cur:
                raise CycleDetected(f"cell {cur} is a label fixed point")
            cur = nxt
            if len(chain) > len(patch.ball):
                raise CycleDetected(f"cell {h} lies on a label cycle")
        if cur is not None and where.get(cur, (None,))[0] == chain_id:
            raise CycleDetected(f"cell {cur} closes a label cycle")
        chains.append(chain)
    return chains, where


@dataclass(frozen=True, eq=False)
class SeedFailure:
    """Seeding failure: the source patch cannot cover some orbit."""

    reason: str


def seed_grid_from_config(omega: ProductGridPatch, c: Patch2D, sft: NNSFT2D = None):
    """Spread a planar patch over a product ball along the grid labels.

    Cells of the product ball fall into orbit classes (a chain in each
    factor).  The class of the identity pair is anchored so the identity
    reads c's cell (0,0); every other class anchors its least cell pair
    at (0,0).  Returns a total configuration y with read_grid at the
    identity pair reproducing c, or a SeedFailure when c does not cover
    some class's coordinate span.
    """
    if sft is not None:
        bad = check_patch_nn(sft, c)
        if bad:
            return SeedFailure(f"source patch violates the local rule at {bad[0][0]}")
    chains1, where1 = _chains(omega.patch1)
    chains2, where2 = _chains(omega.patch2)
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


def grid_patch_to_descriptor(patch: GridPatch) -> dict:
    labels = {
        " ".join(patch.ball.elements[h]): [label.left, label.right]
        for h, label in sorted(patch.labels.items())
    }
    return {
        "group": patch.ball.oracle.descriptor,
        "radius": patch.ball.radius,
        "labels": labels,
    }


def grid_patch_from_descriptor(obj, path: str = "grid") -> GridPatch:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in ("group", "radius", "labels"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing")
    oracle = group_from_descriptor(obj["group"], f"{path}.group")
    radius = obj["radius"]
    if not isinstance(radius, int) or radius < 0:
        raise SchemaError(f"{path}.radius", "expected a non-negative integer")
    ball = cayley_ball(oracle, radius)
    raw = obj["labels"]
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}.labels", "expected an object")
    labels = {}
    for text, pair in raw.items():
        idx = ball.resolve(parse_word(text))
        if idx is None:
            raise SchemaError(f"{path}.labels[{text!r}]", "names a cell outside the ball")
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}.labels[{text!r}]", "expected [left, right]")
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
