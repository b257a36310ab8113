"""Word-problem oracles for finitely generated groups and their Cayley balls.

A group is presented here only through a symmetric generating set and one
exact canonical key: two words get equal keys exactly when they name the same
group element.  The word problem, element equality and the deduplication of
Cayley balls are all key comparisons, and everything downstream (balls,
grids, codecs) is built on that interface.  An oracle is an identity key
plus `key_step(key, s)`, the key of w·s given the key of w; the key of a
word folds the step over its letters from the identity key, and a ball
steps once per product it meets.  The keys are exponent vectors, reduced
words, factor tuples, and for automaton groups portraits or minimal
automata, so adding a group means adding one oracle class with one step.
"""

from __future__ import annotations

from typing import Optional

from .errors import (
    ResourceLimit,
    SchemaError,
    UnknownSymbol,
    Value,
    fields,
    need,
    read_int,
    read_list,
    read_object,
)

Word = tuple[str, ...]

EPSILON: Word = ()

IDENTITY = "1"


def parse_word(text: str) -> Word:
    """Split a whitespace-separated word into a symbol tuple."""
    return tuple(text.split())


def format_word(word: Word) -> str:
    return " ".join(word)


class GeneratorSet(Value):
    """A finite symmetric generating set with a designated identity symbol."""

    __slots__ = ("symbols", "inverse", "identity")

    def __init__(self, symbols: tuple[str, ...], inverse: dict[str, str], identity: str = IDENTITY):
        self.symbols = symbols
        self.inverse = inverse
        self.identity = identity
        if self.identity not in self.symbols:
            raise ValueError("identity symbol missing from generator set")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate generator symbols")
        for sym in self.symbols:
            inv = self.inverse.get(sym)
            if inv is None or inv not in self.symbols:
                raise ValueError(f"no inverse declared for {sym!r}")
            if self.inverse.get(inv) != sym:
                raise ValueError(f"inverse map is not an involution at {sym!r}")
        if self.inverse[self.identity] != self.identity:
            raise ValueError("identity symbol must be self-inverse")

    def inverse_of(self, sym: str) -> str:
        if sym not in self.inverse:
            raise UnknownSymbol(sym)
        return self.inverse[sym]

    def check_word(self, word: Word) -> None:
        for sym in word:
            if sym not in self.inverse:
                raise UnknownSymbol(sym)

    def word_inverse(self, word: Word) -> Word:
        return tuple(self.inverse_of(sym) for sym in reversed(word))


class GroupOracle:
    """Names the group element of each word over the generating set.

    An oracle defines `identity_key` and `key_step`; `canonical_key` folds
    the step over a word from the identity key.
    """

    def __init__(self, gens: GeneratorSet, identity_key, descriptor: Optional[dict] = None):
        self.gens = gens
        self.identity_key = identity_key
        self.descriptor = descriptor if descriptor is not None else {}

    def key_step(self, key, sym: str):
        """The key of w·sym, given the key of w, for a generator sym other
        than the identity."""
        raise NotImplementedError

    def canonical_key(self, word: Word):
        """A hashable key that is equal for two words exactly when they name
        the same group element; raises UnknownSymbol on a foreign symbol."""
        identity = self.gens.identity
        inverse = self.gens.inverse
        step = self.key_step
        key = self.identity_key
        for sym in word:
            if sym == identity:
                continue
            if sym not in inverse:
                raise UnknownSymbol(sym)
            key = step(key, sym)
        return key

    def is_identity(self, word: Word) -> bool:
        return self.canonical_key(word) == self.identity_key


def _axis_names(rank: int) -> tuple[str, ...]:
    if rank <= 3:
        return ("x", "y", "z")[:rank]
    return tuple(f"x{i + 1}" for i in range(rank))


def _paired_generators(names: tuple[str, ...]) -> GeneratorSet:
    symbols = [IDENTITY]
    inverse = {IDENTITY: IDENTITY}
    for name in names:
        co = name + "-"
        symbols.extend([name, co])
        inverse[name] = co
        inverse[co] = name
    return GeneratorSet(tuple(symbols), inverse)


class FreeAbelianOracle(GroupOracle):
    """Free abelian group of a given rank; the key is the exponent vector."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        names = _axis_names(rank)
        super().__init__(
            _paired_generators(names),
            (0,) * rank,
            {"kind": "free_abelian", "rank": rank},
        )
        self.rank = rank
        self._axis: dict[str, tuple[int, int]] = {}
        for i, name in enumerate(names):
            self._axis[name] = (i, 1)
            self._axis[name + "-"] = (i, -1)

    def key_step(self, key, sym: str):
        i, step = self._axis[sym]
        return key[:i] + (key[i] + step,) + key[i + 1:]


class FreeGroupOracle(GroupOracle):
    """Free group of a given rank; the key is the freely reduced word."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        names = _axis_names(rank)
        super().__init__(_paired_generators(names), (), {"kind": "free", "rank": rank})
        self.rank = rank

    def key_step(self, key, sym: str):
        if key and key[-1] == self.gens.inverse[sym]:
            return key[:-1]
        return key + (sym,)


class MealyAutomaton(Value):
    """An invertible letter-to-letter transducer over the binary alphabet."""

    __slots__ = ("states", "transition", "output")

    def __init__(self, states: tuple[str, ...], transition: dict, output: dict):
        self.states = states
        self.transition = transition
        self.output = output
        for q in self.states:
            tq = self.transition.get(q)
            oq = self.output.get(q)
            if tq is None or set(tq) != {"0", "1"}:
                raise ValueError(f"transition row missing for state {q!r}")
            if not isinstance(oq, dict) or set(oq) != {"0", "1"}:
                raise ValueError(f"output row missing for state {q!r}")
            if (oq["0"], oq["1"]) not in (("0", "1"), ("1", "0")):
                raise ValueError(f"state {q!r} does not permute the alphabet")
            for b in "01":
                if tq[b] not in self.states:
                    raise ValueError(f"transition of {q!r} leaves the state set")

    def swaps(self, q: str) -> bool:
        return self.output[q]["0"] == "1"

    def is_trivial_state(self, q: str) -> bool:
        """True when the state is syntactically the identity transducer."""
        return (
            not self.swaps(q)
            and self.transition[q]["0"] == q
            and self.transition[q]["1"] == q
        )

    def run_state(self, q: str, bits: str) -> str:
        out = []
        cur = q
        for b in bits:
            out.append(self.output[cur][b])
            cur = self.transition[cur][b]
        return "".join(out)


def _refine(rows: list) -> list:
    """Moore partition refinement on rows (root swap, section 0, section 1)
    of a finite automaton: the class of each row, where two rows share a
    class exactly when they act alike on the binary tree."""
    cls = [int(swapped) for swapped, _, _ in rows]
    count = len(set(cls))
    while True:
        names: dict = {}
        refined = [
            names.setdefault((swapped, cls[i], cls[j]), len(names))
            for swapped, i, j in rows
        ]
        if len(names) == count:
            return cls
        cls, count = refined, len(names)


def _minimal(rows: list) -> tuple:
    """The minimal automaton of an automaton whose rows are all reachable
    from row 0: its classes of rows that act alike, renumbered breadth-first
    from the class of row 0."""
    cls = _refine(rows)
    first = {}
    for v, c in enumerate(cls):
        first.setdefault(c, v)
    order = {cls[0]: 0}
    queue = [cls[0]]
    key = []
    for c in queue:
        swapped, i, j = rows[first[c]]
        for d in (cls[i], cls[j]):
            if d not in order:
                order[d] = len(order)
                queue.append(d)
        key.append((swapped, order[cls[i]], order[cls[j]]))
    return tuple(key)


def mealy_apply(automaton: MealyAutomaton, state_word: tuple[str, ...], bits: str) -> str:
    """Apply a composition of states to a binary string, rightmost state first."""
    for b in bits:
        if b not in "01":
            raise ValueError("input must be a binary string")
    out = bits
    for q in reversed(state_word):
        if q not in automaton.states:
            raise UnknownSymbol(q)
        out = automaton.run_state(q, out)
    return out


class MealyGroupOracle(GroupOracle):
    """Group generated by the states of an invertible Mealy automaton.

    An element acts on the binary tree by a root swap and two sections, the
    elements it applies below bit 0 and bit 1; two elements are equal
    exactly when their swaps and sections are.  The states, merged where
    they act alike, are the atoms, with the identity as atom 0.  A
    generator steps the key by its atoms one at a time: the key of w·q
    comes from the key of w, and q acts first, so the section of w·q at
    bit b is w's section at q(b) times q's section at b.

    When the group is contracting over its states, every element has one
    finite portrait, the key: the atom it equals, if any, and otherwise the
    triple (swap, portrait at 0, portrait at 1).  The portrait is defined
    from the element alone, so equal words get equal keys, and it
    determines the element (an atom is one element, and a triple fixes the
    swap and both sections), so unequal words get unequal keys.  A triple
    whose parts are an atom's swap and sections becomes that atom.  The
    constructor tabulates x·q for every pair of atoms, and multiplying a
    portrait by an atom rewrites its branches down to that table.

    The table fails to close when its pairs run into a cycle of products
    that are not atoms (the lamplighter automaton does).  Such a group is
    keyed by the minimal automaton of the element instead: the rows (root
    swap, section 0, section 1) of its distinct sections, numbered
    breadth-first from the element.  Multiplying by an atom q builds the
    product automaton of the pairs (row, atom), refines it and renumbers
    it.  The constructor finds the atoms by one refinement of the automaton
    itself, and the atom products that are atoms by one refinement of the
    product automaton of all atom pairs.
    """

    def __init__(
        self,
        automaton: MealyAutomaton,
        generators: dict[str, tuple[str, ...]],
        inverses: Optional[dict[str, str]] = None,
        descriptor: Optional[dict] = None,
    ):
        inverses = dict(inverses or {})
        symbols = [IDENTITY]
        inverse = {IDENTITY: IDENTITY}
        for name in generators:
            if name == IDENTITY:
                raise ValueError("generator may not reuse the identity symbol")
            symbols.append(name)
            inverse[name] = inverses.get(name, name)
        for name, inv in inverse.items():
            if inv not in inverse:
                raise ValueError(f"inverse {inv!r} of {name!r} is not a generator")
        gens = GeneratorSet(tuple(symbols), inverse)
        self.automaton = automaton
        self.generators = {name: tuple(word) for name, word in generators.items()}
        for name, word in self.generators.items():
            for q in word:
                if q not in automaton.states:
                    raise ValueError(f"generator {name!r} uses unknown state {q!r}")
        # One Moore refinement over the identity (row 0) and the states
        # tells which of them act alike.  Atoms: the identity, then each
        # state that acts unlike every earlier one.
        number = {q: i for i, q in enumerate(automaton.states, 1)}
        rows = [(0, 0, 0)]
        for q in automaton.states:
            t = automaton.transition[q]
            rows.append((int(automaton.swaps(q)), number[t["0"]], number[t["1"]]))
        classes: dict = {}
        atoms = [classes.setdefault(c, len(classes)) for c in _refine(rows)]
        n = len(classes)
        # Per atom: (root swap, atom of section 0, atom of section 1).
        self._triples = [(0, 0, 0)] * n
        for (swapped, i, j), x in zip(rows, atoms):
            self._triples[x] = (swapped, atoms[i], atoms[j])
        self._atoms = {triple: x for x, triple in enumerate(self._triples)}
        atom = dict(zip(automaton.states, atoms[1:]))
        self._letters = {
            name: tuple(atom[q] for q in word if atom[q]) for name, word in self.generators.items()
        }
        # The product automaton of all atom pairs, the row x·n + q acting as
        # x·q (so x·0 as x): one more refinement tells which are atoms.
        rows = []
        for swapped, *sections in self._triples:
            for swap, q0, q1 in self._triples:
                rows.append((swapped ^ swap, sections[swap] * n + q0, sections[1 ^ swap] * n + q1))
        cls = _refine(rows)
        of_class = {cls[x * n]: x for x in range(n)}
        products = [[of_class.get(cls[x * n + q]) for q in range(n)] for x in range(n)]
        self._products = self._close(products)
        if self._products is None:
            self._times, identity_key = self._automaton_times, ((0, 0, 0),)
        else:
            self._times, identity_key = self._portrait_times, 0
        super().__init__(gens, identity_key, descriptor)
        for name, inv in inverse.items():
            if name == IDENTITY or name < inv:
                continue
            # Validate declared (and default self-) inverses once, up front.
            if self.canonical_key((name, inv)) != self.identity_key:
                raise ValueError(f"{name!r} and {inv!r} are not mutually inverse")

    def _close(self, products):
        """Fill in the portraits of the atom pairs whose product is not an
        atom, each from the products of its sections; None when they form a
        cycle, so that some product has no finite portrait."""
        todo = [(x, q) for x, row in enumerate(products) for q, p in enumerate(row) if p is None]
        while todo:
            left = []
            for x, q in todo:
                swap, q0, q1 = self._triples[q]
                swapped, x0, x1 = self._triples[x]
                if swap:
                    x0, x1 = x1, x0
                k0, k1 = products[x0][q0], products[x1][q1]
                if k0 is None or k1 is None:
                    left.append((x, q))
                else:
                    products[x][q] = self._node(swapped ^ swap, k0, k1)
            if len(left) == len(todo):
                return None
            todo = left
        return products

    def _node(self, swap: int, k0, k1):
        """The portrait with this root swap and these portraits below."""
        if type(k0) is int and type(k1) is int:
            return self._atoms.get((swap, k0, k1), (swap, k0, k1))
        return (swap, k0, k1)

    def key_step(self, key, sym: str):
        for q in self._letters[sym]:
            key = self._times(key, q)
        return key

    def _portrait_times(self, key, q: int):
        """The portrait of key·q for an atom q other than the identity."""
        if type(key) is int:
            return self._products[key][q]
        swapped, k0, k1 = key
        swap, q0, q1 = self._triples[q]
        if swap:
            k0, k1 = k1, k0
        if q0:
            k0 = self._portrait_times(k0, q0)
        if q1:
            k1 = self._portrait_times(k1, q1)
        return self._node(swapped ^ swap, k0, k1)

    def _automaton_times(self, key, q: int):
        """The minimal automaton of key·q for an atom q: the product
        automaton of the pairs (row r of the key, atom t), each acting as
        r·t, from (0, q), refined and renumbered."""
        number = {(0, q): 0}
        pairs = [(0, q)]
        rows = []
        for r, t in pairs:
            swapped, k0, k1 = key[r]
            swap, t0, t1 = self._triples[t]
            if swap:
                k0, k1 = k1, k0
            row = [swapped ^ swap]
            for pair in ((k0, t0), (k1, t1)):
                j = number.get(pair)
                if j is None:
                    j = number[pair] = len(pairs)
                    pairs.append(pair)
                row.append(j)
            rows.append(tuple(row))
        return _minimal(rows)

    def _state_word(self, word: Word) -> tuple[str, ...]:
        states: list[str] = []
        for sym in word:
            if sym == IDENTITY:
                continue
            if sym not in self.generators:
                raise UnknownSymbol(sym)
            states.extend(self.generators[sym])
        return tuple(states)

    def apply(self, word: Word, bits: str) -> str:
        return mealy_apply(self.automaton, self._state_word(word), bits)


def grigorchuk_automaton() -> MealyAutomaton:
    """The five-state binary machine generating the first Grigorchuk group."""
    states = ("a", "b", "c", "d", "id")
    transition = {
        "a": {"0": "id", "1": "id"},
        "b": {"0": "a", "1": "c"},
        "c": {"0": "a", "1": "d"},
        "d": {"0": "id", "1": "b"},
        "id": {"0": "id", "1": "id"},
    }
    output = {
        "a": {"0": "1", "1": "0"},
        "b": {"0": "0", "1": "1"},
        "c": {"0": "0", "1": "1"},
        "d": {"0": "0", "1": "1"},
        "id": {"0": "0", "1": "1"},
    }
    return MealyAutomaton(states, transition, output)


class GrigorchukOracle(MealyGroupOracle):
    """The first Grigorchuk group: the automaton group of its four states."""

    def __init__(self):
        super().__init__(
            grigorchuk_automaton(),
            {q: (q,) for q in "abcd"},
            descriptor={"kind": "grigorchuk"},
        )


class ProductOracle(GroupOracle):
    """Direct product of oracles; factor symbols get a 1-based index suffix."""

    def __init__(self, factors: list[GroupOracle]):
        if not factors:
            raise ValueError("product needs at least one factor")
        symbols = [IDENTITY]
        inverse = {IDENTITY: IDENTITY}
        self._slot: dict[str, tuple[int, str]] = {}
        for i, factor in enumerate(factors):
            for sym in factor.gens.symbols:
                if sym == factor.gens.identity:
                    continue
                name = f"{sym}{i + 1}"
                symbols.append(name)
                inverse[name] = f"{factor.gens.inverse[sym]}{i + 1}"
                self._slot[name] = (i, sym)
        descriptor = {
            "kind": "product",
            "factors": [f.descriptor for f in factors],
        }
        identity_key = tuple(f.identity_key for f in factors)
        super().__init__(GeneratorSet(tuple(symbols), inverse), identity_key, descriptor)
        self.factors = list(factors)

    def key_step(self, key, sym: str):
        i, original = self._slot[sym]
        return key[:i] + (self.factors[i].key_step(key[i], original),) + key[i + 1:]


class CayleyBall:
    """All group elements within a word-metric radius, as canonical words.

    Elements are listed in shortlex order of their canonical representatives
    (index 0 is the identity), and `edges` maps (element index, generator) to
    the index of the product whenever it stays inside the ball.  Edges through
    the identity generator are self-loops; path machinery skips them.
    """

    def __init__(self, oracle: GroupOracle, radius: int, elements, distance, edges, keyed):
        self.oracle = oracle
        self.radius = radius
        self.elements: list[Word] = elements
        self.distance: list[int] = distance
        self.index: dict[Word, int] = {w: i for i, w in enumerate(elements)}
        self.edges: dict[tuple[int, str], int] = edges
        self._resolve_memo: dict[Word, Optional[int]] = dict(self.index)
        self._keyed: dict = keyed  # canonical key -> element index

    def __len__(self) -> int:
        return len(self.elements)

    def resolve(self, word: Word) -> Optional[int]:
        """Index of the element a word represents, or None if outside the ball."""
        if word in self._resolve_memo:
            return self._resolve_memo[word]
        self.oracle.gens.check_word(word)
        # Key the word only if a prefix leaves the ball: the rest may come back.
        found = self.follow(word)
        if found is None:
            found = self._keyed.get(self.oracle.canonical_key(word))
        self._resolve_memo[word] = found
        return found

    def follow(self, word: Word) -> Optional[int]:
        """The index reached along edges from the identity, or None if a prefix leaves."""
        found = 0
        for sym in word:
            found = self.edges.get((found, sym))
            if found is None:
                break
        return found

    def neighbors(self, idx: int):
        """Distinct non-identity neighbour indices, excluding self-loops."""
        seen = []
        for sym in self.oracle.gens.symbols:
            if sym == self.oracle.gens.identity:
                continue
            target = self.edges.get((idx, sym))
            if target is not None and target != idx and target not in seen:
                seen.append(target)
        return seen

    def restrict(self, radius: int) -> "CayleyBall":
        """The sub-ball of a smaller radius; element indices are preserved."""
        if radius > self.radius:
            raise ValueError("can only restrict to a smaller radius")
        count = sum(1 for d in self.distance if d <= radius)
        elements = self.elements[:count]
        distance = self.distance[:count]
        edges = {
            (i, sym): j
            for (i, sym), j in self.edges.items()
            if i < count and j < count
        }
        keyed = {key: i for key, i in self._keyed.items() if i < count}
        return CayleyBall(self.oracle, radius, elements, distance, edges, keyed)


def _grown_ball(oracle: GroupOracle, done, max_elements: int) -> CayleyBall:
    """Grow a ball by shortlex breadth-first search, one sphere at a time,
    until `done(radius, size)`.

    Each product the search keys, by `key_step` from the key of its
    element, is recorded as the edge (i, s) -> j and its inverse (j, s⁻¹)
    -> i, and a pair whose edge is known is never keyed again.  The
    products of inner spheres all lie in the ball, so only the outer sphere
    has pairs left to key at the end; the products among those that land in
    the ball become edges too.
    """
    gens = oracle.gens
    inverse = gens.inverse
    step = oracle.key_step
    extend = [s for s in gens.symbols if s != gens.identity]
    elements: list[Word] = [EPSILON]
    distance: list[int] = [0]
    keys = [oracle.identity_key]
    keyed = {keys[0]: 0}
    products: dict[tuple[int, str], int] = {}
    sphere = [0]
    radius = 0
    while not done(radius, len(elements)):
        radius += 1
        outer = []
        for i in sphere:
            for sym in extend:
                if (i, sym) in products:
                    continue
                key = step(keys[i], sym)
                j = keyed.get(key)
                if j is None:
                    if len(elements) >= max_elements:
                        raise ResourceLimit(
                            f"ball exceeded {max_elements} elements at radius {radius}"
                        )
                    j = keyed[key] = len(elements)
                    elements.append(elements[i] + (sym,))
                    distance.append(radius)
                    keys.append(key)
                    outer.append(j)
                products[(i, sym)] = j
                products[(j, inverse[sym])] = i
        sphere = outer
    for i in sphere:
        for sym in extend:
            if (i, sym) not in products:
                j = keyed.get(step(keys[i], sym))
                if j is not None:
                    products[(i, sym)] = j
                    products[(j, inverse[sym])] = i
    edges: dict[tuple[int, str], int] = {}
    for i in range(len(elements)):
        for sym in gens.symbols:
            j = i if sym == gens.identity else products.get((i, sym))
            if j is not None:
                edges[(i, sym)] = j
    return CayleyBall(oracle, radius, elements, distance, edges, keyed)


_MAX_ELEMENTS = 1_000_000


def cayley_ball(
    oracle: GroupOracle, radius: int, max_elements: int = _MAX_ELEMENTS
) -> CayleyBall:
    """Enumerate the ball of a given radius by shortlex breadth-first search."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return _grown_ball(oracle, lambda r, size: r >= radius, max_elements)


def smallest_ball(oracle: GroupOracle, size: int, max_radius: int) -> CayleyBall:
    """The ball of the smallest radius up to max_radius that has at least
    `size` elements, or the max_radius ball; one search grows it."""
    return _grown_ball(oracle, lambda r, n: n >= size or r >= max_radius, _MAX_ELEMENTS)


def group_from_descriptor(obj, path: str = "group") -> GroupOracle:
    """Build an oracle from a JSON-style descriptor dictionary."""
    read_object(obj, path)

    def product():
        factors = read_list(obj.get("factors"), f"{path}.factors", "expected a non-empty list")
        return ProductOracle(
            [group_from_descriptor(f, f"{path}.factors[{i}]") for i, f in enumerate(factors)]
        )

    builders = {
        "free_abelian": lambda: FreeAbelianOracle(read_int(obj.get("rank"), f"{path}.rank", 1)),
        "free": lambda: FreeGroupOracle(read_int(obj.get("rank"), f"{path}.rank", 1)),
        "grigorchuk": GrigorchukOracle,
        "mealy": lambda: _mealy_from_descriptor(obj, path),
        "product": product,
    }
    kind = obj.get("kind")
    build = builders.get(kind) if isinstance(kind, str) else None
    need(build, f"{path}.kind", f"unknown group kind {kind!r}")
    return build()


def _mealy_from_descriptor(obj: dict, path: str) -> MealyGroupOracle:
    states, transition, output, generators = fields(
        obj, path, "states", "transition", "output", "generators"
    )
    ok = isinstance(states, list) and all(isinstance(q, str) for q in states)
    need(ok, f"{path}.states", "expected a list of state names")
    rows = read_object(transition, f"{path}.transition"), read_object(output, f"{path}.output")
    try:
        automaton = MealyAutomaton(tuple(states), *rows)
    except (ValueError, TypeError, KeyError) as exc:
        # Two of the automaton's texts are about an output row.
        text = str(exc)
        of_output = text.startswith("output row") or text.endswith("permute the alphabet")
        raise SchemaError(f"{path}.{'output' if of_output else 'transition'}", text) from exc
    if isinstance(generators, dict) and generators:
        items = generators.items()
    else:
        # List form: each entry is a state word (or a single state name);
        # the generator is named by joining its states.
        read_list(generators, f"{path}.generators", "expected a non-empty list or object")
        items = []
        for i, entry in enumerate(generators):
            word = [entry] if isinstance(entry, str) else entry
            need(isinstance(word, list), f"{path}.generators[{i}]", "expected a list of states")
            items.append(("".join(map(str, word)), word))
    gen_words: dict[str, tuple[str, ...]] = {}
    for name, word in items:
        where = f"{path}.generators.{name}"
        ok = isinstance(word, list) and all(isinstance(q, str) for q in word)
        need(ok, where, "expected a list of states")
        need(name not in gen_words, where, "duplicate generator name")
        gen_words[name] = tuple(word)
    inverses = obj.get("inverses")
    if inverses is not None:
        for name, inv in read_object(inverses, f"{path}.inverses").items():
            need(isinstance(inv, str), f"{path}.inverses.{name}", "expected a generator name")
    try:
        return MealyGroupOracle(automaton, gen_words, inverses, dict(obj))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


# Ball-keyed descriptors: an object {"group": …, "radius": n, …} names a
# Cayley ball, and its patterns are JSON maps from words to values.  A key
# may be any word naming a cell of the ball; keys are written back as the
# cell's canonical word, and two keys naming one cell are an error.


def ball_from_descriptor(obj, path: str, *keys, balls: Optional[dict] = None) -> CayleyBall:
    """The ball of a descriptor object that must also carry `keys`.

    A reader of many descriptors may pass one `balls` dict for the whole
    read; descriptors naming the same group and radius then share a ball.
    """
    group, radius = fields(obj, path, "group", "radius", *keys)[:2]
    oracle = group_from_descriptor(group, f"{path}.group")
    radius = read_int(radius, f"{path}.radius", 0)
    if balls is None:
        balls = {}
    name = (repr(oracle.descriptor), radius)
    if name not in balls:
        balls[name] = cayley_ball(oracle, radius)
    return balls[name]


def ball_to_descriptor(ball: CayleyBall) -> dict:
    return {"group": ball.oracle.descriptor, "radius": ball.radius}


def cells_from_words(ball: CayleyBall, raw, path: str):
    """Yield (cell index, value, field path) for each entry of a word-keyed
    map; the field path quotes the key as written."""
    named: dict[int, str] = {}
    for text, value in read_object(raw, path).items():
        where = f"{path}[{text!r}]"
        try:
            idx = ball.resolve(parse_word(text))
        except UnknownSymbol as exc:
            raise SchemaError(where, f"unknown generator {str(exc)!r}") from None
        need(idx is not None, where, "names a cell outside the ball")
        need(idx not in named, where, f"names the same cell as {named.get(idx)!r}")
        named[idx] = text
        yield idx, value, where


def cells_to_words(ball: CayleyBall, values: dict) -> dict:
    """{canonical word: value} for a map from cell indices."""
    return {format_word(ball.elements[h]): value for h, value in values.items()}


def cells_to_nested_words(balls, values: dict) -> dict:
    """{word: {word: … value}} for a map from index tuples of a product
    ball; `balls(key)` gives the factor balls the key's indices belong to."""
    table: dict = {}
    for key, value in values.items():
        node = table
        words = [format_word(ball.elements[h]) for ball, h in zip(balls(key), key)]
        for word in words[:-1]:
            node = node.setdefault(word, {})
        node[words[-1]] = value
    return table
