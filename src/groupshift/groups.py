"""Word-problem oracles for finitely generated groups and their Cayley balls.

A group is presented here only through a symmetric generating set and one
exact canonical key: two words get equal keys exactly when they name the same
group element.  The word problem, element equality and the deduplication of
Cayley balls are all key comparisons, and everything downstream (balls,
grids, codecs) is built on that interface, so adding a group means adding
one oracle class with one method.  A ball grows one generator at a time and
asks for the key of w·s given the key of w (`key_step`); groups whose keys
compose (exponent vectors, reduced words, factor tuples and the portraits
of contracting automaton groups) answer from the key alone.
"""

from __future__ import annotations

from typing import Optional

from .errors import ResourceLimit, SchemaError, UnknownSymbol, Value

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
    """Names the group element of each word over the generating set."""

    def __init__(self, gens: GeneratorSet, descriptor: Optional[dict] = None):
        self.gens = gens
        self.descriptor = descriptor if descriptor is not None else {}

    def canonical_key(self, word: Word):
        """A hashable key that is equal for two words exactly when they name
        the same group element; raises UnknownSymbol on a foreign symbol."""
        raise NotImplementedError

    def key_step(self, key, word: Word, sym: str):
        """The key of word + (sym,), given the key of word."""
        return self.canonical_key(word + (sym,))

    def is_identity(self, word: Word) -> bool:
        return self.canonical_key(word) == self.canonical_key(EPSILON)


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
    """Free abelian group of a given rank; words are exponent-summed."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        names = _axis_names(rank)
        super().__init__(
            _paired_generators(names),
            {"kind": "free_abelian", "rank": rank},
        )
        self.rank = rank
        self._axis: dict[str, tuple[int, int]] = {}
        for i, name in enumerate(names):
            self._axis[name] = (i, 1)
            self._axis[name + "-"] = (i, -1)

    def _vector(self, word: Word) -> tuple[int, ...]:
        totals = [0] * self.rank
        for sym in word:
            if sym == IDENTITY:
                continue
            if sym not in self._axis:
                raise UnknownSymbol(sym)
            i, step = self._axis[sym]
            totals[i] += step
        return tuple(totals)

    def canonical_key(self, word: Word):
        return self._vector(word)

    def key_step(self, key, word: Word, sym: str):
        if sym == IDENTITY:
            return key
        if sym not in self._axis:
            raise UnknownSymbol(sym)
        i, step = self._axis[sym]
        return key[:i] + (key[i] + step,) + key[i + 1:]


class FreeGroupOracle(GroupOracle):
    """Free group of a given rank; words are freely reduced."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        names = _axis_names(rank)
        super().__init__(_paired_generators(names), {"kind": "free", "rank": rank})
        self.rank = rank

    def _reduce(self, word: Word) -> Word:
        stack: list[str] = []
        for sym in word:
            if sym == IDENTITY:
                continue
            if sym not in self.gens.inverse:
                raise UnknownSymbol(sym)
            if stack and stack[-1] == self.gens.inverse[sym]:
                stack.pop()
            else:
                stack.append(sym)
        return tuple(stack)

    def canonical_key(self, word: Word):
        return self._reduce(word)

    def key_step(self, key, word: Word, sym: str):
        if sym == IDENTITY:
            return key
        if sym not in self.gens.inverse:
            raise UnknownSymbol(sym)
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
            if oq is None or set(oq) != {"0", "1"}:
                raise ValueError(f"output row missing for state {q!r}")
            if set(oq.values()) != {"0", "1"}:
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
    they act alike, are the atoms, with the identity as atom 0.  When the
    group is contracting over its states, every element has one finite
    portrait, the canonical key: the atom it equals, if any, and otherwise
    the triple (swap, portrait at 0, portrait at 1).  The key is exact: the
    portrait is defined from the element alone, so equal words get equal
    keys, and it determines the element (an atom is one element, and a
    triple fixes the swap and both sections), so unequal words get unequal
    keys.  Multiplying keeps portraits in this form: a triple whose parts
    are an atom's swap and sections becomes that atom.  The constructor
    tabulates x·q for every pair of atoms, and multiplying a portrait by a
    state rewrites its branches down to that table, so the key of w·s comes
    from the key of w.

    The table fails to close when its pairs run into a cycle of products
    that are not atoms (the lamplighter automaton does); such an automaton
    keeps the minimal automaton of the section closure as its key (`_key`).
    The iterated sections of a state word form a finite closure (sections
    never get longer once trivial states are stripped); Moore partition
    refinement on (root swap, class of section 0, class of section 1)
    merges the section words that act alike, and a breadth-first
    renumbering from the word itself makes the quotient canonical.  One
    such refinement over the identity, the states and all two-state words
    gives the constructor the atoms, the atom products that are atoms, and
    the pair rules p·q = 1 or p·q = r for a single state r that keep section
    words short.
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
        super().__init__(GeneratorSet(tuple(symbols), inverse), descriptor)
        self.automaton = automaton
        self.generators = {name: tuple(word) for name, word in generators.items()}
        for name, word in self.generators.items():
            for q in word:
                if q not in automaton.states:
                    raise ValueError(f"generator {name!r} uses unknown state {q!r}")
        active = [q for q in automaton.states if not automaton.is_trivial_state(q)]
        self._active = set(active)
        # Per state: whether it swaps at the root, and its non-trivial
        # sections as (input bit, state) pairs.
        self._moves = {}
        for q in automaton.states:
            sections = enumerate((automaton.transition[q]["0"], automaton.transition[q]["1"]))
            self._moves[q] = (
                int(automaton.swaps(q)),
                tuple((b, t) for b, t in sections if t in self._active),
            )
        # The identity, the active states and their products p·q, with
        # their sections: these words are closed under sections (the
        # section of p·q at b is p's section at q(b) times q's section at
        # b), so one Moore refinement tells which of them act alike.
        self._pairs: dict[tuple[str, str], tuple[str, ...]] = {}
        pairs = [(p, q) for p in active for q in active]
        cls = _refine(self._closure([()] + [(r,) for r in active] + pairs))
        # Atoms: the identity, then each state that acts unlike every
        # earlier one, with one state word each.
        atom_of_class = {cls[0]: 0}
        words = [()]
        atom = dict.fromkeys(automaton.states, 0)
        for i, r in enumerate(active, 1):
            atom[r] = atom_of_class.setdefault(cls[i], len(words))
            if atom[r] == len(words):
                words.append((r,))
        n = len(words)
        products = [[x if q == 0 else q if x == 0 else None for q in range(n)] for x in range(n)]
        for i, (p, q) in enumerate(pairs, 1 + len(active)):
            product = atom_of_class.get(cls[i])
            if product is not None:
                self._pairs[(p, q)] = words[product]
                products[atom[p]][atom[q]] = product
        # Per atom: (root swap, atom of section 0, atom of section 1).
        self._triples = [(0, 0, 0)]
        for (r,) in words[1:]:
            t = automaton.transition[r]
            self._triples.append((self._moves[r][0], atom[t["0"]], atom[t["1"]]))
        self._atoms = {triple: x for x, triple in enumerate(self._triples)}
        self._letters = {IDENTITY: ()}
        for name, word in self.generators.items():
            self._letters[name] = tuple(atom[q] for q in word if atom[q])
        self._products = self._close(products)
        identity = self.canonical_key(())
        for name, inv in inverse.items():
            if name == IDENTITY or name < inv:
                continue
            # Validate declared (and default self-) inverses once, up front.
            if self.canonical_key((name, inv)) != identity:
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

    def _times(self, key, q: int):
        """The portrait of key·q for an atom q other than the identity: q
        acts first, so the section at bit b is key's section at q(b) times
        q's section at b."""
        if type(key) is int:
            return self._products[key][q]
        swapped, k0, k1 = key
        swap, q0, q1 = self._triples[q]
        if swap:
            k0, k1 = k1, k0
        if q0:
            k0 = self._times(k0, q0)
        if q1:
            k1 = self._times(k1, q1)
        return self._node(swapped ^ swap, k0, k1)

    def _fold(self, key, word: Word):
        """The portrait of (the element of key)·word."""
        for sym in word:
            if sym not in self._letters:
                raise UnknownSymbol(sym)
            for q in self._letters[sym]:
                key = self._times(key, q)
        return key

    def _push(self, stack: list[str], q: str) -> None:
        """Append a non-trivial state to a section word, applying the pair rules."""
        while stack:
            product = self._pairs.get((stack[-1], q))
            if product is None:
                break
            stack.pop()
            if not product:
                return
            (q,) = product
        stack.append(q)

    def _reduce(self, state_word: tuple[str, ...]) -> tuple[str, ...]:
        stack: list[str] = []
        for q in state_word:
            if q in self._active:
                self._push(stack, q)
        return tuple(stack)

    def _sections(self, state_word: tuple[str, ...]):
        """(acts at the root, section word at 0, section word at 1)."""
        sec = ([], [])
        swapped = 0
        for q in state_word:
            # Read left to right: q's section at bit b follows the prefix's
            # section at q(b), so a swapping state exchanges the two words.
            swaps, moves = self._moves[q]
            swapped ^= swaps
            for b, t in moves:
                self._push(sec[b ^ swapped], t)
        return bool(swapped), tuple(sec[swapped]), tuple(sec[1 ^ swapped])

    def _closure(self, words: list) -> list:
        """Rows (root swap, number of section 0, number of section 1) of the
        section closure of some distinct state words, numbered in the order
        given and then breadth-first."""
        number = {v: i for i, v in enumerate(words)}
        closure = list(words)
        rows = []
        for v in closure:
            swapped, s0, s1 = self._sections(v)
            for s in (s0, s1):
                if s not in number:
                    number[s] = len(closure)
                    closure.append(s)
            rows.append((swapped, number[s0], number[s1]))
        return rows

    def _key(self, state_word: tuple[str, ...]):
        """The minimal automaton of the word's section closure."""
        rows = self._closure([self._reduce(state_word)])
        cls = _refine(rows)
        # The quotient, its classes renumbered breadth-first from the word.
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

    def _state_word(self, word: Word) -> tuple[str, ...]:
        states: list[str] = []
        for sym in word:
            if sym == IDENTITY:
                continue
            if sym not in self.generators:
                raise UnknownSymbol(sym)
            states.extend(self.generators[sym])
        return tuple(states)

    def canonical_key(self, word: Word):
        if self._products is None:
            return self._key(self._state_word(word))
        return self._fold(0, word)

    def key_step(self, key, word: Word, sym: str):
        if self._products is None:
            return super().key_step(key, word, sym)
        return self._fold(key, (sym,))

    def is_identity(self, word: Word) -> bool:
        """True when no word of the section closure swaps at the root.

        The closure holds the section of the word at every vertex of the
        tree, so the word acts trivially exactly when none of them swaps;
        the walk stops at the first swap and needs no Moore refinement.
        """
        start = self._reduce(self._state_word(word))
        closure = [start]
        seen = {start}
        for v in closure:
            swapped, s0, s1 = self._sections(v)
            if swapped:
                return False
            for s in (s0, s1):
                if s not in seen:
                    seen.add(s)
                    closure.append(s)
        return True

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
        super().__init__(GeneratorSet(tuple(symbols), inverse), descriptor)
        self.factors = list(factors)

    def project(self, word: Word, i: int) -> Word:
        out = []
        for sym in word:
            if sym == IDENTITY:
                continue
            if sym not in self._slot:
                raise UnknownSymbol(sym)
            j, original = self._slot[sym]
            if j == i:
                out.append(original)
        return tuple(out)

    def canonical_key(self, word: Word):
        return tuple(
            factor.canonical_key(self.project(word, i))
            for i, factor in enumerate(self.factors)
        )

    def key_step(self, key, word: Word, sym: str):
        if sym == IDENTITY:
            return key
        if sym not in self._slot:
            raise UnknownSymbol(sym)
        i, original = self._slot[sym]
        step = self.factors[i].key_step(key[i], self.project(word, i), original)
        return key[:i] + (step,) + key[i + 1:]


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
        # Follow edges from the identity; key the word only if a prefix
        # leaves the ball, since the rest of it may come back in.
        found = 0
        for sym in word:
            found = self.edges.get((found, sym))
            if found is None:
                found = self._keyed.get(self.oracle.canonical_key(word))
                break
        self._resolve_memo[word] = found
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
    keys = [oracle.canonical_key(EPSILON)]
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
                key = step(keys[i], elements[i], sym)
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
                j = keyed.get(step(keys[i], elements[i], sym))
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
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    kind = obj.get("kind")
    if kind == "free_abelian" or kind == "free":
        rank = obj.get("rank")
        if not isinstance(rank, int) or rank < 1:
            raise SchemaError(f"{path}.rank", "expected a positive integer")
        return FreeAbelianOracle(rank) if kind == "free_abelian" else FreeGroupOracle(rank)
    if kind == "grigorchuk":
        return GrigorchukOracle()
    if kind == "mealy":
        for key in ("states", "transition", "output", "generators"):
            if key not in obj:
                raise SchemaError(f"{path}.{key}", "missing field")
        if not isinstance(obj["states"], list) or not all(
            isinstance(q, str) for q in obj["states"]
        ):
            raise SchemaError(f"{path}.states", "expected a list of state names")
        try:
            automaton = MealyAutomaton(
                tuple(obj["states"]), obj["transition"], obj["output"]
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise SchemaError(f"{path}.transition", str(exc)) from exc
        generators = obj["generators"]
        gen_words: dict[str, tuple[str, ...]] = {}
        if isinstance(generators, dict) and generators:
            items = generators.items()
        elif isinstance(generators, list) and generators:
            # List form: each entry is a state word (or a single state name);
            # the generator is named by joining its states.
            items = []
            for entry in generators:
                word = [entry] if isinstance(entry, str) else entry
                items.append(("".join(map(str, word)), word))
        else:
            raise SchemaError(f"{path}.generators", "expected a non-empty list or object")
        for name, word in items:
            if not isinstance(word, list) or not all(isinstance(q, str) for q in word):
                raise SchemaError(
                    f"{path}.generators.{name}", "expected a list of states"
                )
            if name in gen_words:
                raise SchemaError(f"{path}.generators.{name}", "duplicate generator name")
            gen_words[name] = tuple(word)
        inverses = obj.get("inverses")
        if inverses is not None and not isinstance(inverses, dict):
            raise SchemaError(f"{path}.inverses", "expected an object")
        try:
            return MealyGroupOracle(automaton, gen_words, inverses, dict(obj))
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
    if kind == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or not factors:
            raise SchemaError(f"{path}.factors", "expected a non-empty list")
        return ProductOracle(
            [
                group_from_descriptor(f, f"{path}.factors[{i}]")
                for i, f in enumerate(factors)
            ]
        )
    raise SchemaError(f"{path}.kind", f"unknown group kind {kind!r}")


# Ball-keyed descriptors: an object {"group": …, "radius": n, …} names a
# Cayley ball, and its patterns are JSON maps from words to values.  A key
# may be any word naming a cell of the ball; keys are written back as the
# cell's canonical word, and two keys naming one cell are an error.


def ball_from_descriptor(obj, path: str, *fields, balls: Optional[dict] = None) -> CayleyBall:
    """The ball of a descriptor object that must also carry `fields`.

    A reader of many descriptors may pass one `balls` dict for the whole
    read; descriptors naming the same group and radius then share a ball.
    """
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in ("group", "radius", *fields):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing")
    oracle = group_from_descriptor(obj["group"], f"{path}.group")
    radius = obj["radius"]
    if not isinstance(radius, int) or radius < 0:
        raise SchemaError(f"{path}.radius", "expected a non-negative integer")
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
    if not isinstance(raw, dict):
        raise SchemaError(path, "expected an object")
    named: dict[int, str] = {}
    for text, value in raw.items():
        where = f"{path}[{text!r}]"
        idx = ball.resolve(parse_word(text))
        if idx is None:
            raise SchemaError(where, "names a cell outside the ball")
        if idx in named:
            raise SchemaError(where, f"names the same cell as {named[idx]!r}")
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
