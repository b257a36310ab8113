"""Word-problem oracles, automaton evaluation, and Cayley ball enumeration."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshift.errors import ResourceLimit, SchemaError, UnknownSymbol
from groupshift.groups import (
    EPSILON,
    FreeAbelianOracle,
    FreeGroupOracle,
    GrigorchukOracle,
    MealyAutomaton,
    MealyGroupOracle,
    ProductOracle,
    cayley_ball,
    grigorchuk_automaton,
    group_from_descriptor,
    mealy_apply,
    parse_word,
)


def all_oracles():
    return [
        FreeAbelianOracle(1),
        FreeAbelianOracle(2),
        FreeGroupOracle(2),
        GrigorchukOracle(),
        ProductOracle([FreeAbelianOracle(1), FreeAbelianOracle(1)]),
    ]


# b, c, d generate a Klein four-group: the product of two of them is the third.
KLEIN = {
    ("b", "c"): "d",
    ("c", "b"): "d",
    ("b", "d"): "c",
    ("d", "b"): "c",
    ("c", "d"): "b",
    ("d", "c"): "b",
}

# First-level decomposition: letter -> (section word at 0, section word at 1).
GRIG_SECTIONS = {
    "b": ("a", "c"),
    "c": ("a", "d"),
    "d": ("", "b"),
}


def klein_reduce(letters: str) -> str:
    """Reduction by aa = bb = cc = dd = 1 and the Klein table."""
    stack: list[str] = []
    for ch in letters:
        while True:
            if not stack:
                stack.append(ch)
                break
            top = stack[-1]
            if top == ch:
                stack.pop()
                break
            merged = KLEIN.get((top, ch))
            if merged is None:
                stack.append(ch)
                break
            stack.pop()
            ch = merged
    return "".join(stack)


def wreath_is_identity(word) -> bool:
    """Reference word problem for the Grigorchuk group, kept apart from the
    automaton oracle: a reduced word of length n >= 2 splits into a root
    permutation and two sections of length at most (n + 1) // 2."""
    reduced = klein_reduce("".join(sym for sym in word if sym != "1"))
    if not reduced:
        return True
    if len(reduced) == 1 or reduced.count("a") % 2 == 1:
        return False
    sec0: list[str] = []
    sec1: list[str] = []
    for ch in reduced:
        if ch == "a":
            sec0, sec1 = sec1, sec0
        else:
            lo, hi = GRIG_SECTIONS[ch]
            sec0.append(lo)
            sec1.append(hi)
    return wreath_is_identity("".join(sec0)) and wreath_is_identity("".join(sec1))


def adding_machine():
    """The binary odometer: a adds one to a little-endian integer, A = a⁻¹."""
    automaton = MealyAutomaton(
        ("a", "A", "e"),
        {
            "a": {"0": "e", "1": "a"},
            "A": {"0": "A", "1": "e"},
            "e": {"0": "e", "1": "e"},
        },
        {
            "a": {"0": "1", "1": "0"},
            "A": {"0": "1", "1": "0"},
            "e": {"0": "0", "1": "1"},
        },
    )
    return MealyGroupOracle(automaton, {"a": ("a",), "A": ("A",)}, {"a": "A", "A": "a"})


def lamplighter():
    """a = σ(a, b) and b = (a, b), with inverse states A = σ(B, A) and
    B = (A, B): the lamplighter group, which is not contracting."""
    automaton = MealyAutomaton(
        ("a", "b", "A", "B"),
        {
            "a": {"0": "a", "1": "b"},
            "b": {"0": "a", "1": "b"},
            "A": {"0": "B", "1": "A"},
            "B": {"0": "A", "1": "B"},
        },
        {
            "a": {"0": "1", "1": "0"},
            "b": {"0": "0", "1": "1"},
            "A": {"0": "1", "1": "0"},
            "B": {"0": "0", "1": "1"},
        },
    )
    generators = {q: (q,) for q in "abAB"}
    return MealyGroupOracle(automaton, generators, {"a": "A", "A": "a", "b": "B", "B": "b"})


def swap_group():
    """One state that swaps the first letter: the group of order 2."""
    automaton = MealyAutomaton(
        ("s", "e"),
        {"s": {"0": "e", "1": "e"}, "e": {"0": "e", "1": "e"}},
        {"s": {"0": "1", "1": "0"}, "e": {"0": "0", "1": "1"}},
    )
    return MealyGroupOracle(automaton, {"s": ("s",)})


def klein_four():
    """a = σ(1, 1) and b = (a, a) commute and square to 1: Z/2 × Z/2, whose
    element a·b is no state."""
    automaton = MealyAutomaton(
        ("a", "b", "e"),
        {"a": {"0": "e", "1": "e"}, "b": {"0": "a", "1": "a"}, "e": {"0": "e", "1": "e"}},
        {"a": {"0": "1", "1": "0"}, "b": {"0": "0", "1": "1"}, "e": {"0": "0", "1": "1"}},
    )
    return MealyGroupOracle(automaton, {"a": ("a",), "b": ("b",)})


def brute_force_ball(oracle, radius):
    """Dedup all words of length <= radius by pairwise key comparison."""
    gens = [s for s in oracle.gens.symbols if s != oracle.gens.identity]
    classes = []
    for length in range(radius + 1):
        for word in itertools.product(gens, repeat=length):
            key = oracle.canonical_key(word)
            if not any(oracle.canonical_key(rep) == key for rep in classes):
                classes.append(word)
    return classes


def test_word_problem_free_abelian_commutator():
    oracle = FreeAbelianOracle(2)
    assert oracle.is_identity(parse_word("x y x- y-"))
    assert not oracle.is_identity(parse_word("x y x-"))


def test_word_problem_free_group_commutator():
    oracle = FreeGroupOracle(2)
    assert not oracle.is_identity(parse_word("x y x- y-"))
    assert oracle.is_identity(parse_word("x y y- x-"))


def test_word_problem_rejects_foreign_symbols():
    oracle = FreeAbelianOracle(1)
    with pytest.raises(UnknownSymbol):
        oracle.is_identity(("q",))


def test_mealy_apply_first_grigorchuk_values():
    m = grigorchuk_automaton()
    assert mealy_apply(m, ("a",), "0110") == "1110"
    assert mealy_apply(m, ("d",), "111000") == "111000"
    assert mealy_apply(m, (), "010101") == "010101"


def test_mealy_apply_composes_rightmost_first():
    m = grigorchuk_automaton()
    for bits in ("0", "1", "0110", "111000"):
        assert mealy_apply(m, ("a", "d"), bits) == mealy_apply(
            m, ("a",), mealy_apply(m, ("d",), bits)
        )


def test_grigorchuk_known_relations():
    g = GrigorchukOracle()
    for word in ("a a", "b b", "c c", "d d", "b c d", "b c d", "c d b"):
        assert g.is_identity(parse_word(word)), word
    assert g.is_identity(parse_word("a d") * 4)
    for word in ("a", "b", "c", "d", "a b", "a d", "a d a d"):
        assert not g.is_identity(parse_word(word)), word


def test_grigorchuk_matches_automaton_action():
    # The recursion and the transducer must agree: a word is the identity
    # exactly when it fixes every short binary string.
    g = GrigorchukOracle()
    strings = [
        "".join(bits)
        for n in range(1, 9)
        for bits in itertools.product("01", repeat=n)
    ]
    rng = random.Random(1)
    words = [tuple(rng.choice("abcd") for _ in range(rng.randint(0, 6))) for _ in range(60)]
    for word in words:
        acts_trivially = all(g.apply(word, s) == s for s in strings)
        assert g.is_identity(word) == acts_trivially, word


def test_grigorchuk_generators_are_involutions_on_strings():
    g = GrigorchukOracle()
    strings = [
        "".join(bits)
        for n in range(1, 9)
        for bits in itertools.product("01", repeat=n)
    ]
    for gen in "abcd":
        for s in strings:
            assert g.apply((gen, gen), s) == s


def test_product_oracle_cross_factor_commutation():
    z_z = ProductOracle([FreeAbelianOracle(1), FreeAbelianOracle(1)])
    assert z_z.is_identity(parse_word("x1 x2 x-1 x-2"))
    f2_z = ProductOracle([FreeGroupOracle(2), FreeAbelianOracle(1)])
    assert not f2_z.is_identity(parse_word("x1 y1 x-1 y-1"))
    grig3 = ProductOracle([GrigorchukOracle()] * 3)
    assert grig3.is_identity(parse_word("b1 c1 d1"))
    assert not grig3.is_identity(parse_word("b1 c2 d3"))


def test_inverse_law_small_words_exhaustive():
    for oracle in all_oracles():
        gens = [s for s in oracle.gens.symbols if s != oracle.gens.identity]
        for lu in range(3):
            for lv in range(3):
                for u in itertools.product(gens, repeat=lu):
                    for v in itertools.product(gens, repeat=lv):
                        w = u + v
                        assert oracle.is_identity(w + oracle.gens.word_inverse(w))


def test_inverse_law_randomized_longer_words():
    rng = random.Random(7)
    for oracle in all_oracles():
        gens = [s for s in oracle.gens.symbols if s != oracle.gens.identity]
        for _ in range(50):
            w = tuple(rng.choice(gens) for _ in range(rng.randint(3, 10)))
            assert oracle.is_identity(w + oracle.gens.word_inverse(w))


def test_decide_is_a_congruence_under_substitution():
    # If u and v agree as group elements, then x u y and x v y agree too.
    rng = random.Random(13)
    for oracle in all_oracles():
        gens = [s for s in oracle.gens.symbols if s != oracle.gens.identity]
        for _ in range(30):
            u = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
            pad = tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))
            v = u + pad + oracle.gens.word_inverse(pad)
            assert oracle.canonical_key(u) == oracle.canonical_key(v)
            x = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            y = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            assert oracle.is_identity(x + u + y) == oracle.is_identity(x + v + y)


def test_ball_sizes_match_closed_forms():
    assert len(cayley_ball(FreeAbelianOracle(2), 1)) == 5
    assert len(cayley_ball(FreeGroupOracle(2), 2)) == 17
    # Regression constant, fixed from the first deduplicated enumeration.
    assert len(cayley_ball(GrigorchukOracle(), 3)) == 23


def test_ball_matches_brute_force_enumeration():
    cases = [
        (FreeAbelianOracle(2), 4),
        (FreeGroupOracle(2), 4),
        (GrigorchukOracle(), 4),
    ]
    for oracle, radius in cases:
        ball = cayley_ball(oracle, radius)
        classes = brute_force_ball(oracle, radius)
        assert len(ball) == len(classes)
        counts = [0] * (radius + 1)
        for d in ball.distance:
            counts[d] += 1
        assert sum(counts) == len(classes)


def test_ball_is_shortlex_ordered_and_rooted_at_identity():
    for oracle in all_oracles():
        ball = cayley_ball(oracle, 3)
        assert ball.elements[0] == EPSILON
        assert ball.distance[0] == 0
        order = {s: i for i, s in enumerate(oracle.gens.symbols)}
        keys = [(len(w), [order[s] for s in w]) for w in ball.elements]
        assert keys == sorted(keys)
        # Monotone growth in radius.
        assert len(ball.restrict(2)) <= len(ball)


def test_ball_edge_symmetry_and_downward_neighbours():
    for oracle in all_oracles():
        ball = cayley_ball(oracle, 3)
        inv = ball.oracle.gens.inverse
        for (i, sym), j in ball.edges.items():
            assert ball.edges.get((j, inv[sym])) == i
        for i, dist in enumerate(ball.distance):
            if dist == 0:
                continue
            downward = [
                ball.distance[j]
                for (k, _), j in ball.edges.items()
                if k == i
            ]
            assert min(downward) == dist - 1


def test_ball_resolve_and_restrict():
    ball = cayley_ball(FreeAbelianOracle(1), 3)
    assert ball.resolve(parse_word("x x x-")) == ball.index[parse_word("x")]
    assert ball.resolve(parse_word("x x x x")) is None
    small = ball.restrict(2)
    assert small.elements == ball.elements[: len(small)]
    for key in small.edges:
        assert small.edges[key] == ball.edges[key]
    # Grigorchuk resolves through its minimal-automaton key.
    gball = cayley_ball(GrigorchukOracle(), 2)
    assert gball.resolve(parse_word("b c")) == gball.index[parse_word("d")]


def test_restricted_ball_resolves_other_spellings():
    for oracle in all_oracles():
        ball = cayley_ball(oracle, 3)
        small = ball.restrict(2)
        gens = oracle.gens
        sym = next(s for s in gens.symbols if s != gens.identity)
        for i, word in enumerate(ball.elements):
            # A detour the memo of element words does not hold.
            spelling = (sym, gens.inverse_of(sym)) + word
            assert ball.resolve(spelling) == i
            assert small.resolve(spelling) == (i if i < len(small) else None)


def test_group_descriptors_round_trip():
    z2 = group_from_descriptor({"kind": "free_abelian", "rank": 2})
    assert z2.is_identity(parse_word("x y x- y-"))
    f2 = group_from_descriptor({"kind": "free", "rank": 2})
    assert not f2.is_identity(parse_word("x y x- y-"))
    grig = group_from_descriptor({"kind": "grigorchuk"})
    assert grig.is_identity(parse_word("b c d"))
    prod = group_from_descriptor(
        {"kind": "product", "factors": [{"kind": "free_abelian", "rank": 1}] * 2}
    )
    assert prod.is_identity(parse_word("x1 x2 x-1 x-2"))


def test_mealy_descriptor_list_and_dict_forms():
    base = {
        "kind": "mealy",
        "states": ["a", "b", "c", "d", "id"],
        "transition": {
            "a": {"0": "id", "1": "id"},
            "b": {"0": "a", "1": "c"},
            "c": {"0": "a", "1": "d"},
            "d": {"0": "id", "1": "b"},
            "id": {"0": "id", "1": "id"},
        },
        "output": {
            "a": {"0": "1", "1": "0"},
            "b": {"0": "0", "1": "1"},
            "c": {"0": "0", "1": "1"},
            "d": {"0": "0", "1": "1"},
            "id": {"0": "0", "1": "1"},
        },
        "generators": ["a", "b", "c", "d"],
    }
    oracle = group_from_descriptor(base)
    assert isinstance(oracle, MealyGroupOracle)
    assert oracle.is_identity(parse_word("b c d"))
    assert not oracle.is_identity(parse_word("a d"))
    assert oracle.is_identity(parse_word("a d") * 4)
    as_dict = dict(base)
    as_dict["generators"] = {"a": ["a"], "b": ["b"], "c": ["c"], "d": ["d"]}
    oracle2 = group_from_descriptor(as_dict)
    assert oracle2.is_identity(parse_word("b c d"))


def test_mealy_oracle_agrees_with_wreath_recursion():
    preset = GrigorchukOracle()
    mealy = group_from_descriptor(
        {
            "kind": "mealy",
            "states": ["a", "b", "c", "d", "id"],
            "transition": {
                "a": {"0": "id", "1": "id"},
                "b": {"0": "a", "1": "c"},
                "c": {"0": "a", "1": "d"},
                "d": {"0": "id", "1": "b"},
                "id": {"0": "id", "1": "id"},
            },
            "output": {
                "a": {"0": "1", "1": "0"},
                "b": {"0": "0", "1": "1"},
                "c": {"0": "0", "1": "1"},
                "d": {"0": "0", "1": "1"},
                "id": {"0": "0", "1": "1"},
            },
            "generators": ["a", "b", "c", "d"],
        }
    )
    rng = random.Random(3)
    for _ in range(80):
        w = tuple(rng.choice("abcd") for _ in range(rng.randint(0, 7)))
        assert wreath_is_identity(w) == preset.is_identity(w) == mealy.is_identity(w)


# Each group with a word problem decided apart from canonical_key.
KEY_REFERENCES = {
    "grigorchuk": (GrigorchukOracle(), wreath_is_identity),
    "z-x-grigorchuk": (
        ProductOracle([FreeAbelianOracle(1), GrigorchukOracle()]),
        lambda w: w.count("x1") == w.count("x-1")
        and wreath_is_identity(sym[0] for sym in w if sym.endswith("2")),
    ),
    "adding-machine": (adding_machine(), lambda w: w.count("a") == w.count("A")),
}


@pytest.mark.parametrize("name", sorted(KEY_REFERENCES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_key_is_exact(name, data):
    oracle, reference = KEY_REFERENCES[name]
    # A shared prefix and short tails make equal elements common.
    words = st.lists(st.sampled_from(oracle.gens.symbols), max_size=5)
    prefix = tuple(data.draw(words))
    u = prefix + tuple(data.draw(words))
    v = prefix + tuple(data.draw(words))
    same = reference(oracle.gens.word_inverse(u) + v)
    assert (oracle.canonical_key(u) == oracle.canonical_key(v)) == same


def grigorchuk_descriptor_oracle():
    """The Grigorchuk machine as a `mealy` descriptor with two-state generators."""
    machine = grigorchuk_automaton()
    return group_from_descriptor(
        {
            "kind": "mealy",
            "states": list(machine.states),
            "transition": machine.transition,
            "output": machine.output,
            "generators": {"a": ["a"], "ab": ["a", "b"], "ba": ["b", "a"], "d": ["d"]},
            "inverses": {"ab": "ba", "ba": "ab"},
        }
    )


def walk_is_identity(oracle, word) -> bool:
    """Reference word problem for automaton groups, kept apart from the keys:
    walk the section words of the word's states breadth-first, trivial
    states dropped, and answer False at the first one that swaps at the root.

    A section word holds at most as many states as its parent, so the walk
    meets finitely many words; it visits the section at every vertex of the
    tree, so the word acts trivially exactly when none of them swaps.
    """
    machine = oracle.automaton

    def nontrivial(states):
        return tuple(q for q in states if not machine.is_trivial_state(q))

    start = nontrivial(q for sym in word if sym != "1" for q in oracle.generators[sym])
    closure = [start]
    seen = {start}
    for v in closure:
        # Read left to right, sections[b ^ swapped] collects the section at
        # bit b: a later state acts first, so a swap moves the earlier
        # states' sections to the other bit.
        sections = ([], [])
        swapped = 0
        for q in v:
            swapped ^= machine.swaps(q)
            for b in "01":
                sections[int(b) ^ swapped].append(machine.transition[q][b])
        if swapped:
            return False
        for s in map(nontrivial, sections):
            if s not in seen:
                seen.add(s)
                closure.append(s)
    return True


IDENTITY_ORACLES = {
    "grigorchuk": GrigorchukOracle(),
    "mealy-descriptor": grigorchuk_descriptor_oracle(),
    "adding-machine": adding_machine(),
    "lamplighter": lamplighter(),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_ORACLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mealy_identity_walk_matches_the_canonical_key(name, data):
    oracle = IDENTITY_ORACLES[name]
    letters = st.sampled_from(oracle.gens.symbols)
    u = tuple(data.draw(st.lists(letters, max_size=12)))
    v = tuple(data.draw(st.lists(letters, max_size=3)))
    # u·v·u⁻¹ is the identity exactly when v is, so both answers are common.
    w = u + v + oracle.gens.word_inverse(u)
    for x in (u, w):
        assert walk_is_identity(oracle, x) == oracle.is_identity(x)
        assert oracle.is_identity(x) == (oracle.canonical_key(x) == oracle.canonical_key(()))
    # Two words get one key exactly when the walk finds u·x⁻¹ trivial.
    for x in (u + v, w + u):
        same = walk_is_identity(oracle, u + oracle.gens.word_inverse(x))
        assert (oracle.canonical_key(u) == oracle.canonical_key(x)) == same


def test_adding_machine_ball_is_a_segment_of_the_line():
    ball = cayley_ball(adding_machine(), 40)
    assert len(ball) == 81
    assert max(ball.distance) == 40


def test_bad_descriptors_raise_schema_errors():
    with pytest.raises(SchemaError):
        group_from_descriptor({"kind": "nope"})
    with pytest.raises(SchemaError):
        group_from_descriptor({"kind": "free_abelian", "rank": 0})
    with pytest.raises(SchemaError):
        group_from_descriptor({"kind": "product", "factors": []})
    with pytest.raises(SchemaError):
        group_from_descriptor("not an object")


# ---------------------------------------------------------------------------
# Cross-validation of the one-pass ball against the two-pass enumeration.


def two_pass_ball(oracle, radius, max_elements=1_000_000):
    """(elements, distance, edges, keyed) by the plain two-pass search: the
    breadth-first pass keys every parent·s, and a second pass keys every
    element·s again to find the edges."""
    gens = oracle.gens
    extend = [s for s in gens.symbols if s != gens.identity]
    elements = [EPSILON]
    distance = [0]
    key_index = {oracle.canonical_key(EPSILON): 0}
    level = [EPSILON]
    for dist in range(1, radius + 1):
        next_level = []
        for parent in level:
            for sym in extend:
                candidate = parent + (sym,)
                key = oracle.canonical_key(candidate)
                if key in key_index:
                    continue
                if len(elements) >= max_elements:
                    raise ResourceLimit(
                        f"ball exceeded {max_elements} elements at radius {dist}"
                    )
                key_index[key] = len(elements)
                elements.append(candidate)
                distance.append(dist)
                next_level.append(candidate)
        level = next_level
    edges = {}
    for i, word in enumerate(elements):
        for sym in gens.symbols:
            if sym == gens.identity:
                edges[(i, sym)] = i
                continue
            target = key_index.get(oracle.canonical_key(word + (sym,)))
            if target is not None:
                edges[(i, sym)] = target
    return elements, distance, edges, key_index


# The Grigorchuk machine as a plain `mealy` descriptor with an identity state.
MEALY = {
    "kind": "mealy",
    "states": ["a", "b", "c", "d", "e"],
    "transition": {
        "a": {"0": "e", "1": "e"},
        "b": {"0": "a", "1": "c"},
        "c": {"0": "a", "1": "d"},
        "d": {"0": "e", "1": "b"},
        "e": {"0": "e", "1": "e"},
    },
    "output": {
        "a": {"0": "1", "1": "0"},
        "b": {"0": "0", "1": "1"},
        "c": {"0": "0", "1": "1"},
        "d": {"0": "0", "1": "1"},
        "e": {"0": "0", "1": "1"},
    },
    "generators": ["a", "b", "c", "d"],
}

BALL_ORACLES = {
    "z": FreeAbelianOracle(1),
    "z2": FreeAbelianOracle(2),
    "f2": FreeGroupOracle(2),
    "grigorchuk": GrigorchukOracle(),
    "mealy": group_from_descriptor(MEALY),
    "mealy-two-state-generators": grigorchuk_descriptor_oracle(),
    "z-x-grigorchuk": ProductOracle([FreeAbelianOracle(1), GrigorchukOracle()]),
    "adding-machine": adding_machine(),
    "lamplighter": lamplighter(),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BALL_ORACLES)),
    radius=st.integers(0, 5),
    max_elements=st.one_of(st.just(1_000_000), st.integers(1, 120)),
)
def test_ball_equals_the_two_pass_enumeration(name, radius, max_elements):
    oracle = BALL_ORACLES[name]
    try:
        expected = two_pass_ball(oracle, radius, max_elements)
    except ResourceLimit as exc:
        with pytest.raises(ResourceLimit) as raised:
            cayley_ball(oracle, radius, max_elements)
        assert str(raised.value) == str(exc)
        return
    elements, distance, edges, keyed = expected
    ball = cayley_ball(oracle, radius, max_elements)
    assert ball.elements == elements
    assert ball.distance == distance
    # Equal maps, built in the same order.
    assert list(ball.edges.items()) == list(edges.items())
    assert list(ball._keyed.items()) == list(keyed.items())


_BIG_BALLS: dict = {}


def _big_ball(name):
    if name not in _BIG_BALLS:
        _BIG_BALLS[name] = cayley_ball(BALL_ORACLES[name], 4)
    return _BIG_BALLS[name]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_resolve_agrees_with_the_key_table(data):
    name = data.draw(st.sampled_from(sorted(BALL_ORACLES)))
    full = _big_ball(name)
    # A fresh ball each time, so the walk runs and not the memo of an
    # earlier example; restricted balls lose the edges that leave them.
    ball = full.restrict(data.draw(st.integers(0, full.radius)))
    gens = ball.oracle.gens
    letters = st.sampled_from(gens.symbols)
    head = tuple(data.draw(st.lists(letters, max_size=4)))
    detour = tuple(data.draw(st.lists(letters, max_size=7)))
    tail = tuple(data.draw(st.lists(letters, max_size=4)))
    # The detour may leave the ball; its inverse brings the word back.
    for word in (head + tail, head + detour + gens.word_inverse(detour) + tail):
        expected = ball._keyed.get(ball.oracle.canonical_key(word))
        assert ball.resolve(word) == expected
        assert ball.resolve(word) == expected  # and from the memo


def test_grigorchuk_ball_keys_each_product_once():
    oracle = GrigorchukOracle()
    calls = []
    step = oracle.key_step
    # Keys name elements, so (key, generator) names the product.
    oracle.key_step = lambda key, sym: calls.append((key, sym)) or step(key, sym)
    ball = cayley_ball(oracle, 6)
    assert len(ball) == 108
    assert len(calls) <= 254
    assert len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# Keys one generator at a time, and the portraits of contracting groups.


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_key_step_extends_the_key_by_one_generator(data):
    oracle = BALL_ORACLES[data.draw(st.sampled_from(sorted(BALL_ORACLES)))]
    letters = st.sampled_from(oracle.gens.symbols)
    word = tuple(data.draw(st.lists(letters, max_size=10)))
    sym = data.draw(letters)
    key = oracle.canonical_key(word)
    stepped = key if sym == oracle.gens.identity else oracle.key_step(key, sym)
    assert stepped == oracle.canonical_key(word + (sym,))
    with pytest.raises(UnknownSymbol):
        oracle.canonical_key(word + ("?",))


def automaton_key(oracle, word):
    """The minimal-automaton key of a word, whichever key the oracle uses:
    the automaton step folded over the word's atoms from the identity
    automaton."""
    key = ((0, 0, 0),)
    for sym in word:
        if sym != oracle.gens.identity:
            for q in oracle._letters[sym]:
                key = oracle._automaton_times(key, q)
    return key


CONTRACTING = {
    "grigorchuk": BALL_ORACLES["grigorchuk"],
    "mealy": BALL_ORACLES["mealy"],
    "mealy-two-state-generators": BALL_ORACLES["mealy-two-state-generators"],
    "adding-machine": BALL_ORACLES["adding-machine"],
    "swap": swap_group(),
    "klein-four": klein_four(),
}


@pytest.mark.parametrize("name", sorted(CONTRACTING))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_portrait_keys_split_words_like_the_minimal_automaton(name, data):
    oracle = CONTRACTING[name]
    assert oracle._products is not None
    # A shared prefix and short tails make equal elements common.
    tails = st.lists(st.sampled_from(oracle.gens.symbols), max_size=6)
    prefix = tuple(data.draw(tails))
    words = [prefix + tuple(data.draw(tails)) for _ in range(4)]
    portraits = [oracle.canonical_key(w) for w in words]
    automata = [automaton_key(oracle, w) for w in words]
    for p, a in zip(portraits, automata):
        assert [p == q for q in portraits] == [a == b for b in automata]


def test_lamplighter_keeps_the_minimal_automaton_key():
    oracle = lamplighter()
    assert oracle._products is None
    ball = cayley_ball(oracle, 5)
    assert len(ball) == 208
    elements, distance, edges, keyed = two_pass_ball(oracle, 5)
    assert (ball.elements, ball.distance) == (elements, distance)
    assert list(ball.edges.items()) == list(edges.items())
    assert list(ball._keyed.items()) == list(keyed.items())
    for word in ball.elements[::7]:
        assert oracle.canonical_key(word) == automaton_key(oracle, word)


def test_long_grigorchuk_words_key_without_deep_recursion():
    oracle = GrigorchukOracle()
    identity = oracle.canonical_key(())
    rng = random.Random(5)
    half = tuple(rng.choice("abcd") for _ in range(5_000))
    words = [
        tuple(rng.choice("abcd") for _ in range(10_000)),
        half + oracle.gens.word_inverse(half),
        ("a", "d") * 5_000,
        ("a", "d") * 4_999 + ("a", "b"),
    ]
    for word in words:
        assert (oracle.canonical_key(word) == identity) == wreath_is_identity(word)
    assert [oracle.canonical_key(w) == identity for w in words] == [False, True, True, False]
