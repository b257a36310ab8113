"""Binary codings and budgeted emptiness oracles."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshift.effective import (
    Budget,
    EmptySetOracle,
    FullShiftSetOracle,
    TrivialActionOracle,
    RhoActionOracle,
    RhoSetOracle,
    Verdict,
    make_codec,
    rho_action_oracle,
    rho_encode,
    rho_set_oracle,
    subshift_from_descriptor,
)
from groupshift.errors import IncompleteSupport, SchemaError, UnknownSymbol
from groupshift.groups import CayleyBall, FreeAbelianOracle, FreeGroupOracle, GrigorchukOracle
from groupshift.shiftcore import Alphabet, Pattern, coding_from_pairs

CE = Verdict.CERTIFIED_EMPTY
UNK = Verdict.UNKNOWN

ADJACENT_ONES = (coding_from_pairs([((), "1"), (("x",), "1")]),)


def golden_codec(radius=4):
    return make_codec(FreeAbelianOracle(1), Alphabet(("0", "1")), radius)


def line_position(word) -> int:
    return word.count("x") - word.count("x-")


def full_pattern(codec, assign):
    """Pattern assigning symbols to every ball element, by address."""
    pairs = [(codec.enumeration(n), assign(n)) for n in range(len(codec.ball))]
    return Pattern.from_pairs(pairs)


def test_codec_width_and_symbol_codes():
    codec = make_codec(FreeAbelianOracle(1), Alphabet(("0", "1", "2")), 1)
    assert codec.kappa == 2
    assert codec.upsilon == {"0": "00", "1": "01", "2": "10"}
    assert codec.decode_block("11") is None
    assert codec.enumeration(0) == ()


def test_encode_starts_with_the_identity_block():
    codec = make_codec(FreeAbelianOracle(1), Alphabet(("0", "1", "2")), 1)
    pattern = Pattern.from_pairs([((), "2"), (("x",), "0"), (("x-",), "1")])
    assert rho_encode(codec, pattern).startswith("10")
    assert rho_encode(codec, pattern) == "100001"


def test_unary_alphabet_codes_constantly():
    codec = make_codec(FreeAbelianOracle(1), Alphabet(("a",)), 1)
    assert codec.kappa == 1
    pattern = full_pattern(codec, lambda n: "a")
    assert rho_encode(codec, pattern) == "000"


def test_all_zero_line_encodes_to_zero_blocks():
    codec = golden_codec(2)
    pattern = full_pattern(codec, lambda n: "0")
    assert rho_encode(codec, pattern) == "00000"


def test_encode_requires_every_address():
    codec = golden_codec(1)
    partial = Pattern.from_pairs([((), "0"), (("x",), "1")])
    with pytest.raises(IncompleteSupport):
        rho_encode(codec, partial)
    assert rho_encode(codec, partial, last_address=1) == "01"


def test_encode_resolves_alternate_representatives():
    codec = golden_codec(1)
    pattern = Pattern.from_pairs([((), "0"), (("x", "x", "x-"), "1"), (("x-",), "0")])
    assert rho_encode(codec, pattern) == "010"


def test_encode_then_decode_is_identity():
    rng = random.Random(31)
    codec = golden_codec(3)
    for _ in range(20):
        values = {n: rng.choice("01") for n in range(len(codec.ball))}
        pattern = full_pattern(codec, values.__getitem__)
        word = rho_encode(codec, pattern)
        assert codec.decode_blocks(word) == [values[n] for n in range(len(codec.ball))]


def test_undecodable_block_is_certified_cheaply():
    codec = make_codec(FreeAbelianOracle(1), Alphabet(("0", "1", "2")), 1)
    oracle = rho_set_oracle(codec, ())
    assert oracle.query("11", 1) is CE
    assert oracle.query("11", 0) is UNK


def test_adjacent_ones_are_certified():
    oracle = rho_set_oracle(golden_codec(), ADJACENT_ONES)
    assert oracle.query("11", 100) is CE
    # Declared cost model: two block decodes, one translated-coding test at
    # the identity.
    assert oracle.query("11", 3) is CE
    assert oracle.query("11", 2) is UNK


def test_whole_ball_word_is_certified_within_a_linear_budget():
    # Addresses name distinct elements, so a word over the whole 145-cell
    # ball costs one decode per block before the codings are scanned.
    codec = make_codec(FreeAbelianOracle(2), Alphabet(("0", "1")), 8)
    ones = {0, codec.ball.index[("x",)]}
    word = "".join("1" if n in ones else "0" for n in range(len(codec.ball)))
    assert rho_set_oracle(codec, ADJACENT_ONES).query(word, 10_000) is CE


def test_empty_word_stays_unknown():
    oracle = rho_set_oracle(golden_codec(), ADJACENT_ONES)
    for budget in (0, 1, 10, 10_000):
        assert oracle.query("", budget) is UNK


def test_certification_is_inherited_by_extensions():
    oracle = rho_set_oracle(golden_codec(), ADJACENT_ONES)
    assert oracle.query("11", 10_000) is CE
    for tail in ("0", "1", "00", "01", "10"):
        assert oracle.query("11" + tail, 10_000) is CE


def test_set_oracle_matches_brute_force_on_short_words():
    codec = golden_codec(4)
    oracle = rho_set_oracle(codec, ADJACENT_ONES)
    positions = [line_position(codec.enumeration(n)) for n in range(len(codec.ball))]

    def brute_force_compatible(w):
        for bits in itertools.product("01", repeat=len(codec.ball)):
            if any(bits[n] != w[n] for n in range(len(w))):
                continue
            by_pos = {positions[n]: bits[n] for n in range(len(bits))}
            if any(by_pos[p] == by_pos[p + 1] == "1" for p in range(-4, 4)):
                continue
            return True
        return False

    for length in range(0, 9):
        for bits in itertools.product("01", repeat=length):
            w = "".join(bits)
            verdict = oracle.query(w, 100_000)
            assert (verdict is CE) == (not brute_force_compatible(w)), w


def test_set_oracle_is_monotone_in_budget():
    oracle = rho_set_oracle(golden_codec(), ADJACENT_ONES)
    rng = random.Random(47)
    for _ in range(1000):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 9)))
        b = rng.randrange(0, 40)
        b2 = b + rng.randrange(1, 40)
        if oracle.query(w, b) is CE:
            assert oracle.query(w, b2) is CE


def test_action_oracle_identity_conflict():
    oracle = rho_action_oracle(golden_codec(), ADJACENT_ONES)
    assert oracle.query("1", "0", "1", 1000) is CE


def test_action_oracle_pairs_shifted_addresses():
    # Translating by one generator step carries the w-origin next to the
    # v-origin, so two lone "1" codings become an adjacent pair.
    oracle = rho_action_oracle(golden_codec(), ADJACENT_ONES)
    assert oracle.query("x", "1", "1", 10_000) is CE
    assert oracle.query("x", "0", "1", 10_000) is UNK
    assert oracle.query("x-", "1", "1", 10_000) is CE
    # Without any pairing budget nothing links the two words.
    assert oracle.query("x", "1", "1", 3) is UNK


def test_action_oracle_empty_words_stay_unknown():
    oracle = rho_action_oracle(golden_codec(), ADJACENT_ONES)
    for s in ("1", "x", "x-"):
        assert oracle.query(s, "", "", 10_000) is UNK


def test_action_oracle_rejects_bad_inputs():
    oracle = rho_action_oracle(golden_codec(), ADJACENT_ONES)
    with pytest.raises(UnknownSymbol):
        oracle.query("y", "0", "0", 10)
    with pytest.raises(UnknownSymbol):
        oracle.query("x", "02", "0", 10)


def test_action_oracle_per_word_rejection():
    oracle = rho_action_oracle(golden_codec(), ADJACENT_ONES)
    assert oracle.query("x", "011", "0", 10_000) is CE
    assert oracle.query("x", "0", "011", 10_000) is CE


def test_identity_action_reduces_to_joint_membership():
    oracle = rho_action_oracle(golden_codec(), ADJACENT_ONES)
    cases = [
        ("010", "01", UNK),
        ("00", "01", CE),
        ("0100", "0100", UNK),
        ("001", "01", CE),
    ]
    for v, w, expected in cases:
        assert oracle.query("1", v, w, 10_000) is expected


def test_action_oracle_is_monotone_in_budget():
    oracle = rho_action_oracle(golden_codec(), ADJACENT_ONES)
    rng = random.Random(53)
    for _ in range(300):
        s = rng.choice(("1", "x", "x-"))
        v = "".join(rng.choice("01") for _ in range(rng.randrange(0, 6)))
        w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 6)))
        b = rng.randrange(0, 60)
        b2 = b + rng.randrange(1, 60)
        if oracle.query(s, v, w, b) is CE:
            assert oracle.query(s, v, w, b2) is CE


def test_trivial_action_oracle_examples():
    full = TrivialActionOracle(FullShiftSetOracle(), ("x", "x-"))
    assert full.query("x", "01", "00", 100) is CE
    assert full.query("x", "0", "01", 100) is UNK
    empty = TrivialActionOracle(EmptySetOracle(), ("x", "x-"))
    assert empty.query("x", "0", "01", 100) is CE
    assert empty.query("1", "", "", 100) is CE


def test_subshift_descriptor_round_trip():
    spec = subshift_from_descriptor(
        {
            "group": {"kind": "free_abelian", "rank": 1},
            "alphabet": ["0", "1"],
            "forbidden": [[["", "1"], ["x", "1"]]],
        }
    )
    assert spec.alphabet.symbols == ("0", "1")
    assert spec.forbidden == ADJACENT_ONES
    codec = make_codec(spec.group, spec.alphabet, 4)
    oracle = rho_set_oracle(codec, spec.forbidden)
    assert oracle.query("11", 1000) is CE


def test_subshift_descriptor_errors():
    with pytest.raises(SchemaError):
        subshift_from_descriptor({"alphabet": ["0"]})
    with pytest.raises(SchemaError):
        subshift_from_descriptor(
            {"group": {"kind": "free_abelian", "rank": 1}, "alphabet": []}
        )
    with pytest.raises(SchemaError):
        subshift_from_descriptor(
            {
                "group": {"kind": "free_abelian", "rank": 1},
                "alphabet": ["0"],
                "forbidden": [[["", "9"]]],
            }
        )


# -- the table-driven oracles against the step-by-step model ----------------
#
# The references below spend one step at a time and look every word up in
# the ball, as the cost model in the module docstring describes; the oracles
# must agree with them on the verdict and on the budget used.


def reference_decode(codec, block):
    for sym, code in codec.upsilon.items():
        if code == block:
            return sym
    return None


def reference_coding_occurs(ball, values, coding, base):
    for h, sym in coding:
        idx = ball.resolve(base + tuple(h))
        if idx is None or idx not in values:
            return False
        if values[idx] != sym:
            return False
    return True


def reference_scan(codec, forbidden, values, budget):
    for coding in forbidden:
        for base in codec.ball.elements:
            if not budget.spend():
                return None
            if reference_coding_occurs(codec.ball, values, coding, base):
                return CE
    return None


def reference_reject_word(codec, forbidden, word, budget):
    blocks = codec.blocks(word)
    for block in blocks:
        if not budget.spend():
            return None
        if reference_decode(codec, block) is None:
            return CE
    values = {n: reference_decode(codec, blocks[n]) for n in range(min(len(blocks), len(codec.ball)))}
    return reference_scan(codec, forbidden, values, budget)


def reference_set_query(codec, forbidden, word, budget):
    return reference_reject_word(codec, forbidden, word, budget) or UNK


def reference_action_query(codec, forbidden, s, v, w, budget):
    for word in (v, w):
        verdict = reference_reject_word(codec, forbidden, word, budget)
        if verdict is not None:
            return verdict
    blocks_v, blocks_w = codec.blocks(v), codec.blocks(w)
    merged = {n: reference_decode(codec, b) for n, b in enumerate(blocks_v) if n < len(codec.ball)}
    for m in range(min(len(blocks_w), len(codec.ball))):
        if not budget.spend():
            return UNK
        n = codec.ball.resolve((s,) + codec.enumeration(m))
        if n is None:
            continue
        if n < len(blocks_v):
            if not budget.spend():
                return UNK
            if blocks_v[n] != blocks_w[m]:
                return CE
        merged.setdefault(n, reference_decode(codec, blocks_w[m]))
    return reference_scan(codec, forbidden, merged, budget) or UNK


SMALL_BALLS = {
    "Z": (FreeAbelianOracle(1), 6),
    "Z2": (FreeAbelianOracle(2), 3),
    "F2": (FreeGroupOracle(2), 2),
    "Grigorchuk": (GrigorchukOracle(), 4),
}


# Balls much larger than the words queried on them, so that a scan reads
# few of the rows, and a ball of the identity alone.
WIDE_BALLS = {
    "Z r=20": (FreeAbelianOracle(1), 20),
    "Grigorchuk r=5": (GrigorchukOracle(), 5),
    "F2 r=0": (FreeGroupOracle(2), 0),
}


@functools.cache
def small_codec(name, size):
    oracle, radius = SMALL_BALLS[name] if name in SMALL_BALLS else WIDE_BALLS[name]
    return make_codec(oracle, Alphabet(tuple("abcde"[:size])), radius)


def draw_blocks(data, codec, count):
    # Codes that name no symbol exist for 3 and 5 symbols; keep them rare
    # so that most words reach the coding scans.
    codes = sorted(codec.upsilon.values())
    spare = [format(i, f"0{codec.kappa}b") for i in range(len(codes), 2**codec.kappa)]
    return data.draw(st.lists(st.sampled_from(codes * 12 + spare), min_size=count, max_size=count))


def draw_word(data, codec, blocks):
    """A word from its blocks and a trailing partial block."""
    return "".join(blocks) + data.draw(st.text(alphabet="01", max_size=codec.kappa - 1))


def draw_forbidden(data, codec):
    gens = codec.group.gens.symbols
    radius = codec.ball.radius
    # Words one step longer than the radius put some placements outside the ball.
    word = st.lists(st.sampled_from(gens), max_size=radius + 1).map(tuple)
    pair = st.tuples(word, st.sampled_from(codec.alphabet.symbols))
    codings = st.lists(st.lists(pair, min_size=1, max_size=3), max_size=2)
    return tuple(coding_from_pairs(pairs) for pairs in data.draw(codings))


def draw_action_words(data, codec, counts=None):
    """(s, v, w): v mostly carries w moved by s, with some blocks redrawn.

    `counts` draws the block counts of w and v (by default each up to
    three past the ball).
    """
    s = data.draw(st.sampled_from(codec.group.gens.symbols))
    size = len(codec.ball)
    if counts is None:
        counts = st.tuples(st.integers(0, size + 3), st.integers(0, size + 3))
    count_w, count_v = data.draw(counts)
    blocks_w = draw_blocks(data, codec, count_w)
    blocks_v = draw_blocks(data, codec, count_v)
    if data.draw(st.booleans()):
        for m in range(min(len(blocks_w), size)):
            n = codec.ball.resolve((s,) + codec.enumeration(m))
            if n is not None and n < len(blocks_v):
                blocks_v[n] = blocks_w[m]
        for _ in range(data.draw(st.integers(0, 2))):
            if blocks_v:
                n = data.draw(st.integers(0, len(blocks_v) - 1))
                blocks_v[n] = draw_blocks(data, codec, 1)[0]
    return s, draw_word(data, codec, blocks_v), draw_word(data, codec, blocks_w)


def assert_same_answer(data, query, reference):
    """Equal verdicts and budget use at a budget from 0 to two past the full cost."""
    full = Budget(10**9)
    reference(full)
    # Half of the budgets land within two steps of the full cost.
    limit = data.draw(st.integers(0, full.used + 2) | st.integers(max(0, full.used - 2), full.used + 2))
    mine, theirs = Budget(limit), Budget(limit)
    assert (query(mine), mine.used) == (reference(theirs), theirs.used)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_oracles_match_the_step_by_step_model(data):
    codec = small_codec(data.draw(st.sampled_from(sorted(SMALL_BALLS))), data.draw(st.sampled_from((2, 3, 5))))
    forbidden = draw_forbidden(data, codec)
    set_oracle, action_oracle = RhoSetOracle(codec, forbidden), RhoActionOracle(codec, forbidden)
    # Several queries per oracle, so later ones read tables built earlier.
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            blocks = draw_blocks(data, codec, data.draw(st.integers(0, len(codec.ball) + 3)))
            word = draw_word(data, codec, blocks)
            assert_same_answer(
                data,
                lambda budget: set_oracle._query(word, budget),
                lambda budget: reference_set_query(codec, forbidden, word, budget),
            )
        else:
            s, v, w = draw_action_words(data, codec)
            assert_same_answer(
                data,
                lambda budget: action_oracle._query(s, v, w, budget),
                lambda budget: reference_action_query(codec, forbidden, s, v, w, budget),
            )


# Block counts (of w, then of v) up to 12 with v shorter than w, so that
# the pair pass carries some w-blocks to addresses beyond v.
SHORTER_V = st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, max(n - 1, 0))))


def draw_sparse_forbidden(data, codec):
    """One or two codings of up to three pairs, their words short enough
    that a word of a few blocks can hold a placement; half the time no
    pair sits at the identity, so a row's reach need not grow with its
    base.  A coding of no pairs occurs in every word, the empty one too."""
    gens = codec.group.gens.symbols
    word = st.lists(st.sampled_from(gens), max_size=3).map(tuple)
    if data.draw(st.booleans()):
        word = word.filter(lambda h: codec.ball.resolve(h) != 0)
    pair = st.tuples(word, st.sampled_from(codec.alphabet.symbols))
    pairs = st.lists(pair, max_size=data.draw(st.integers(1, 3)))
    return tuple(coding_from_pairs(p) for p in data.draw(st.lists(pairs, min_size=1, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_oracles_match_the_step_by_step_model_on_short_words(data):
    # A word of L blocks lets the scans read only the rows of reach below
    # L, and the merged scan only the rows through an address carried
    # from w; v is shorter than w, so the pair pass carries some.
    codec = small_codec(data.draw(st.sampled_from(sorted(WIDE_BALLS))), data.draw(st.sampled_from((2, 3))))
    forbidden = draw_sparse_forbidden(data, codec)
    set_oracle, action_oracle = RhoSetOracle(codec, forbidden), RhoActionOracle(codec, forbidden)
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            word = draw_word(data, codec, draw_blocks(data, codec, data.draw(st.integers(0, 12))))
            assert_same_answer(
                data,
                lambda budget: set_oracle._query(word, budget),
                lambda budget: reference_set_query(codec, forbidden, word, budget),
            )
        else:
            s, v, w = draw_action_words(data, codec, SHORTER_V)
            assert_same_answer(
                data,
                lambda budget: action_oracle._query(s, v, w, budget),
                lambda budget: reference_action_query(codec, forbidden, s, v, w, budget),
            )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_merged_scan_matches_the_step_by_step_model(data):
    # Random codings seldom occur in the merged pattern alone, so one is
    # planted there, at the identity.  v carries w moved by s and is one to
    # three blocks shorter, so some w-blocks are carried beyond v and some
    # v-blocks pair with no w-block.  The planted coding reads a carried
    # block and such a v-block, if there is one (else the scan of w finds
    # it moved by s⁻¹), and maybe one more of either; five symbols make
    # chance placements in v or w rarer.
    codec = small_codec(data.draw(st.sampled_from(("Grigorchuk r=5", "Z r=20"))), data.draw(st.sampled_from((3, 5))))
    gens = codec.group.gens
    s = data.draw(st.sampled_from([g for g in gens.symbols if g != gens.identity]))
    count_v = data.draw(st.integers(0, 11))
    blocks_w = draw_blocks(data, codec, data.draw(st.integers(count_v + 1, min(count_v + 3, 12))))
    blocks_v = draw_blocks(data, codec, count_v)
    paired = [codec.ball.resolve((s,) + codec.enumeration(m)) for m in range(len(blocks_w))]
    carried = []
    for m, n in enumerate(paired):
        if n is None:
            continue
        if n < count_v:
            blocks_v[n] = blocks_w[m]
        else:
            carried.append((n, codec.decode_block(blocks_w[m])))
    unpaired = [(n, codec.decode_block(blocks_v[n])) for n in range(count_v) if n not in paired]
    forbidden = ()
    if carried:
        pairs = [data.draw(st.sampled_from(carried))]
        if unpaired:
            pairs.append(data.draw(st.sampled_from(unpaired)))
        pairs += data.draw(st.lists(st.sampled_from(carried + unpaired), max_size=1))
        forbidden = (coding_from_pairs((codec.enumeration(n), sym) for n, sym in pairs),)
    v, w = "".join(blocks_v), "".join(blocks_w)
    action_oracle = RhoActionOracle(codec, forbidden)
    assert_same_answer(
        data,
        lambda budget: action_oracle._query(s, v, w, budget),
        lambda budget: reference_action_query(codec, forbidden, s, v, w, budget),
    )


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_decode_blocks_decodes_each_complete_block(size):
    # kappa 1, 1, 2 and 3; every width but that of two symbols has codes
    # that name no symbol.
    codec = small_codec("Z", size)
    for length in range(3 * codec.kappa + 2):
        for bits in itertools.product("01", repeat=length):
            word = "".join(bits)
            assert codec.decode_blocks(word) == [codec.decode_block(b) for b in codec.blocks(word)]


def test_charging_steps_at_once_equals_charging_them_one_by_one():
    for limit in range(7):
        for used in range(limit + 1):
            for steps in range(9):
                bulk, single = Budget(limit), Budget(limit)
                bulk.used = single.used = used
                granted = bulk.spend(steps)
                results = [single.spend(1) for _ in range(steps)]
                assert bulk.used == single.used
                assert granted == all(results)


def test_address_tables_are_built_once_per_oracle(monkeypatch):
    calls = []
    resolve = CayleyBall.resolve

    def counted(ball, word):
        calls.append(ball)
        return resolve(ball, word)

    monkeypatch.setattr(CayleyBall, "resolve", counted)
    codec = golden_codec(4)
    set_oracle = rho_set_oracle(codec, ADJACENT_ONES)
    action_oracle = rho_action_oracle(codec, ADJACENT_ONES)
    assert calls == []
    assert set_oracle.query("0100", 1000) is UNK
    assert calls
    calls.clear()
    assert set_oracle.query("0110", 1000) is UNK
    assert set_oracle.query("0101", 1000) is CE
    assert calls == []
    assert action_oracle.query("x", "1", "1", 10_000) is CE
    assert calls
    calls.clear()
    assert action_oracle.query("x", "0", "1", 10_000) is UNK
    assert calls == []
    # Another codec gets tables of its own.
    wider = golden_codec(6)
    x5_and_x6 = "0" * 9 + "101"  # beyond the radius-4 ball
    assert rho_set_oracle(wider, ADJACENT_ONES).query(x5_and_x6, 1000) is CE
    assert calls and all(ball is wider.ball for ball in calls)
    assert set_oracle.query(x5_and_x6, 1000) is UNK


@pytest.mark.parametrize("oracle, radius", [(FreeAbelianOracle(2), 8), (FreeGroupOracle(2), 4)])
def test_whole_ball_action_pair_is_certified_within_a_linear_budget(oracle, radius):
    # c has a 1 at the identity and at y·y only; v codes c moved by s, the
    # block at s·identity is flipped, and the pair pass finds it first.
    codec = make_codec(oracle, Alphabet(("0", "1")), radius)
    ball, size = codec.ball, len(codec.ball)
    ones = {0, ball.index[("y", "y")]}
    w = "".join("1" if n in ones else "0" for n in range(size))
    actions = rho_action_oracle(codec, ADJACENT_ONES)
    for s in ("x", "y-"):
        back = oracle.gens.word_inverse((s,))
        v = "".join("1" if ball.resolve(back + ball.elements[n]) in ones else "0" for n in range(size))
        k = ball.resolve((s,))
        flipped = v[:k] + ("0" if v[k] == "1" else "1") + v[k + 1 :]
        # Each word decoded and scanned once, each w-block paired and compared once.
        linear = len(v) + len(w) + 2 * len(ADJACENT_ONES) * size + 2 * len(w)
        assert actions.query(s, flipped, w, linear) is CE
        assert actions.query(s, v, w, linear) is UNK
        assert actions.query(s, v, w, 10**6) is UNK
