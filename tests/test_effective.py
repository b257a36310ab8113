"""Binary codings and budgeted emptiness oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from groupshift.effective import (
    EmptySetOracle,
    FullShiftSetOracle,
    TrivialActionOracle,
    Verdict,
    make_codec,
    rho_action_oracle,
    rho_decode,
    rho_encode,
    rho_set_oracle,
    subshift_from_descriptor,
)
from groupshift.errors import IncompleteSupport, SchemaError, UnknownSymbol
from groupshift.groups import FreeAbelianOracle
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
        assert rho_decode(codec, word) == values


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
