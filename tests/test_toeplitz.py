"""Interleaved codings on the line: encode, decompose, decode, test."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshift.effective import (
    EmptySetOracle,
    FullShiftSetOracle,
    TrivialActionOracle,
    _check_binary,
    make_codec,
    rho_action_oracle,
    rho_set_oracle,
)
from groupshift.errors import BadLength, InsufficientPrefix, UnknownSymbol
from groupshift.groups import FreeAbelianOracle
from groupshift.shiftcore import Alphabet, coding_from_pairs
from groupshift.toeplitz import (
    FILLER,
    TSYMS,
    LayeredWord,
    WindowVerdict,
    _check_tword,
    cyclic_decompose,
    decode_procedure,
    psi_encode,
    psi_tilde,
    symbol_depth,
    top1d_forbidden,
)

# 27 positions of the three-bit word "010", positions 0..26.
SPREAD_010 = "␣0␣10␣␣0␣00␣10␣␣0␣␣0␣10␣␣0␣"

ADJACENT_ONES = (coding_from_pairs([((), "1"), (("x",), "1")]),)


def golden_oracles(radius=4):
    codec = make_codec(FreeAbelianOracle(1), Alphabet(("0", "1")), radius)
    return rho_set_oracle(codec, ADJACENT_ONES), rho_action_oracle(codec, ADJACENT_ONES), codec


def test_depth_rule():
    assert symbol_depth(0) is None
    assert symbol_depth(1) == 0
    assert symbol_depth(4) == 0
    assert symbol_depth(3) == 1
    assert symbol_depth(9) == 2
    assert symbol_depth(6) is None
    assert symbol_depth(-2) == 0
    assert symbol_depth(-6) == 1
    assert symbol_depth(-9) is None


def test_encode_spreads_bits_by_depth():
    assert psi_encode("010", range(27)) == SPREAD_010
    assert psi_encode("0", [1]) == "0"
    assert psi_encode("0", [4]) == "0"
    assert psi_encode("01", [3]) == "1"
    assert psi_encode("01", [0]) == FILLER


def test_encode_is_periodic_at_shallow_depths():
    assert psi_encode("01", range(-9, 0)) == psi_encode("01", range(0, 9))


def test_encode_needs_enough_bits():
    with pytest.raises(InsufficientPrefix):
        psi_encode("0", [3])
    with pytest.raises(UnknownSymbol):
        psi_encode("02", [1])


def test_decompose_single_block():
    assert cyclic_decompose("01" + FILLER) == ("1", "0")


def test_decompose_peels_one_bit_off_a_nine_cell_window():
    word = f"{FILLER}1{FILLER}01{FILLER}{FILLER}1{FILLER}"
    assert cyclic_decompose(word) == ("1", f"{FILLER}0{FILLER}")


def test_decompose_rejects_blank_word():
    assert cyclic_decompose(FILLER * 3) is None
    assert cyclic_decompose("000") is None


def test_decompose_checks_length():
    for bad in ("", "01", "0101", FILLER * 6):
        with pytest.raises(BadLength):
            cyclic_decompose(bad)


def test_decode_known_spread():
    assert decode_procedure(SPREAD_010) == "010"


def test_decode_is_rotation_invariant():
    for k in range(27):
        rotated = SPREAD_010[k:] + SPREAD_010[:k]
        assert decode_procedure(rotated) == "010"


def test_decode_shifted_window():
    # The window [1, 10) needs one bit beyond the two it decodes; that bit
    # lands in the residues and never surfaces.
    window = psi_encode("010", range(1, 10))
    assert decode_procedure(window) == "01"


def test_decode_rejects_blank_window():
    assert decode_procedure(FILLER * 9) is None


def test_roundtrip_over_all_short_prefixes_and_offsets():
    rng = random.Random(71)
    for m in range(1, 5):
        block = 3**m
        for bits in itertools.product("01", repeat=m):
            x = "".join(bits)
            for pad in "01":
                spread = psi_encode(x + pad, range(1, 2 * block + 1))
                for offset in range(1, block + 1):
                    window = spread[offset - 1 : offset - 1 + block]
                    assert decode_procedure(window) == x
    # Longer prefixes, sampled offsets.
    block = 3**5
    for bits in itertools.product("01", repeat=5):
        x = "".join(bits)
        spread = psi_encode(x + "0", range(1, 2 * block + 1))
        for offset in rng.sample(range(1, block + 1), 12):
            window = spread[offset - 1 : offset - 1 + block]
            assert decode_procedure(window) == x


# The character-by-character split that the stride slices replaced, and
# the decoder built on it, which checks the word again in every round.

POWERS_OF_THREE = {3**k for k in range(1, 16)}


def reference_decompose(v):
    for ch in v:
        if ch not in TSYMS:
            raise UnknownSymbol(f"expected 0, 1 or {FILLER!r}, found {ch!r}")
    if len(v) not in POWERS_OF_THREE:
        raise BadLength(f"length {len(v)} is not a power of three (≥ 3)")
    length = len(v)
    for phase in range(3):
        bit = None
        ok = True
        for i in range(length // 3):
            middle = v[(phase + 3 * i + 1) % length]
            last = v[(phase + 3 * i + 2) % length]
            if middle not in "01" or last != FILLER:
                ok = False
                break
            if bit is None:
                bit = middle
            elif bit != middle:
                ok = False
                break
        if ok and bit is not None:
            return bit, "".join(v[(phase + 3 * i) % length] for i in range(length // 3))
    return None


def reference_decode(w):
    if len(w) not in POWERS_OF_THREE:
        raise BadLength(f"length {len(w)} is not a power of three (≥ 3)")
    bits = []
    while len(w) >= 3:
        step = reference_decompose(w)
        if step is None:
            return None
        bit, w = step
        bits.append(bit)
    return "".join(bits)


def outcome(f, word):
    """f(word), or the type and text of what it raised."""
    try:
        return f(word)
    except (BadLength, UnknownSymbol) as exc:
        return type(exc), str(exc)


def test_stride_split_matches_the_reference_on_every_short_word():
    words = itertools.chain(
        ("".join(w) for n in (3, 9) for w in itertools.product(TSYMS, repeat=n)),
        # Bad lengths, foreign symbols, and both at once.
        ("".join(w) for n in range(5) for w in itertools.product("01x" + FILLER, repeat=n)),
    )
    for word in words:
        assert outcome(cyclic_decompose, word) == outcome(reference_decompose, word)
        assert outcome(decode_procedure, word) == outcome(reference_decode, word)


@settings(max_examples=200, deadline=None)
@given(
    start=st.integers(-243, 243),
    length=st.sampled_from([27, 81]),
    bits=st.text("01", min_size=6, max_size=6),
    changes=st.lists(st.tuples(st.integers(0, 80), st.sampled_from(TSYMS)), max_size=2),
)
def test_stride_split_matches_the_reference_near_spreads(start, length, bits, changes):
    # Positions within 324 of 0 have depth at most 5, so six bits cover them.
    word = list(psi_encode(bits, range(start, start + length)))
    for at, sym in changes:
        word[at % length] = sym
    word = "".join(word)
    assert cyclic_decompose(word) == reference_decompose(word)
    assert decode_procedure(word) == reference_decode(word)
    if not changes:
        assert decode_procedure(word) == bits[: {27: 3, 81: 4}[length]]


def test_layered_word_validation():
    with pytest.raises(BadLength):
        LayeredWord(3, {"1": "01"})
    with pytest.raises(UnknownSymbol):
        LayeredWord(2, {"1": "0x"})
    word = LayeredWord(3, {"1": "01" + FILLER, "x": FILLER * 3})
    assert word.layer("1") == "01" + FILLER
    with pytest.raises(UnknownSymbol):
        word.layer("y")


@pytest.mark.parametrize(
    "check, text",
    [
        (lambda: _check_binary("01a1b"), "expected a binary word, found 'a'"),
        (lambda: _check_binary(["0", "2", "x"]), "expected a binary word, found '2'"),
        (lambda: _check_tword(f"0{FILLER}a1b"), f"expected 0, 1 or {FILLER!r}, found 'a'"),
        (
            lambda: LayeredWord(3, {"1": f"01{FILLER}", "x": "0ba", "y": "c01"}),
            f"expected 0, 1 or {FILLER!r}, found 'b'",
        ),
    ],
)
def test_symbol_checks_name_the_first_offender(check, text):
    # The checks test a whole word at once and scan it only to name the
    # first symbol outside the alphabet.
    with pytest.raises(UnknownSymbol) as caught:
        check()
    assert str(caught.value) == text


def test_psi_tilde_builds_one_layer_per_prefix():
    layered = psi_tilde({"1": "0101", "x": "1010"}, range(81))
    assert layered.layer("1") == psi_encode("0101", range(81))
    assert layered.layer("x") == psi_encode("1010", range(81))
    assert layered.length == 81
    with pytest.raises(BadLength):
        psi_tilde({"1": "01", "x": "0"}, range(9))


def test_psi_tilde_constant_layers_for_equal_prefixes():
    layered = psi_tilde({s: "01" for s in ("1", "x", "x-")}, range(9))
    words = set(layered.layers.values())
    assert len(words) == 1


def test_blank_layer_is_forbidden():
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    enc = psi_encode("01", range(9))
    layered = LayeredWord(9, {"1": enc, "x": FILLER * 9, "x-": enc})
    assert top1d_forbidden(layered, X, T, 1000) is WindowVerdict.FORBIDDEN


def test_trivial_action_accepts_constant_layers():
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    layered = psi_tilde({s: "01" for s in ("1", "x", "x-")}, range(9))
    assert top1d_forbidden(layered, X, T, 1000) is WindowVerdict.NOT_CERTIFIED


def test_trivial_action_rejects_mismatched_layers():
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    layered = psi_tilde({"1": "01", "x": "00", "x-": "01"}, range(9))
    assert top1d_forbidden(layered, X, T, 1000) is WindowVerdict.FORBIDDEN


def test_empty_set_oracle_forbids_everything_decodable():
    X = EmptySetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    layered = psi_tilde({s: "01" for s in ("1", "x", "x-")}, range(9))
    assert top1d_forbidden(layered, X, T, 1000) is WindowVerdict.FORBIDDEN


def test_golden_mean_action_forbids_adjacent_ones():
    X, T, _ = golden_oracles()
    layered = psi_tilde({"1": "1", "x": "1", "x-": "0"}, range(3))
    assert top1d_forbidden(layered, X, T, 50_000) is WindowVerdict.FORBIDDEN


def line_position(word) -> int:
    return word.count("x") - word.count("x-")


def golden_mean_lines(span):
    """All 0/1 rows on positions -span..span without adjacent ones."""
    cells = list(range(-span, span + 1))
    for bits in itertools.product("01", repeat=len(cells)):
        row = dict(zip(cells, bits))
        if any(row[p] == "1" and row[p + 1] == "1" for p in cells[:-1]):
            continue
        yield row


def test_genuine_orbit_windows_are_never_forbidden():
    X, T, codec = golden_oracles()
    shifts = {"1": 0, "x": -1, "x-": 1}
    for row in golden_mean_lines(3):
        for m in range(1, 5):
            prefixes = {
                s: "".join(
                    row[line_position(codec.enumeration(n)) + shifts[s]]
                    for n in range(m)
                )
                for s in shifts
            }
            layered = psi_tilde(prefixes, range(3**m))
            assert top1d_forbidden(layered, X, T, 100_000) is WindowVerdict.NOT_CERTIFIED
            for s in shifts:
                assert decode_procedure(layered.layer(s)) == prefixes[s]
