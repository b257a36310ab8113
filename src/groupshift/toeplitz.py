"""Interleaved binary codings on the line and their decoding.

A binary sequence x is spread over the integers by writing bit n on the
positions congruent to 3ⁿ modulo 3ⁿ⁺¹ and a filler symbol everywhere else.
Every window of length 3ⁿ⁺¹ then determines the first n+1 bits, via a
cyclic decomposition that needs no alignment information.  Layered words
carry one such coding per group generator, and a budgeted membership test
checks a window against a set oracle and an action oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    BadLength,
    InsufficientPrefix,
    UndecodableWindow,
    UnknownSymbol,
)
from .effective import ActionOracle, SetOracle, Verdict, _check_binary

FILLER = "␣"
TSYMS = ("0", "1", FILLER)


def _check_tword(word: str) -> None:
    for ch in word:
        if ch not in TSYMS:
            raise UnknownSymbol(f"expected 0, 1 or {FILLER!r}, found {ch!r}")


def symbol_depth(j: int):
    """The n with j ≡ 3ⁿ (mod 3ⁿ⁺¹), or None when no such n exists.

    Position 0 has no depth, and a negative position j can only satisfy
    the congruence once 3ⁿ⁺¹ − 3ⁿ ≤ |j|, so the scan stops at 3ⁿ > 2|j|.
    """
    if j == 0:
        return None
    n, power = 0, 1
    while power <= 2 * abs(j):
        if j % (3 * power) == power:
            return n
        n += 1
        power *= 3
    return None


def psi_encode(x_prefix: str, positions) -> str:
    """Spread a bit-prefix over integer positions; filler where no bit lands.

    Raises InsufficientPrefix when some position calls for a bit beyond
    the supplied prefix.
    """
    _check_binary(x_prefix)
    out = []
    for j in positions:
        n = symbol_depth(j)
        if n is None:
            out.append(FILLER)
        elif n < len(x_prefix):
            out.append(x_prefix[n])
        else:
            raise InsufficientPrefix(
                f"position {j} needs bit {n}, prefix has {len(x_prefix)}"
            )
    return "".join(out)


def _power_of_three(length: int) -> bool:
    if length < 3:
        return False
    while length % 3 == 0:
        length //= 3
    return length == 1


def cyclic_decompose(v: str):
    """Split a word of length 3·k into k blocks (residue, bit, filler).

    Scans the three phases for the unique one whose middle slots all hold
    one shared bit and whose last slots are all filler (distinct phases
    are mutually exclusive, so the first hit is the only one).  Returns
    (bit, residues) with the residues read in order from the phase start,
    or None when no phase works.
    """
    _check_tword(v)
    if not _power_of_three(len(v)):
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
            residues = "".join(v[(phase + 3 * i) % length] for i in range(length // 3))
            return bit, residues
    return None


def decode_procedure(w: str):
    """Recover the bit-prefix coded by a window of length 3ⁿ⁺¹.

    Decomposes repeatedly, collecting one bit per round, until a single
    symbol remains; returns the n+1 collected bits, or None as soon as a
    round has no valid decomposition.
    """
    if not _power_of_three(len(w)):
        raise BadLength(f"length {len(w)} is not a power of three (≥ 3)")
    bits = []
    current = w
    while len(current) >= 3:
        step = cyclic_decompose(current)
        if step is None:
            return None
        bit, current = step
        bits.append(bit)
    return "".join(bits)


@dataclass(frozen=True, eq=False)
class LayeredWord:
    """One filler-coded word per generator, sharing a position window.

    `offset` is the absolute position of the first column; all layers
    have the same length.
    """

    length: int
    layers: dict
    offset: int = 0

    def __post_init__(self):
        if self.length <= 0:
            raise BadLength("layered words must have positive length")
        if not self.layers:
            raise ValueError("layered words need at least one layer")
        for s, word in self.layers.items():
            _check_tword(word)
            if len(word) != self.length:
                raise BadLength(
                    f"layer {s!r} has length {len(word)}, expected {self.length}"
                )

    def layer(self, s: str) -> str:
        if s not in self.layers:
            raise UnknownSymbol(f"no layer for generator {s!r}")
        return self.layers[s]

    def window(self, start: int, length: int) -> "LayeredWord":
        """Sub-window by absolute positions."""
        lo = start - self.offset
        if lo < 0 or lo + length > self.length:
            raise ValueError("window exceeds the stored range")
        return LayeredWord(
            length,
            {s: word[lo : lo + length] for s, word in self.layers.items()},
            start,
        )


@dataclass(frozen=True, eq=False)
class DecodedPrefix:
    """Per-generator bit-prefixes of a common length."""

    words: dict

    def __post_init__(self):
        lengths = {len(w) for w in self.words.values()}
        if len(lengths) > 1:
            raise BadLength("decoded prefixes must share one length")
        for word in self.words.values():
            _check_binary(word)


def psi_tilde(prefixes: dict, positions) -> LayeredWord:
    """Layered encoding: layer s spreads the caller-supplied prefix for s.

    The prefixes must all have one length; whether prefix(s) really is
    the s-translate of the base point is the caller's obligation.
    """
    lengths = {len(p) for p in prefixes.values()}
    if len(lengths) > 1:
        raise BadLength("all prefixes must share one length")
    positions = list(positions)
    if not positions:
        raise BadLength("empty position range")
    layers = {s: psi_encode(p, positions) for s, p in prefixes.items()}
    return LayeredWord(len(positions), layers, positions[0])


def gamma_prefix(window: LayeredWord, s: str, depth=None) -> str:
    """Bit-prefix read from the leftmost aligned block of one layer.

    An aligned block starts at a multiple of 3ⁿ⁺¹; all aligned blocks of
    a window decode identically, so the leftmost is fixed for
    determinism.  `depth` selects n; by default the largest n whose
    aligned block fits.  Raises UndecodableWindow when no aligned block
    fits or the block does not decode.
    """
    layer = window.layer(s)
    if depth is None:
        depth = 0
        while _aligned_start(window, depth + 1) is not None:
            depth += 1
        if _aligned_start(window, depth) is None:
            raise UndecodableWindow("window too short for any aligned block")
    start = _aligned_start(window, depth)
    if start is None:
        raise UndecodableWindow(f"no aligned block of depth {depth} fits")
    block_len = 3 ** (depth + 1)
    lo = start - window.offset
    bits = decode_procedure(layer[lo : lo + block_len])
    if bits is None:
        raise UndecodableWindow(f"layer {s!r} does not decode at depth {depth}")
    return bits


def _aligned_start(window: LayeredWord, depth: int):
    """Absolute start of the leftmost aligned 3^(depth+1)-block, or None."""
    block_len = 3 ** (depth + 1)
    start = -(-window.offset // block_len) * block_len
    if start + block_len <= window.offset + window.length:
        return start
    return None


class WindowVerdict(Enum):
    """Outcome of the budgeted window membership test."""

    FORBIDDEN = "Forbidden"
    NOT_CERTIFIED = "NotCertified"


def action_layers(oracle: ActionOracle) -> tuple:
    """Layer order of the records: identity first, then the generators."""
    return tuple(dict.fromkeys((oracle.identity, *oracle.generators)))


def top1d_forbidden(
    w: LayeredWord, X: SetOracle, T: ActionOracle, budget: int
) -> WindowVerdict:
    """Budgeted test whether a layered window is forbidden.

    The window must be a power-of-three block carrying one layer per
    action generator plus the identity.  It is Forbidden when some layer
    fails to decode, or when the oracles certify — within the per-query
    budget — that some decoded prefix u(s) has empty cylinder in X, or
    that [u(s)] misses the s-image of [u(identity)] ∩ X.
    """
    symbols = action_layers(T)
    decoded = {}
    for s in symbols:
        bits = decode_procedure(w.layer(s))
        if bits is None:
            return WindowVerdict.FORBIDDEN
        decoded[s] = bits
    base = decoded[T.identity]
    for s in symbols:
        if X.query(decoded[s], budget) is Verdict.CERTIFIED_EMPTY:
            return WindowVerdict.FORBIDDEN
        if T.query(s, decoded[s], base, budget) is Verdict.CERTIFIED_EMPTY:
            return WindowVerdict.FORBIDDEN
    return WindowVerdict.NOT_CERTIFIED
