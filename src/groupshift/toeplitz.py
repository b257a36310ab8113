"""Interleaved binary codings on the line and their decoding.

A binary sequence x is spread over the integers by writing bit n on the
positions congruent to 3ⁿ modulo 3ⁿ⁺¹ and a filler symbol everywhere else.
Every window of length 3ⁿ⁺¹ then determines the first n+1 bits, via a
cyclic decomposition that needs no alignment information.  Layered words
carry one such coding per group generator, and a budgeted membership test
checks a window against a set oracle and an action oracle.
"""

from __future__ import annotations

from enum import Enum

from .errors import BadLength, InsufficientPrefix, Record, UnknownSymbol
from .effective import ActionOracle, SetOracle, Verdict, _check_binary

FILLER = "␣"
TSYMS = ("0", "1", FILLER)
_TSYM_SET = frozenset(TSYMS)


def _check_tword(word: str) -> None:
    if _TSYM_SET.issuperset(word):
        return
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
    positions = list(positions)
    return _spread(x_prefix, positions, [symbol_depth(j) for j in positions])


def _spread(x_prefix: str, positions: list, depths: list) -> str:
    """`psi_encode` of a checked prefix, given the depth of each position."""
    out = []
    for j, n in zip(positions, depths):
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
    return _split(v)


def _split(v: str):
    """`cyclic_decompose` of a word already checked.

    Since 3 divides the length, slot i of every block of phase p sits at
    the positions ≡ p + i (mod 3), so each slot kind is one stride slice
    and the residues need no wrap-around.
    """
    blank = FILLER * (len(v) // 3)
    for phase in range(3):
        middle = v[(phase + 1) % 3 :: 3]
        bit = middle[0]
        if bit in "01" and middle == bit * len(middle) and v[(phase + 2) % 3 :: 3] == blank:
            return bit, v[phase::3]
    return None


def decode_procedure(w: str):
    """Recover the bit-prefix coded by a window of length 3ⁿ⁺¹.

    Decomposes repeatedly, collecting one bit per round, until a single
    symbol remains; returns the n+1 collected bits, or None as soon as a
    round has no valid decomposition.  A bad length is reported before a
    bad symbol.  This is the one decoder: `top1d_forbidden` and every row
    read of `groupshift.assembly` go through it.
    """
    if not _power_of_three(len(w)):
        raise BadLength(f"length {len(w)} is not a power of three (≥ 3)")
    _check_tword(w)
    bits = []
    current = w
    while len(current) >= 3:
        step = _split(current)
        if step is None:
            return None
        bit, current = step
        bits.append(bit)
    return "".join(bits)


class LayeredWord(Record):
    """One filler-coded word per generator; all layers have one length."""

    __slots__ = ("length", "layers")

    def __init__(self, length: int, layers: dict):
        self.length = length
        self.layers = layers
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
    depths = [symbol_depth(j) for j in positions]
    layers = {}
    for s, p in prefixes.items():
        _check_binary(p)
        layers[s] = _spread(p, positions, depths)
    return LayeredWord(len(positions), layers)


class WindowVerdict(Enum):
    """Outcome of the budgeted window membership test."""

    FORBIDDEN = "Forbidden"
    NOT_CERTIFIED = "NotCertified"


def action_layers(oracle: ActionOracle) -> tuple:
    """Layer order of the records: identity first, then the generators."""
    return tuple(dict.fromkeys((oracle.identity, *oracle.generators)))


def _prefixes_forbidden(decoded: tuple, X: SetOracle, T: ActionOracle, budget: int):
    """The oracle step of `top1d_forbidden`; the identity's prefix is first."""
    base = decoded[0]
    for s, bits in zip(action_layers(T), decoded):
        if X.query(bits, budget) is Verdict.CERTIFIED_EMPTY:
            return WindowVerdict.FORBIDDEN
        if T.query(s, bits, base, budget) is Verdict.CERTIFIED_EMPTY:
            return WindowVerdict.FORBIDDEN
    return WindowVerdict.NOT_CERTIFIED


def top1d_forbidden(
    w: LayeredWord, X: SetOracle, T: ActionOracle, budget: int, decided=None
) -> WindowVerdict:
    """Budgeted test whether a layered window is forbidden.

    The window must be a power-of-three block carrying one layer per
    action generator plus the identity.  It is Forbidden when some layer
    fails to decode, or when the oracles certify — within the per-query
    budget — that some decoded prefix u(s) has empty cylinder in X, or
    that [u(s)] misses the s-image of [u(identity)] ∩ X.  The layers are
    decoded by `decode_procedure` in `action_layers` order, stopping at
    the first that fails.  The verdict depends only on the layer strings,
    so a caller that tests many windows passes one dict as `decided`.  It
    keeps the decoded prefix (or None) of each layer string and the
    verdict of each decoded tuple: each distinct layer string is decoded
    once, and the oracles are asked once per tuple.  A string key never
    meets a tuple key.
    """
    if decided is None:
        decided = {}
    decoded = []
    for s in action_layers(T):
        word = w.layer(s)
        if word not in decided:
            decided[word] = decode_procedure(word)
        if decided[word] is None:
            return WindowVerdict.FORBIDDEN
        decoded.append(decided[word])
    decoded = tuple(decoded)
    verdict = decided.get(decoded)
    if verdict is None:
        verdict = decided[decoded] = _prefixes_forbidden(decoded, X, T, budget)
    return verdict
