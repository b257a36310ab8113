"""Budgeted emptiness oracles and the binary coding of ball patterns.

A configuration over a finitely generated group is flattened to one binary
sequence by fixing an addressing of group elements (canonical ball words in
shortlex order, address 0 = identity) and a fixed-width binary coding of the
alphabet.  Membership questions about the original subshift then become
cylinder-emptiness questions about binary words, answered by semi-decision
procedures that may spend at most a caller-supplied number of primitive
steps.  One step is one block decode, one address lookup, one block
comparison, or one translated-coding test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    AlphabetMismatch,
    IncompleteSupport,
    OutOfBall,
    SchemaError,
    UnknownSymbol,
)
from .groups import (
    CayleyBall,
    GroupOracle,
    Word,
    cayley_ball,
    group_from_descriptor,
    parse_word,
)
from .shiftcore import Alphabet, Pattern, coding_from_pairs


class Verdict(Enum):
    """Outcome of a budgeted emptiness query."""

    CERTIFIED_EMPTY = "CertifiedEmpty"
    UNKNOWN = "Unknown"


class Budget:
    """Mutable step counter; spend() refuses once the limit is reached."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = max(0, int(limit))
        self.used = 0

    def spend(self, steps: int = 1) -> bool:
        if self.used + steps > self.limit:
            self.used = self.limit
            return False
        self.used += steps
        return True

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


def _check_binary(word: str) -> None:
    for ch in word:
        if ch not in "01":
            raise UnknownSymbol(f"expected a binary word, found {ch!r}")


class SetOracle:
    """Semi-decision procedure for emptiness of binary cylinders.

    query(w, budget) answers CertifiedEmpty only when the cylinder [w]
    provably misses the underlying set, and Unknown otherwise (including
    when the budget runs out).  Answers are monotone in the budget, and a
    certified word stays certified under extension.
    """

    def query(self, word: str, budget: int) -> Verdict:
        _check_binary(word)
        return self._query(word, Budget(budget))

    def _query(self, word: str, budget: Budget) -> Verdict:
        raise NotImplementedError


class ActionOracle:
    """Semi-decision procedure for emptiness of [v] ∩ s·([w] ∩ X).

    Subclasses set `generators` (the symbols accepted as s, including the
    identity symbol) and implement _query.
    """

    generators: tuple = ()
    identity: str = "1"

    def query(self, s: str, v: str, w: str, budget: int) -> Verdict:
        if s not in self.generators and s != self.identity:
            raise UnknownSymbol(f"unknown action symbol {s!r}")
        _check_binary(v)
        _check_binary(w)
        return self._query(s, v, w, Budget(budget))

    def _query(self, s: str, v: str, w: str, budget: Budget) -> Verdict:
        raise NotImplementedError


class EmptySetOracle(SetOracle):
    """Oracle for the empty set: every cylinder is certified at budget 1."""

    def _query(self, word, budget):
        if budget.spend():
            return Verdict.CERTIFIED_EMPTY
        return Verdict.UNKNOWN


class FullShiftSetOracle(SetOracle):
    """Oracle for the full binary shift: nothing is ever certified."""

    def _query(self, word, budget):
        return Verdict.UNKNOWN


@dataclass(frozen=True, eq=False)
class SubshiftCodec:
    """Addressing and symbol coding shared by the binary oracles.

    Address n is the n-th canonical ball element (shortlex, address 0 the
    identity); `upsilon` codes each alphabet symbol as a binary word of
    length `kappa`.  Binary words are read in blocks of length kappa:
    block n describes the symbol at address n.
    """

    group: GroupOracle
    ball: CayleyBall
    alphabet: Alphabet
    kappa: int
    upsilon: dict

    def enumeration(self, n: int) -> Word:
        if n < 0 or n >= len(self.ball):
            raise OutOfBall(f"address {n} is beyond the {len(self.ball)}-element ball")
        return self.ball.elements[n]

    def blocks(self, word: str) -> list:
        """Complete kappa-blocks of a binary word (trailing remainder dropped)."""
        k = self.kappa
        return [word[i : i + k] for i in range(0, len(word) - k + 1, k)]

    def decode_block(self, block: str):
        """Symbol coded by a block, or None if the block codes nothing."""
        for sym, code in self.upsilon.items():
            if code == block:
                return sym
        return None


def make_codec(
    oracle: GroupOracle,
    alphabet: Alphabet,
    radius: int,
    max_elements: int = 1_000_000,
) -> SubshiftCodec:
    """Build the codec over the radius-r ball of a group.

    kappa = ⌈log₂|A|⌉ (at least 1) and upsilon assigns alphabet symbols
    their index written in kappa binary digits, in alphabet order.
    """
    ball = cayley_ball(oracle, radius, max_elements)
    size = len(alphabet)
    kappa = max(1, (size - 1).bit_length())
    upsilon = {sym: format(i, f"0{kappa}b") for i, sym in enumerate(alphabet.symbols)}
    return SubshiftCodec(oracle, ball, alphabet, kappa, upsilon)


def rho_encode(codec: SubshiftCodec, pattern: Pattern, last_address=None) -> str:
    """Binary coding of a ball pattern: block n = upsilon(value at address n).

    The pattern must assign a symbol to every address 0..last_address
    (default: the whole ball); support words are resolved through the
    ball, so any representatives of the right elements work.
    """
    if last_address is None:
        last_address = len(codec.ball) - 1
    by_address: dict = {}
    for h in pattern.support:
        idx = codec.ball.resolve(h)
        if idx is None:
            continue
        sym = pattern.values[h]
        if sym not in codec.alphabet:
            raise AlphabetMismatch(f"symbol {sym!r} is not in the coded alphabet")
        if idx in by_address and by_address[idx] != sym:
            raise IncompleteSupport(f"conflicting values at address {idx}")
        by_address[idx] = sym
    out = []
    for n in range(last_address + 1):
        if n not in by_address:
            raise IncompleteSupport(
                f"no value at address {n} ({' '.join(codec.enumeration(n)) or 'identity'})"
            )
        out.append(codec.upsilon[by_address[n]])
    return "".join(out)


def rho_decode(codec: SubshiftCodec, word: str) -> dict:
    """Partial map address → symbol read off the complete blocks of a word.

    Blocks that code no symbol are skipped, as are addresses beyond the
    ball; this is the raw inverse used by the oracles, not a validator.
    """
    values = {}
    for n, block in enumerate(codec.blocks(word)):
        if n >= len(codec.ball):
            break
        sym = codec.decode_block(block)
        if sym is not None:
            values[n] = sym
    return values


def _coding_occurs(ball: CayleyBall, values: dict, coding, base: Word) -> bool:
    """Does a translated pattern coding occur inside a partial value map?"""
    for h, sym in coding:
        idx = ball.resolve(base + tuple(h))
        if idx is None or idx not in values:
            return False
        if values[idx] != sym:
            return False
    return True


class RhoSetOracle(SetOracle):
    """Emptiness tester for binary codings of a finitely-forbidden subshift.

    A word is certified when, within budget, (i) some complete block codes
    no symbol, or (ii) the decoded partial pattern contains a forbidden
    coding translated by some ball element.  Ball addresses name distinct
    group elements, so no two blocks describe the same cell.
    """

    def __init__(self, codec: SubshiftCodec, forbidden):
        self.codec = codec
        self.forbidden = tuple(tuple(coding) for coding in forbidden)

    def _query(self, word, budget):
        verdict = self._reject_word(word, budget)
        return verdict if verdict is not None else Verdict.UNKNOWN

    def _reject_word(self, word, budget):
        """CERTIFIED_EMPTY if some test fails within budget, else None."""
        codec = self.codec
        blocks = codec.blocks(word)
        for block in blocks:
            if not budget.spend():
                return None
            if codec.decode_block(block) is None:
                return Verdict.CERTIFIED_EMPTY
        limit = min(len(blocks), len(codec.ball))
        values = {n: codec.decode_block(blocks[n]) for n in range(limit)}
        return self._scan_codings(values, budget)

    def _scan_codings(self, values: dict, budget):
        codec = self.codec
        for coding in self.forbidden:
            for base in codec.ball.elements:
                if not budget.spend():
                    return None
                if _coding_occurs(codec.ball, values, coding, base):
                    return Verdict.CERTIFIED_EMPTY
        return None


class RhoActionOracle(ActionOracle):
    """Emptiness tester for [v] ∩ s·([w] ∩ Z) in the binary coding.

    Beyond the per-word tests of the set oracle, blocks paired by the
    action are cross-checked: whenever address n names s times the element
    at address m, block n of v must equal block m of w.  The w-blocks are
    then carried over to their paired v-addresses and the merged partial
    pattern is scanned against the forbidden codings.
    """

    def __init__(self, codec: SubshiftCodec, forbidden):
        self.codec = codec
        self.set_oracle = RhoSetOracle(codec, forbidden)
        self.generators = codec.group.gens.symbols
        self.identity = codec.group.gens.identity

    def _query(self, s, v, w, budget):
        for word in (v, w):
            verdict = self.set_oracle._reject_word(word, budget)
            if verdict is not None:
                return verdict
            if budget.exhausted:
                return Verdict.UNKNOWN
        codec = self.codec
        blocks_v = codec.blocks(v)
        blocks_w = codec.blocks(w)
        merged = {n: codec.decode_block(b) for n, b in enumerate(blocks_v) if n < len(codec.ball)}
        for m in range(min(len(blocks_w), len(codec.ball))):
            if not budget.spend():
                return Verdict.UNKNOWN
            n = codec.ball.resolve((s,) + codec.enumeration(m))
            if n is None:
                continue
            if n < len(blocks_v):
                if not budget.spend():
                    return Verdict.UNKNOWN
                if blocks_v[n] != blocks_w[m]:
                    return Verdict.CERTIFIED_EMPTY
            merged.setdefault(n, codec.decode_block(blocks_w[m]))
        verdict = self.set_oracle._scan_codings(merged, budget)
        return verdict if verdict is not None else Verdict.UNKNOWN


class TrivialActionOracle(ActionOracle):
    """Action oracle for the do-nothing action on a closed binary set.

    Every symbol acts as the identity, so [v] ∩ s·([w] ∩ X) is empty iff
    v and w conflict on their common prefix or X certifies either
    cylinder empty.
    """

    def __init__(self, set_oracle: SetOracle, generators, identity: str = "1"):
        self.set_oracle = set_oracle
        self.generators = tuple(generators)
        self.identity = identity

    def _query(self, s, v, w, budget):
        for a, b in zip(v, w):
            if not budget.spend():
                return Verdict.UNKNOWN
            if a != b:
                return Verdict.CERTIFIED_EMPTY
        for word in (v, w):
            if self.set_oracle._query(word, budget) is Verdict.CERTIFIED_EMPTY:
                return Verdict.CERTIFIED_EMPTY
        return Verdict.UNKNOWN


def rho_set_oracle(codec: SubshiftCodec, forbidden) -> RhoSetOracle:
    """Set oracle for the coded subshift with the given forbidden codings."""
    return RhoSetOracle(codec, forbidden)


def rho_action_oracle(codec: SubshiftCodec, forbidden) -> RhoActionOracle:
    """Action oracle for the coded translation action of the codec's group."""
    return RhoActionOracle(codec, forbidden)


@dataclass(frozen=True, eq=False)
class SubshiftSpec:
    """A group together with an alphabet and forbidden pattern codings."""

    group: GroupOracle
    alphabet: Alphabet
    forbidden: tuple


def subshift_from_descriptor(obj, path: str = "subshift") -> SubshiftSpec:
    """Parse {"group":…, "alphabet":[…], "forbidden":[[[word,symbol],…],…]}."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "group" not in obj:
        raise SchemaError(f"{path}.group", "missing")
    group = group_from_descriptor(obj["group"], f"{path}.group")
    symbols = obj.get("alphabet")
    if not isinstance(symbols, list) or not symbols:
        raise SchemaError(f"{path}.alphabet", "expected a non-empty list")
    for i, sym in enumerate(symbols):
        if not isinstance(sym, str):
            raise SchemaError(f"{path}.alphabet[{i}]", "expected a string")
    if len(set(symbols)) != len(symbols):
        raise SchemaError(f"{path}.alphabet", "symbols must be distinct")
    alphabet = Alphabet(tuple(symbols))
    forbidden = []
    raw = obj.get("forbidden", [])
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.forbidden", "expected a list")
    for i, entry in enumerate(raw):
        where = f"{path}.forbidden[{i}]"
        if not isinstance(entry, list) or not entry:
            raise SchemaError(where, "expected a non-empty list of [word, symbol] pairs")
        pairs = []
        for j, pair in enumerate(entry):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{where}[{j}]", "expected a [word, symbol] pair")
            text, sym = pair
            if not isinstance(text, str) or not isinstance(sym, str):
                raise SchemaError(f"{where}[{j}]", "word and symbol must be strings")
            if sym not in alphabet:
                raise SchemaError(f"{where}[{j}]", f"symbol {sym!r} is not in the alphabet")
            word = parse_word(text)
            group.gens.check_word(word)
            pairs.append((word, sym))
        forbidden.append(coding_from_pairs(pairs))
    return SubshiftSpec(group, alphabet, tuple(forbidden))
