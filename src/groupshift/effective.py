"""Budgeted emptiness oracles and the binary coding of ball patterns.

A configuration over a finitely generated group is flattened to one binary
sequence by fixing an addressing of group elements (canonical ball words in
shortlex order, address 0 = identity) and a fixed-width binary coding of the
alphabet.  Membership questions about the original subshift then become
cylinder-emptiness questions about binary words, answered by semi-decision
procedures that may spend at most a caller-supplied number of primitive
steps.  One step is one block decode, one address lookup, one block
comparison, or one translated-coding test.

The coded oracles look words up in the ball only to build address
tables, lazily and once per oracle: the set oracle resolves every
placement of each forbidden coding on its first coding scan, and the
action oracle resolves the pairing by a generator on the first query
with that generator.  A query then reads only the table rows its words
can complete: the rows inside a word's prefix, and for an action query
the rows through an address carried from w, so its work is proportional
to its words plus those rows, not to the ball.  Each test pass charges
its steps to the budget at once, counted by the step model above, so
verdicts and budget use are those of step-by-step charging.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum

from .errors import (
    AlphabetMismatch,
    IncompleteSupport,
    OutOfBall,
    Record,
    SchemaError,
    UnknownSymbol,
    fields,
    need,
    read_list,
)
from .groups import (
    CayleyBall,
    GroupOracle,
    Word,
    cayley_ball,
    group_from_descriptor,
    parse_word,
)
from .shiftcore import Alphabet, Budget, Pattern, coding_from_pairs


class Verdict(Enum):
    """Outcome of a budgeted emptiness query."""

    CERTIFIED_EMPTY = "CertifiedEmpty"
    UNKNOWN = "Unknown"


_BITS = frozenset("01")


def _check_binary(word: str) -> None:
    if _BITS.issuperset(word):
        return
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


class SubshiftCodec(Record):
    """Addressing and symbol coding shared by the binary oracles.

    Address n is the n-th canonical ball element (shortlex, address 0 the
    identity); `upsilon` codes each alphabet symbol as a binary word of
    length `kappa`, and `decoding` is its inverse, from code to symbol.
    Binary words are read in blocks of length kappa: block n describes the
    symbol at address n.
    """

    __slots__ = ("group", "ball", "alphabet", "kappa", "upsilon", "decoding")

    def __init__(
        self,
        group: GroupOracle,
        ball: CayleyBall,
        alphabet: Alphabet,
        kappa: int,
        upsilon: dict,
        decoding: dict,
    ):
        self.group = group
        self.ball = ball
        self.alphabet = alphabet
        self.kappa = kappa
        self.upsilon = upsilon
        self.decoding = decoding

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
        return self.decoding.get(block)

    def decode_blocks(self, word: str) -> list:
        """Symbol of each complete block of a word, None where it codes nothing."""
        return list(map(self.decoding.get, map("".join, zip(*[iter(word)] * self.kappa))))


def make_codec(oracle: GroupOracle, alphabet: Alphabet, radius: int) -> SubshiftCodec:
    """Build the codec over the radius-r ball of a group."""
    return ball_codec(cayley_ball(oracle, radius), alphabet)


def block_length(alphabet: Alphabet) -> int:
    """kappa = ⌈log₂|A|⌉, at least 1: the bits that code one symbol."""
    return max(1, (len(alphabet) - 1).bit_length())


def ball_codec(ball: CayleyBall, alphabet: Alphabet) -> SubshiftCodec:
    """The codec over a given ball: upsilon assigns alphabet symbols their
    index written in kappa binary digits, in alphabet order."""
    kappa = block_length(alphabet)
    upsilon = {sym: format(i, f"0{kappa}b") for i, sym in enumerate(alphabet.symbols)}
    decoding = {code: sym for sym, code in upsilon.items()}
    return SubshiftCodec(ball.oracle, ball, alphabet, kappa, upsilon, decoding)


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


class RhoSetOracle(SetOracle):
    """Emptiness tester for binary codings of a finitely-forbidden subshift.

    A word is certified when, within budget, (i) some complete block codes
    no symbol, or (ii) the decoded partial pattern contains a forbidden
    coding translated by some ball element.  Ball addresses name distinct
    group elements, so no two blocks describe the same cell.

    The first coding scan builds one occurrence table per forbidden coding:
    row b, for the b-th ball element `base`, holds the pairs (address of
    base·h, symbol) of the coding, or None when some base·h leaves the
    ball.  With each table go the rows that stay in the ball, ordered by
    their reach (largest address), so a word of L blocks reads only the
    rows of reach below L: no other row has a value at every address.  A
    query's work is thus proportional to its word, and later queries
    resolve no words.  A pass charges what the step model charges: one
    step per block decode, one per table row (in ball order) up to the
    first row that occurs.
    """

    def __init__(self, codec: SubshiftCodec, forbidden):
        self.codec = codec
        self.forbidden = tuple(tuple(coding) for coding in forbidden)
        self._occurrences = None
        self._through = None

    def _query(self, word, budget):
        verdict = self._reject_word(self.codec.decode_blocks(word), budget)
        return verdict if verdict is not None else Verdict.UNKNOWN

    def _reject_word(self, symbols: list, budget):
        """CERTIFIED_EMPTY if some test fails within budget, else None.

        `symbols` is the word decoded block by block (`decode_blocks`).
        """
        if None in symbols:
            undecodable = symbols.index(None) + 1
            return Verdict.CERTIFIED_EMPTY if budget.spend(undecodable) else None
        if not budget.spend(len(symbols)):
            return None
        # Rows of reach below the word's length read only its blocks.
        length = min(len(symbols), len(self.codec.ball))
        return self._scan_codings(
            symbols,
            budget,
            (order[: bisect_left(reaches, length)] for _, reaches, order in self._occurrence_tables()),
        )

    def _occurrence_tables(self) -> list:
        """Per coding, (rows, reaches, order): the rows in ball order, and
        the reaches of the rows that stay in the ball with their indices,
        both sorted by reach."""
        if self._occurrences is None:
            ball = self.codec.ball
            tables = []
            for coding in self.forbidden:
                rows = []
                for base in ball.elements:
                    row = tuple((ball.resolve(base + tuple(h)), sym) for h, sym in coding)
                    rows.append(None if any(n is None for n, _ in row) else row)
                # A row of an empty coding reads nothing and has reach -1.
                live = sorted(
                    (max((n for n, _ in row), default=-1), k)
                    for k, row in enumerate(rows)
                    if row is not None
                )
                tables.append((rows, [reach for reach, _ in live], [k for _, k in live]))
            self._occurrences = tables
        return self._occurrences

    def _through_tables(self) -> list:
        """Per coding: for each address, the rows that read it."""
        if self._through is None:
            self._through = []
            for rows, _, _ in self._occurrence_tables():
                through = [[] for _ in rows]
                for k, row in enumerate(rows):
                    for n, _ in row or ():
                        through[n].append(k)
                self._through.append(through)
        return self._through

    def _scan_codings(self, values: list, budget, candidates):
        """Scan the codings over `values`, the symbol at each address the
        candidate rows read (None for no value).

        `candidates` gives, per coding in order, the rows that can occur;
        the caller vouches that no other row does.
        """
        for (rows, _, _), maybe in zip(self._occurrence_tables(), candidates):
            found = None
            for k in sorted(maybe):
                for n, sym in rows[k]:
                    if values[n] != sym:
                        break
                else:
                    found = k + 1
                    break
            if not budget.spend(found or len(rows)):
                return None
            if found:
                return Verdict.CERTIFIED_EMPTY
        return None


class RhoActionOracle(ActionOracle):
    """Emptiness tester for [v] ∩ s·([w] ∩ Z) in the binary coding.

    Beyond the per-word tests of the set oracle, blocks paired by the
    action are cross-checked: whenever address n names s times the element
    at address m, block n of v must equal block m of w.  The w-blocks are
    then carried over to their paired v-addresses and the merged partial
    pattern is scanned against the forbidden codings.  The scan of v
    already found no row inside v's prefix, so the merged scan reads only
    the rows through a carried address; the address → rows index it uses
    is built on the first merged scan.  A query's work is thus
    proportional to its words plus those rows.

    The first query with a given s builds its pairing table, the address
    of s times each ball element (None outside the ball), and keeps it.
    The pair pass charges one step per w-block looked up and one per block
    comparison, up to the comparison that certifies; every pass charges
    what the step-by-step model charges.
    """

    def __init__(self, codec: SubshiftCodec, forbidden):
        self.codec = codec
        self.set_oracle = RhoSetOracle(codec, forbidden)
        self.generators = codec.group.gens.symbols
        self.identity = codec.group.gens.identity
        self._pairings: dict = {}

    def _pairing(self, s: str) -> list:
        if s not in self._pairings:
            ball = self.codec.ball
            self._pairings[s] = [ball.resolve((s,) + element) for element in ball.elements]
        return self._pairings[s]

    def _query(self, s, v, w, budget):
        codec = self.codec
        symbols_v = codec.decode_blocks(v)
        symbols_w = codec.decode_blocks(w)
        for symbols in (symbols_v, symbols_w):
            verdict = self.set_oracle._reject_word(symbols, budget)
            if verdict is not None:
                return verdict
        # Both words decode completely, and decoding is one-to-one, so
        # comparing symbols compares blocks.
        size = len(codec.ball)
        merged = symbols_v[:size] + [None] * (size - len(symbols_v))
        carried = []
        pairing = self._pairing(s)
        steps = 0
        for m in range(min(len(symbols_w), size)):
            steps += 1
            n = pairing[m]
            if n is None:
                continue
            if n < len(symbols_v):
                steps += 1
                if symbols_v[n] != symbols_w[m]:
                    return Verdict.CERTIFIED_EMPTY if budget.spend(steps) else Verdict.UNKNOWN
            else:
                merged[n] = symbols_w[m]
                carried.append(n)
        if not budget.spend(steps):
            return Verdict.UNKNOWN
        verdict = self.set_oracle._scan_codings(
            merged,
            budget,
            ({k for n in carried for k in through[n]} for through in self.set_oracle._through_tables()),
        )
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


class SubshiftSpec(Record):
    """A group together with an alphabet and forbidden pattern codings."""

    __slots__ = ("group", "alphabet", "forbidden")

    def __init__(self, group: GroupOracle, alphabet: Alphabet, forbidden: tuple):
        self.group = group
        self.alphabet = alphabet
        self.forbidden = forbidden


def subshift_from_descriptor(obj, path: str = "subshift") -> SubshiftSpec:
    """Parse {"group":…, "alphabet":[…], "forbidden":[[[word,symbol],…],…]}."""
    group = group_from_descriptor(fields(obj, path, "group")[0], f"{path}.group")
    symbols = read_list(obj.get("alphabet"), f"{path}.alphabet", "expected a non-empty list")
    for i, sym in enumerate(symbols):
        need(isinstance(sym, str), f"{path}.alphabet[{i}]", "expected a string")
    need(len(set(symbols)) == len(symbols), f"{path}.alphabet", "symbols must be distinct")
    alphabet = Alphabet(tuple(symbols))
    forbidden = []
    raw = read_list(obj.get("forbidden", []), f"{path}.forbidden", "expected a list", empty=True)
    for i, entry in enumerate(raw):
        where = f"{path}.forbidden[{i}]"
        read_list(entry, where, "expected a non-empty list of [word, symbol] pairs")
        pairs = []
        for j, pair in enumerate(entry):
            at = f"{where}[{j}]"
            need(isinstance(pair, list) and len(pair) == 2, at, "expected a [word, symbol] pair")
            need(all(isinstance(x, str) for x in pair), at, "word and symbol must be strings")
            text, sym = pair
            need(sym in alphabet, at, f"symbol {sym!r} is not in the alphabet")
            word = parse_word(text)
            try:
                group.gens.check_word(word)
            except UnknownSymbol as exc:
                raise SchemaError(at, f"unknown generator {str(exc)!r}") from None
            pairs.append((word, sym))
        forbidden.append(coding_from_pairs(pairs))
    return SubshiftSpec(group, alphabet, tuple(forbidden))
