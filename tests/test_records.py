"""The library's records: their validation, equality, hashing and repr."""

from __future__ import annotations

import pytest

from groupshift.aperiodic import (
    ColoringFailure,
    PeriodCandidate,
    PeriodStatus,
    ProbeEntry,
    ProbeReport,
    ProductColoring,
)
from groupshift.assembly import FactorContext, standard_context, top_layer_sft
from groupshift.effective import (
    FullShiftSetOracle,
    SubshiftCodec,
    SubshiftSpec,
    TrivialActionOracle,
)
from groupshift.errors import BadLength, SchemaError, UnknownSymbol
from groupshift.grid import (
    CoverFailure,
    GridLabel,
    OrbitTrace,
    PathCover,
    ProductGridPatch,
    SeedFailure,
)
from groupshift.groups import GeneratorSet, MealyAutomaton, grigorchuk_automaton
from groupshift.shiftcore import NNSFT2D, Alphabet, Patch2D, Pattern
from groupshift.toeplitz import FILLER, LayeredWord

SWAP = {"0": "1", "1": "0"}
STAY = {"0": "a", "1": "a"}


def context(**changes):
    """A FactorContext over the layers 1, x, x- with some fields replaced."""
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    sft, block_map = top_layer_sft(("1", "x", "x-"))
    fields = dict(sft=sft, block_map=block_map, X=X, T=T, kappa=0)
    fields.update(changes)
    return FactorContext(**fields)


def short_block_map():
    _, block_map = top_layer_sft(("1", "x", "x-"))
    block_map["000"] = "00"
    return block_map


def foreign_block_map():
    _, block_map = top_layer_sft(("1", "x", "x-"))
    block_map["000"] = "0a0"
    return block_map


def missing_block_map():
    _, block_map = top_layer_sft(("1", "x", "x-"))
    del block_map["000"]
    return block_map


# One case per check in a record's constructor, in the order the checks run.
VALIDATION = [
    ("generators-identity", lambda: GeneratorSet(("a", "A"), {"a": "A", "A": "a"}),
     ValueError, "identity symbol missing from generator set"),
    ("generators-duplicate", lambda: GeneratorSet(("1", "a", "a"), {"1": "1", "a": "a"}),
     ValueError, "duplicate generator symbols"),
    ("generators-no-inverse", lambda: GeneratorSet(("1", "a"), {"1": "1"}),
     ValueError, "no inverse declared for 'a'"),
    ("generators-inverse-outside", lambda: GeneratorSet(("1", "a"), {"1": "1", "a": "b"}),
     ValueError, "no inverse declared for 'a'"),
    ("generators-involution",
     lambda: GeneratorSet(("1", "a", "b"), {"1": "1", "a": "b", "b": "b"}),
     ValueError, "inverse map is not an involution at 'a'"),
    ("generators-identity-inverse",
     lambda: GeneratorSet(("1", "a"), {"1": "a", "a": "1"}),
     ValueError, "identity symbol must be self-inverse"),
    ("mealy-transition", lambda: MealyAutomaton(("a",), {"a": {"0": "a"}}, {"a": SWAP}),
     ValueError, "transition row missing for state 'a'"),
    ("mealy-output", lambda: MealyAutomaton(("a",), {"a": STAY}, {}),
     ValueError, "output row missing for state 'a'"),
    ("mealy-permute", lambda: MealyAutomaton(("a",), {"a": STAY}, {"a": {"0": "0", "1": "0"}}),
     ValueError, "state 'a' does not permute the alphabet"),
    ("mealy-state-set", lambda: MealyAutomaton(("a",), {"a": {"0": "a", "1": "b"}}, {"a": SWAP}),
     ValueError, "transition of 'a' leaves the state set"),
    ("alphabet-empty", lambda: Alphabet(()), ValueError, "alphabet must be nonempty"),
    ("alphabet-distinct", lambda: Alphabet(("a", "a")),
     ValueError, "alphabet symbols must be distinct"),
    ("pattern-total", lambda: Pattern(((), ("x",)), {(): "a"}),
     ValueError, "pattern values must be total on the support"),
    ("sft-alphabet", lambda: NNSFT2D(Alphabet(("a",)), frozenset({("a", "b")}), frozenset()),
     ValueError, "allowed pair uses a symbol outside the alphabet"),
    ("patch-dimensions", lambda: Patch2D(0, 0, 0, 1, {}),
     ValueError, "patch dimensions must be positive"),
    ("patch-outside", lambda: Patch2D(0, 0, 2, 1, {(2, 0): "a"}),
     ValueError, "cell (2,0) lies outside the patch rectangle"),
    ("layered-length", lambda: LayeredWord(0, {"x": ""}),
     BadLength, "layered words must have positive length"),
    ("layered-empty", lambda: LayeredWord(1, {}),
     ValueError, "layered words need at least one layer"),
    ("layered-symbol", lambda: LayeredWord(2, {"x": "0a"}),
     UnknownSymbol, f"expected 0, 1 or {FILLER!r}, found 'a'"),
    ("layered-mismatch", lambda: LayeredWord(2, {"x": "01", "y": "0"}),
     BadLength, "layer 'y' has length 1, expected 2"),
    ("context-cover", lambda: context(block_map=missing_block_map()),
     SchemaError, "block_map['000']: must cover the alphabet"),
    ("context-width", lambda: context(block_map=short_block_map()),
     SchemaError, "block_map['000']: expected one 0/1/filler character per layer"),
    ("context-characters", lambda: context(block_map=foreign_block_map()),
     SchemaError, "block_map['000']: expected one 0/1/filler character per layer"),
    ("context-kappa", lambda: context(kappa=-1),
     SchemaError, "kappa: expected a non-negative integer"),
    ("candidate-empty", lambda: PeriodCandidate(()),
     ValueError, "a period candidate must move at least one factor"),
    ("candidate-still", lambda: PeriodCandidate(((), ())),
     ValueError, "a period candidate must move at least one factor"),
]


@pytest.mark.parametrize(
    "build, exc_type, text", [case[1:] for case in VALIDATION], ids=[case[0] for case in VALIDATION]
)
def test_record_validation_keeps_type_and_text(build, exc_type, text):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == text


def generators():
    return GeneratorSet(("1", "a", "A"), {"1": "1", "a": "A", "A": "a"})


def sft():
    return NNSFT2D(Alphabet(("a", "b")), frozenset({("a", "b")}), frozenset({("b", "b")}))


def candidate():
    return PeriodCandidate((("a",), ()))


# Builders for the records compared by their fields, each with a builder
# that differs from it in one field.
VALUES = {
    "GeneratorSet": (generators, lambda: GeneratorSet(("1", "a"), {"1": "1", "a": "a"})),
    "MealyAutomaton": (grigorchuk_automaton,
                       lambda: MealyAutomaton(("a",), {"a": STAY}, {"a": SWAP})),
    "GridLabel": (lambda: GridLabel("x-", "x"), lambda: GridLabel("x", "x-")),
    "OrbitTrace": (lambda: OrbitTrace("Cycle", (0, 1), 2), lambda: OrbitTrace("Cycle", (0, 1))),
    "Alphabet": (lambda: Alphabet(("a", "b")), lambda: Alphabet(("b", "a"))),
    "NNSFT2D": (sft, lambda: NNSFT2D(Alphabet(("a", "b")), frozenset(), frozenset())),
    "Patch2D": (lambda: Patch2D(0, 0, 2, 1, {(0, 0): "a"}),
                lambda: Patch2D(0, 0, 2, 1, {(1, 0): "a"})),
    "PeriodCandidate": (candidate, lambda: PeriodCandidate(((), ("a",)))),
    "ProbeEntry": (lambda: ProbeEntry(candidate(), PeriodStatus.BROKEN, 3),
                   lambda: ProbeEntry(candidate(), PeriodStatus.BROKEN, None)),
}

HASHABLE = ("GridLabel", "OrbitTrace", "Alphabet", "NNSFT2D", "PeriodCandidate", "ProbeEntry")


@pytest.mark.parametrize("name", list(VALUES))
def test_value_records_compare_by_fields(name):
    build, other = VALUES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert a != other() and not a == other()
    assert a != (a,) and a is not None


@pytest.mark.parametrize("name", HASHABLE)
def test_frozen_value_records_hash_by_fields(name):
    build, _ = VALUES[name]
    a, b = build(), build()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", ["GeneratorSet", "MealyAutomaton"])
def test_records_holding_dicts_do_not_hash(name):
    build, _ = VALUES[name]
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(build())


def test_patch2d_is_unhashable():
    assert Patch2D.__hash__ is None
    with pytest.raises(TypeError, match="unhashable type: 'Patch2D'"):
        hash(Patch2D(0, 0, 1, 1, {}))


# Builders for the records compared by identity.
IDENTITY = {
    "ProductGridPatch": lambda: ProductGridPatch("p1", "p2"),
    "PathCover": lambda: PathCover("ball", {0: 1}, {1: 0}),
    "CoverFailure": lambda: CoverFailure("no pair"),
    "SeedFailure": lambda: SeedFailure("no orbit"),
    "SubshiftCodec": lambda: SubshiftCodec("G", "ball", Alphabet(("a",)), 1, {"a": "0"}, {"0": "a"}),
    "SubshiftSpec": lambda: SubshiftSpec("G", Alphabet(("a",)), ()),
    "LayeredWord": lambda: LayeredWord(1, {"x": "0"}),
    "Pattern": lambda: Pattern(((),), {(): "a"}),
    "FactorContext": context,
    "ProductColoring": lambda: ProductColoring(("c1",)),
    "ColoringFailure": lambda: ColoringFailure("square"),
    "ProbeReport": lambda: ProbeReport((), (0,)),
}


@pytest.mark.parametrize("name", list(IDENTITY))
def test_identity_records_compare_by_identity(name):
    a, b = IDENTITY[name](), IDENTITY[name]()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == object.__hash__(a)


def test_every_record_is_pinned():
    assert len(VALUES) + len(IDENTITY) == 21
    assert not set(VALUES) & set(IDENTITY)


X = FullShiftSetOracle()
T = TrivialActionOracle(X, ("x", "x-"))
CONTEXT = standard_context(X, T, 2)

REPRS = [
    (generators(), "GeneratorSet(symbols=('1', 'a', 'A'), inverse={'1': '1', 'a': 'A', 'A': 'a'}, identity='1')"),
    (MealyAutomaton(("a",), {"a": STAY}, {"a": SWAP}),
     "MealyAutomaton(states=('a',), transition={'a': {'0': 'a', '1': 'a'}}, "
     "output={'a': {'0': '1', '1': '0'}})"),
    (GridLabel("x-", "x"), "GridLabel(left='x-', right='x')"),
    (ProductGridPatch("p1", "p2"), "ProductGridPatch(patch1='p1', patch2='p2')"),
    (OrbitTrace("Path", (0, 1)), "OrbitTrace(kind='Path', cells=(0, 1), cycle_length=0)"),
    (PathCover("ball", {0: 1}, {1: 0}), "PathCover(ball='ball', succ={0: 1}, pred={1: 0})"),
    (CoverFailure("no pair"), "CoverFailure(reason='no pair')"),
    (SeedFailure("no orbit"), "SeedFailure(reason='no orbit')"),
    (SubshiftCodec("G", "ball", Alphabet(("a",)), 1, {"a": "0"}, {"0": "a"}),
     "SubshiftCodec(group='G', ball='ball', alphabet=Alphabet(symbols=('a',)), kappa=1, "
     "upsilon={'a': '0'}, decoding={'0': 'a'})"),
    (SubshiftSpec("G", Alphabet(("a",)), ()),
     "SubshiftSpec(group='G', alphabet=Alphabet(symbols=('a',)), forbidden=())"),
    (LayeredWord(2, {"x": "0" + FILLER}), f"LayeredWord(length=2, layers={{'x': '0{FILLER}'}})"),
    (Alphabet(("a", "b")), "Alphabet(symbols=('a', 'b'))"),
    (Pattern(((),), {(): "a"}), "Pattern(support=((),), values={(): 'a'})"),
    (NNSFT2D(Alphabet(("a",)), frozenset({("a", "a")}), frozenset()),
     "NNSFT2D(alphabet=Alphabet(symbols=('a',)), allowed_h=frozenset({('a', 'a')}), "
     "allowed_v=frozenset())"),
    (Patch2D(0, 1, 1, 1, {(0, 1): "a"}),
     "Patch2D(x0=0, y0=1, width=1, height=1, cells={(0, 1): 'a'})"),
    (CONTEXT,
     f"FactorContext(sft={CONTEXT.sft!r}, block_map={CONTEXT.block_map!r}, X={X!r}, T={T!r}, "
     "kappa=2)"),
    (candidate(), "PeriodCandidate(components=(('a',), ()))"),
    (ProductColoring(("c1",)), "ProductColoring(factors=('c1',))"),
    (ColoringFailure("square"), "ColoringFailure(reason='square')"),
    (ProbeEntry(candidate(), PeriodStatus.RESPECTED, None),
     "ProbeEntry(candidate=PeriodCandidate(components=(('a',), ())), "
     "status=<PeriodStatus.RESPECTED: 'Respected'>, broken_by=None)"),
    (ProbeReport((), (0, 1)), "ProbeReport(entries=(), factor_violations=(0, 1))"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_record_repr_lists_fields(record, text):
    assert repr(record) == text
