"""The assembled three-factor shift: checkers, factor map, and witnesses.

A configuration here couples a base-group ball with a plane grid: every
base-group cell g carries a whole labelled grid slice whose rows spread
filler-coded orbit data, one layer per base generator.  Four checker
families police the coupling — grid validity per slice (with budgeted
row decoding), slice-constancy of the grid labels, the layer-shift
consistency between neighbouring slices, and base-point independence of
the decoded prefixes.  A factor map reads the coded point back out of
the identity slice, and a witness builder produces patches from explicit
orbit data that pass every check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .effective import ActionOracle, SetOracle, SubshiftCodec
from .errors import (
    BallTooSmall,
    CycleDetected,
    OutOfBall,
    SchemaError,
    UndecodableWindow,
    UnknownSymbol,
)
from .grid import (
    ProductGridPatch,
    SeedFailure,
    _chains,
    check_grid_local,
    grid_patch_from_descriptor,
    grid_patch_to_descriptor,
    grid_y_check,
    read_grid,
    seed_grid_from_config,
)
from .groups import CayleyBall, cayley_ball, group_from_descriptor, parse_word
from .shiftcore import NNSFT2D, Alphabet, Pattern, Patch2D, Violations
from .toeplitz import FILLER, LayeredWord, WindowVerdict, action_layers, gamma_prefix
from .toeplitz import psi_tilde, top1d_forbidden


class _UndeterminedType:
    """Marker for projection cells without enough margin to decode."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Undetermined"


UNDETERMINED = _UndeterminedType()


def top_layer_sft(layers) -> tuple:
    """Nearest-neighbour shift over uniform layered records.

    A record carries one character per layer; a cell is either filler on
    every layer or a bit on every layer, which gives 1 + 2^k symbols.
    Rows are horizontally free at this scale (the residual row structure
    is enforced by decoding, not dominoes); columns must be constant.
    """
    layers = tuple(layers)
    if not layers:
        raise ValueError("need at least one layer")
    records = [FILLER * len(layers)]
    records.extend("".join(bits) for bits in itertools.product("01", repeat=len(layers)))
    alphabet = Alphabet(tuple(records))
    horizontal = frozenset(itertools.product(alphabet.symbols, repeat=2))
    vertical = frozenset((r, r) for r in alphabet.symbols)
    sft = NNSFT2D(alphabet, horizontal, vertical)
    block_map = {r: r for r in alphabet.symbols}
    return sft, block_map


@dataclass(frozen=True, eq=False)
class FactorContext:
    """Everything the checkers and the factor map need to share.

    The block map sends every vertical-shift symbol to its layered
    record; kappa is the decode depth that pins the first coded block.
    """

    sft: NNSFT2D
    block_map: dict
    X: SetOracle
    T: ActionOracle
    kappa: int

    def __post_init__(self):
        width = len(action_layers(self.T))
        for sym in self.sft.alphabet.symbols:
            record = self.block_map.get(sym)
            if record is None:
                raise SchemaError(f"block_map[{sym!r}]", "must cover the alphabet")
            if len(record) != width or any(ch not in "01" + FILLER for ch in record):
                raise SchemaError(
                    f"block_map[{sym!r}]", "expected one 0/1/filler character per layer"
                )
        if self.kappa < 0:
            raise SchemaError("kappa", "expected a non-negative integer")

    @property
    def layers(self) -> tuple:
        return action_layers(self.T)


def standard_context(X: SetOracle, T: ActionOracle, kappa: int) -> FactorContext:
    """Context with the uniform record shift and the identity block map."""
    sft, block_map = top_layer_sft(action_layers(T))
    return FactorContext(sft, block_map, X, T, kappa)


class FinalPatch:
    """A grid slice and a record for every cell of a base-group ball."""

    def __init__(self, g_ball: CayleyBall, omega: dict, y_sym: dict):
        sizes = None
        for g in range(len(g_ball)):
            slc = omega.get(g)
            if slc is None:
                raise SchemaError(f"omega[{g}]", "every base cell needs a grid slice")
            shape = (
                len(slc.patch1.ball),
                len(slc.patch2.ball),
                slc.patch1.ball.radius,
                slc.patch2.ball.radius,
            )
            if sizes is None:
                sizes = shape
            elif shape != sizes:
                raise SchemaError(f"omega[{g}]", "grid slices must share the ball shape")
        for g in range(len(g_ball)):
            slc = omega[g]
            for h1 in range(len(slc.patch1.ball)):
                for h2 in range(len(slc.patch2.ball)):
                    if (g, h1, h2) not in y_sym:
                        raise SchemaError(
                            f"y[{g},{h1},{h2}]", "records must cover the product ball"
                        )
        self.g_ball = g_ball
        self.omega = dict(omega)
        self.y_sym = dict(y_sym)

    def omega_at(self, g: int, h1: int, h2: int) -> tuple:
        slc = self.omega[g]
        return (slc.patch1.labels[h1], slc.patch2.labels[h2])

    def y_slice(self, g: int) -> dict:
        slc = self.omega[g]
        return {
            (h1, h2): self.y_sym[(g, h1, h2)]
            for h1 in range(len(slc.patch1.ball))
            for h2 in range(len(slc.patch2.ball))
        }


def _record(ctx: FactorContext, sym) -> str:
    record = ctx.block_map.get(sym)
    if record is None:
        raise UnknownSymbol(f"symbol {sym!r} has no layered record")
    return record


def _layered(ctx, symbols) -> LayeredWord:
    """Layered word of a run of vertical-shift symbols, one record each."""
    records = [_record(ctx, sym) for sym in symbols]
    columns = map("".join, zip(*records))
    return LayeredWord(len(records), dict(zip(ctx.layers, columns)), 0)


def check_F1(patch: FinalPatch, ctx: FactorContext, budget: int = 10_000) -> Violations:
    """Per-slice grid validity: local labels, dominoes, and row decoding.

    Every maximal rightward run of each slice is scanned with decode
    windows of the largest power-of-three length that fits, at every
    offset; a window certified forbidden by the decoders or the oracles
    is reported as (g, "row", (chain, column, offset)).  The counts of the
    returned list cover the label and domino checks of every slice.
    """
    violations = Violations()
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        for k, gp in ((1, slc.patch1), (2, slc.patch2)):
            report = check_grid_local(gp)
            violations.extend((g, "grid", k, v) for v in report.violations)
            violations.tally(report)
        y_slice = patch.y_slice(g)
        report = grid_y_check(slc, y_slice, ctx.sft)
        violations.extend((g, "cell", v) for v in report.violations)
        violations.tally(report)
        try:
            chains, _ = _chains(slc.patch1)
        except CycleDetected:
            violations.append((g, "cycle", 1))
            continue
        for ci, chain in enumerate(chains):
            if len(chain) < 3:
                continue
            depth = 0
            while 3 ** (depth + 2) <= len(chain):
                depth += 1
            length = 3 ** (depth + 1)
            for h2 in range(len(slc.patch2.ball)):
                for offset in range(len(chain) - length + 1):
                    cells = chain[offset : offset + length]
                    window = _layered(ctx, (patch.y_sym[(g, h1, h2)] for h1 in cells))
                    verdict = top1d_forbidden(window, ctx.X, ctx.T, budget)
                    if verdict is WindowVerdict.FORBIDDEN:
                        violations.append((g, "row", (ci, h2, offset)))
    return violations


def check_F2(patch: FinalPatch) -> list:
    """Grid labels may not change between neighbouring base cells."""
    gens = patch.g_ball.oracle.gens
    violations = []
    for g in range(len(patch.g_ball)):
        for s in gens.symbols:
            if s == gens.identity:
                continue
            t = patch.g_ball.edges.get((g, s))
            if t is None:
                continue
            a, b = patch.omega[g], patch.omega[t]
            if a is b:
                continue
            for h1 in range(len(a.patch1.ball)):
                for h2 in range(len(a.patch2.ball)):
                    if patch.omega_at(g, h1, h2) != patch.omega_at(t, h1, h2):
                        violations.append(((g, h1, h2), s))
    return violations


def check_F3(patch: FinalPatch, ctx: FactorContext) -> list:
    """Layer s of a record must repeat layer identity one base step over."""
    layers = ctx.layers
    position = {s: i for i, s in enumerate(layers)}
    identity_pos = position[ctx.T.identity]
    gens = patch.g_ball.oracle.gens
    violations = []
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        for s in gens.symbols:
            if s == gens.identity:
                continue
            if s not in position:
                raise UnknownSymbol(f"base generator {s!r} has no record layer")
            t = patch.g_ball.edges.get((g, gens.inverse[s]))
            if t is None:
                continue
            for h1 in range(len(slc.patch1.ball)):
                for h2 in range(len(slc.patch2.ball)):
                    own = _record(ctx, patch.y_sym[(g, h1, h2)])
                    over = _record(ctx, patch.y_sym[(t, h1, h2)])
                    if own[position[s]] != over[identity_pos]:
                        violations.append(((g, h1, h2), s))
    return violations


def check_F4(patch: FinalPatch, ctx: FactorContext) -> list:
    """Decoded prefixes may not depend on the base cell of the read.

    For each slice and each depth m below kappa, the window decoded from
    the identity base is compared — in symbol m — with the windows
    decoded from every generator-neighbour base.
    """
    if ctx.kappa <= 0:
        return []
    need = 3**ctx.kappa + 1
    violations = []
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        if slc.patch1.ball.radius < need:
            raise BallTooSmall(
                f"row ball radius {slc.patch1.ball.radius} < {need} needed for kappa={ctx.kappa}"
            )
        y_slice = patch.y_slice(g)
        ball1, ball2 = slc.patch1.ball, slc.patch2.ball
        gens1, gens2 = ball1.oracle.gens, ball2.oracle.gens
        bases = {}
        for s1 in gens1.symbols:
            for s2 in gens2.symbols:
                idx1 = ball1.index[()] if s1 == gens1.identity else ball1.resolve((s1,))
                idx2 = ball2.index[()] if s2 == gens2.identity else ball2.resolve((s2,))
                if idx1 is None or idx2 is None:
                    continue
                bases[(s1, s2)] = (idx1, idx2)
        home = (gens1.identity, gens2.identity)
        for m in range(ctx.kappa):
            length = 3 ** (m + 1)

            def decode(base):
                row = read_grid(slc, y_slice, base, (0, 0, length, 1))
                if row is None:
                    return None, "unreadable"
                window = _layered(ctx, (row.get(x, 0) for x in range(length)))
                try:
                    return gamma_prefix(window, ctx.T.identity, depth=m), None
                except UndecodableWindow:
                    return None, "undecodable"

            reference, problem = decode(bases[home])
            if problem is not None:
                violations.append((g, m, home, problem))
                continue
            for pair, base in bases.items():
                if pair == home:
                    continue
                value, problem = decode(base)
                if problem is not None:
                    violations.append((g, m, pair, problem))
                elif value[m] != reference[m]:
                    violations.append((g, m, pair, "mismatch"))
    return violations


def factor_phi(patch: FinalPatch, ctx: FactorContext, n: int, at=()) -> str:
    """Decode the coded point's first n+1 bits out of one slice.

    Reads a row window of length 3^(n+1) rightwards from the identity
    cell of the slice named by `at` (a base-group word, identity by
    default) and decodes its identity layer.  Raises UndecodableWindow
    when the walk leaves the grid or the window does not decode.
    """
    g = patch.g_ball.resolve(tuple(at))
    if g is None:
        raise OutOfBall(f"slice {at!r} is outside the base ball")
    slc = patch.omega[g]
    length = 3 ** (n + 1)
    if slc.patch1.ball.radius < length - 1:
        raise BallTooSmall(
            f"row ball radius {slc.patch1.ball.radius} cannot hold a {length}-window"
        )
    base = (slc.patch1.ball.index[()], slc.patch2.ball.index[()])
    row = read_grid(slc, patch.y_slice(g), base, (0, 0, length, 1))
    if row is None:
        raise UndecodableWindow("the rightward walk leaves the grid before the window ends")
    window = _layered(ctx, (row.get(x, 0) for x in range(length)))
    return gamma_prefix(window, ctx.T.identity, depth=n)


def witness_construct(
    ctx: FactorContext, g_ball: CayleyBall, prefixes: dict, omega_bar: ProductGridPatch
):
    """Assemble a patch from explicit orbit data, one prefix per base cell.

    Layer s of slice g spreads the prefix supplied for g·s⁻¹, so the
    caller must provide prefixes (all of one length) for every element of
    the radius+1 ball, keyed by canonical word.  All slices share
    omega_bar; the records of each slice are seeded onto its grid.
    Returns the patch, or the SeedFailure the grid seeding reported.
    """
    shell = cayley_ball(g_ball.oracle, g_ball.radius + 1)
    gens = g_ball.oracle.gens
    layers = ctx.layers
    reverse = {}
    for sym, record in ctx.block_map.items():
        reverse.setdefault(record, sym)
    span1 = len(omega_bar.patch1.ball)
    span2 = len(omega_bar.patch2.ball)
    positions = list(range(-span1, span1 + 1))
    omega = {}
    y_sym = {}
    for g in range(len(g_ball)):
        words = {}
        for s in layers:
            if s == gens.identity:
                target_word = g_ball.elements[g]
            elif s in gens.inverse:
                target_word = g_ball.elements[g] + (gens.inverse[s],)
            else:
                raise UnknownSymbol(f"layer {s!r} is not a base generator")
            idx = shell.resolve(target_word)
            if idx is None:
                raise OutOfBall(f"cannot reach {target_word!r} in the extended ball")
            key = shell.elements[idx]
            prefix = prefixes.get(key)
            if prefix is None:
                name = " ".join(key) or gens.identity
                raise SchemaError(f"prefixes[{name!r}]", "missing orbit data")
            words[s] = prefix
        layered = psi_tilde(words, positions)
        cells = {}
        for j, x in enumerate(positions):
            record = "".join(layered.layers[s][j] for s in layers)
            sym = reverse.get(record)
            if sym is None:
                raise SchemaError(
                    "block_map", f"no alphabet symbol encodes the record {record!r}"
                )
            for yy in range(-span2, span2 + 1):
                cells[(x, yy)] = sym
        config = Patch2D(-span1, -span2, 2 * span1 + 1, 2 * span2 + 1, cells)
        seeded = seed_grid_from_config(omega_bar, config)
        if isinstance(seeded, SeedFailure):
            return seeded
        omega[g] = omega_bar
        for (h1, h2), sym in seeded.items():
            y_sym[(g, h1, h2)] = sym
    return FinalPatch(g_ball, omega, y_sym)


def hat_phi_project(patch: FinalPatch, ctx: FactorContext, codec: SubshiftCodec) -> dict:
    """Per-cell projection to the coded alphabet via the first kappa bits.

    Every cell re-bases the read: the window starts at that cell of its
    own slice.  Cells whose window leaves the grid, fails to decode, or
    decodes to bits outside the code table are marked Undetermined.
    """
    reverse = {bits: sym for sym, bits in codec.upsilon.items()}
    length = 3**ctx.kappa
    projection = {}
    if ctx.kappa <= 0:
        for g in range(len(patch.g_ball)):
            slc = patch.omega[g]
            for h1 in range(len(slc.patch1.ball)):
                for h2 in range(len(slc.patch2.ball)):
                    projection[(g, h1, h2)] = UNDETERMINED
        return projection
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        y_slice = patch.y_slice(g)
        for h1 in range(len(slc.patch1.ball)):
            for h2 in range(len(slc.patch2.ball)):
                row = read_grid(slc, y_slice, (h1, h2), (0, 0, length, 1))
                if row is None:
                    projection[(g, h1, h2)] = UNDETERMINED
                    continue
                window = _layered(ctx, (row.get(x, 0) for x in range(length)))
                try:
                    bits = gamma_prefix(window, ctx.T.identity, depth=ctx.kappa - 1)
                except UndecodableWindow:
                    projection[(g, h1, h2)] = UNDETERMINED
                    continue
                projection[(g, h1, h2)] = reverse.get(bits, UNDETERMINED)
    return projection


def projective_check(patch: FinalPatch, projection: dict, original: Pattern) -> bool:
    """Does the projection restrict to the given pattern along the base?

    Compares the projection at each base cell's identity grid position
    with the pattern value at that cell; any mismatch, undetermined cell,
    or missing pattern value answers False.
    """
    for g in range(len(patch.g_ball)):
        word = patch.g_ball.elements[g]
        slc = patch.omega[g]
        key = (g, slc.patch1.ball.index[()], slc.patch2.ball.index[()])
        if word not in original.values:
            return False
        if projection.get(key) != original.values[word]:
            return False
    return True


def final_patch_to_descriptor(patch: FinalPatch) -> dict:
    def gtext(g):
        return " ".join(patch.g_ball.elements[g])

    omega = {}
    records = {}
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        omega[gtext(g)] = [
            grid_patch_to_descriptor(slc.patch1),
            grid_patch_to_descriptor(slc.patch2),
        ]
        ball1, ball2 = slc.patch1.ball, slc.patch2.ball
        records[gtext(g)] = {
            " ".join(ball1.elements[h1]): {
                " ".join(ball2.elements[h2]): patch.y_sym[(g, h1, h2)]
                for h2 in range(len(ball2))
            }
            for h1 in range(len(ball1))
        }
    return {
        "group": patch.g_ball.oracle.descriptor,
        "radius": patch.g_ball.radius,
        "omega": omega,
        "y": records,
    }


def final_patch_from_descriptor(obj, path: str = "final") -> FinalPatch:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in ("group", "radius", "omega", "y"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing")
    oracle = group_from_descriptor(obj["group"], f"{path}.group")
    radius = obj["radius"]
    if not isinstance(radius, int) or radius < 0:
        raise SchemaError(f"{path}.radius", "expected a non-negative integer")
    g_ball = cayley_ball(oracle, radius)
    raw_omega = obj["omega"]
    raw_y = obj["y"]
    if not isinstance(raw_omega, dict) or not isinstance(raw_y, dict):
        raise SchemaError(f"{path}.omega", "expected objects for omega and y")
    omega = {}
    for text, pair in raw_omega.items():
        g = g_ball.resolve(parse_word(text))
        if g is None:
            raise SchemaError(f"{path}.omega[{text!r}]", "names a cell outside the ball")
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}.omega[{text!r}]", "expected [rows, columns]")
        omega[g] = ProductGridPatch(
            grid_patch_from_descriptor(pair[0], f"{path}.omega[{text!r}][0]"),
            grid_patch_from_descriptor(pair[1], f"{path}.omega[{text!r}][1]"),
        )
    y_sym = {}
    for text, rows in raw_y.items():
        g = g_ball.resolve(parse_word(text))
        if g is None or g not in omega:
            raise SchemaError(f"{path}.y[{text!r}]", "names a cell without a slice")
        slc = omega[g]
        if not isinstance(rows, dict):
            raise SchemaError(f"{path}.y[{text!r}]", "expected an object")
        for h1text, row in rows.items():
            h1 = slc.patch1.ball.resolve(parse_word(h1text))
            if h1 is None or not isinstance(row, dict):
                raise SchemaError(f"{path}.y[{text!r}][{h1text!r}]", "bad row")
            for h2text, sym in row.items():
                h2 = slc.patch2.ball.resolve(parse_word(h2text))
                if h2 is None:
                    raise SchemaError(
                        f"{path}.y[{text!r}][{h1text!r}][{h2text!r}]",
                        "names a cell outside the column ball",
                    )
                y_sym[(g, h1, h2)] = sym
    return FinalPatch(g_ball, omega, y_sym)
