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
from typing import Optional

from .effective import ActionOracle, SetOracle, SubshiftCodec
from .errors import (
    BallTooSmall,
    CycleDetected,
    OutOfBall,
    Record,
    SchemaError,
    UndecodableWindow,
    UnknownSymbol,
    need,
)
from .grid import (
    ProductGridPatch,
    _chains,
    _coordinates,
    _row_reader,
    check_grid_local,
    grid_patch_from_descriptor,
    grid_patch_to_descriptor,
    grid_y_check,
)
from .groups import (
    CayleyBall,
    ball_from_descriptor,
    ball_to_descriptor,
    cayley_ball,
    cells_from_words,
    cells_to_nested_words,
    cells_to_words,
)
from .shiftcore import NNSFT2D, Alphabet, Pattern, Violations
from .toeplitz import FILLER, LayeredWord, WindowVerdict, action_layers, decode_procedure
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


class FactorContext(Record):
    """Everything the checkers and the factor map need to share.

    The block map sends every vertical-shift symbol to its layered
    record; kappa is the decode depth that pins the first coded block.
    """

    __slots__ = ("sft", "block_map", "X", "T", "kappa")

    def __init__(self, sft: NNSFT2D, block_map: dict, X: SetOracle, T: ActionOracle, kappa: int):
        self.sft = sft
        self.block_map = block_map
        self.X = X
        self.T = T
        self.kappa = kappa
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
    """A grid slice and a record for every cell of a base-group ball.

    Every slice has one ball shape, n1 × n2 cell pairs, and slices[g] is
    the tuple of slice g's records in cell-index order: the record of
    (h1, h2) at h1 * n2 + h2.  `y_sym` gives the records keyed by
    (g, h1, h2), as a dict built afresh on each read.
    """

    def __init__(self, g_ball: CayleyBall, omega: dict, y_sym: dict):
        n1, n2 = _slice_shape(g_ball, omega)
        cells = [(h1, h2) for h1 in range(n1) for h2 in range(n2)]
        slices = [[y_sym.get((g, *c)) for c in cells] for g in range(len(g_ball))]
        self._store(g_ball, omega, slices)
        # Every cell of the product ball has a record, so more keys name cells outside it.
        if len(y_sym) > len(g_ball) * len(cells):
            inside = set(itertools.product(range(len(g_ball)), range(n1), range(n2)))
            key = next(k for k in y_sym if k not in inside)
            raise SchemaError(f"y[{','.join(map(str, key))}]", "lies outside the product ball")

    @classmethod
    def _of_slices(cls, g_ball: CayleyBall, omega: dict, slices) -> "FinalPatch":
        """A patch of slice records in cell-index order, None where missing."""
        patch = cls.__new__(cls)
        patch._store(g_ball, omega, slices)
        return patch

    def _store(self, g_ball, omega, slices):
        self.n1, self.n2 = _slice_shape(g_ball, omega)
        for g, records in enumerate(slices):
            if None in records:
                h1, h2 = divmod(records.index(None), self.n2)
                raise SchemaError(f"y[{g},{h1},{h2}]", "records must cover the product ball")
        self.g_ball = g_ball
        self.omega = dict(omega)
        self.slices = tuple(map(tuple, slices))

    @property
    def y_sym(self) -> dict:
        n2 = self.n2
        return {
            (g, *divmod(i, n2)): sym
            for g, records in enumerate(self.slices)
            for i, sym in enumerate(records)
        }

    def rows(self, g: int) -> list:
        """Slice g's records row by row: rows[h1][h2]."""
        records, n2 = self.slices[g], self.n2
        return [records[i : i + n2] for i in range(0, len(records), n2)]

    def cell_balls(self, key) -> tuple:
        """The base ball and the two grid balls of a (g, h1, h2) cell."""
        slc = self.omega[key[0]]
        return (self.g_ball, slc.patch1.ball, slc.patch2.ball)


def _slice_shape(g_ball: CayleyBall, omega: dict) -> tuple:
    """(n1, n2) of the grid slices, which must cover the base ball and share
    one ball shape."""
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
    return sizes[:2]


def _record(ctx: FactorContext, sym) -> str:
    record = ctx.block_map.get(sym)
    if record is None:
        raise UnknownSymbol(f"symbol {sym!r} has no layered record")
    return record


def _identity_prefix(ctx, symbols):
    """The prefix decoded from the identity layer, the first of every
    record, of a power-of-three run of symbols; None when it does not
    decode."""
    return decode_procedure("".join(_record(ctx, sym)[0] for sym in symbols))


def check_F1(patch: FinalPatch, ctx: FactorContext, budget: int = 10_000) -> Violations:
    """Per-slice grid validity: local labels, dominoes, and row decoding.

    Every maximal rightward run of each slice is scanned with decode
    windows of the largest power-of-three length that fits, at every
    offset; a window certified forbidden by the decoders or the oracles
    is reported as (g, "row", (chain, column, offset)).  Within one call
    the label checks and chains of a grid shared by several slices are
    computed once, and each distinct row is read once: its records are
    looked up and each layer of the whole row is joined into one string,
    so a window's layers are slices of those strings.  Each distinct
    window is tested once, each distinct layer string is decoded once,
    and the oracles are asked once per distinct tuple of decoded
    prefixes.  The counts of the returned list cover the label and domino
    checks of every slice.
    """
    violations = Violations()
    layers = ctx.layers
    local = {}
    chained = {}
    forbidden = {}
    decided = {}
    bad_offsets = {}

    def row_bad_offsets(row, length) -> list:
        strings = [*map("".join, zip(*(_record(ctx, sym) for sym in row)))]
        bad = []
        for offset in range(len(row) - length + 1):
            symbols = row[offset : offset + length]
            if symbols not in forbidden:
                end = offset + length
                window = LayeredWord(length, {s: w[offset:end] for s, w in zip(layers, strings)})
                verdict = top1d_forbidden(window, ctx.X, ctx.T, budget, decided)
                forbidden[symbols] = verdict is WindowVerdict.FORBIDDEN
            if forbidden[symbols]:
                bad.append(offset)
        return bad

    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        for k, gp in ((1, slc.patch1), (2, slc.patch2)):
            report = local.get(gp)
            if report is None:
                report = local[gp] = check_grid_local(gp)
            violations.extend((g, "grid", k, v) for v in report)
            violations.tally(report)
        rows = patch.rows(g)
        report = grid_y_check(slc, rows, ctx.sft)
        violations.extend((g, "cell", v) for v in report)
        violations.tally(report)
        if slc.patch1 not in chained:
            try:
                chained[slc.patch1] = _chains(slc.patch1)[0]
            except CycleDetected:
                chained[slc.patch1] = None
        chains = chained[slc.patch1]
        if chains is None:
            violations.append((g, "cycle", 1))
            continue
        for ci, chain in enumerate(chains):
            if len(chain) < 3:
                continue
            depth = 0
            while 3 ** (depth + 2) <= len(chain):
                depth += 1
            length = 3 ** (depth + 1)
            # Row h2 of the zipped chain rows is the chain's row in column h2.
            for h2, row in enumerate(zip(*(rows[h1] for h1 in chain))):
                if row not in bad_offsets:
                    bad_offsets[row] = row_bad_offsets(row, length)
                violations.extend((g, "row", (ci, h2, offset)) for offset in bad_offsets[row])
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
            rows = [a.patch1.labels[h] != b.patch1.labels[h] for h in range(patch.n1)]
            columns = [a.patch2.labels[h] != b.patch2.labels[h] for h in range(patch.n2)]
            for h1, h2 in itertools.product(range(patch.n1), range(patch.n2)):
                if rows[h1] or columns[h2]:
                    violations.append(((g, h1, h2), s))
    return violations


def check_F3(patch: FinalPatch, ctx: FactorContext) -> list:
    """Layer s of a record must repeat layer identity one base step over.

    Each slice is read once per call into one string, its records end to
    end, so a layer's characters are one stride slice of it; cells are
    walked only where two such columns differ.
    """
    layers = ctx.layers
    width = len(layers)
    position = {s: i for i, s in enumerate(layers)}
    identity_pos = position[ctx.T.identity]
    gens = patch.g_ball.oracle.gens
    n2 = patch.n2
    joined = []
    for records in patch.slices:
        try:
            joined.append("".join(map(ctx.block_map.get, records)))
        except TypeError:  # some symbol has no record
            joined.append(None)
    violations = []
    for g in range(len(patch.g_ball)):
        for s in gens.symbols:
            if s == gens.identity:
                continue
            if s not in position:
                raise UnknownSymbol(f"base generator {s!r} has no record layer")
            t = patch.g_ball.edges.get((g, gens.inverse[s]))
            if t is None:
                continue
            own, over = joined[g], joined[t]
            if own is None or over is None:
                # Raise for the first unknown symbol in cell order, own record first.
                for a, b in zip(patch.slices[g], patch.slices[t]):
                    _record(ctx, a)
                    _record(ctx, b)
            own, over = own[position[s] :: width], over[identity_pos::width]
            if own != over:
                violations.extend(
                    ((g, *divmod(i, n2)), s) for i, (a, b) in enumerate(zip(own, over)) if a != b
                )
    return violations


def check_F4(patch: FinalPatch, ctx: FactorContext) -> list:
    """Decoded prefixes may not depend on the base cell of the read.

    For each slice and each depth m below kappa, the window decoded from
    the identity base is compared — in symbol m — with the windows
    decoded from every generator-neighbour base.  The readers are built
    once per distinct grid (`_base_reads`) and each distinct window is
    decoded once, within the call.
    """
    if ctx.kappa <= 0:
        return []
    need = 3**ctx.kappa + 1
    violations = []
    reads = {}
    decoded = {}
    n2 = patch.n2
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        if slc.patch1.ball.radius < need:
            raise BallTooSmall(
                f"row ball radius {slc.patch1.ball.radius} < {need} needed for kappa={ctx.kappa}"
            )
        if slc not in reads:
            reads[slc] = _base_reads(slc, ctx.kappa)
        records = patch.slices[g]
        for m, depth_reads in enumerate(reads[slc]):
            reference = None
            for pair, read, h2 in depth_reads:
                bits = None
                if read is not None:
                    symbols = read(records[h2::n2])
                    if symbols not in decoded:
                        decoded[symbols] = _identity_prefix(ctx, symbols)
                    bits = decoded[symbols]
                if bits is None:
                    violations.append((g, m, pair, "unreadable" if read is None else "undecodable"))
                    if reference is None:  # the identity's read: nothing to compare with
                        break
                elif reference is None:
                    reference = bits[m]
                elif bits[m] != reference:
                    violations.append((g, m, pair, "mismatch"))
    return violations


def _base_reads(slc: ProductGridPatch, kappa: int) -> list:
    """The row reads F4 compares on one product grid.

    For each depth m below kappa, a (pair, reader, column) for each
    generator pair (s1, s2) whose cells lie in the balls, the identity
    pair first: column is the cell of s2, and the reader (`_row_reader`)
    reads the window of length 3^(m+1) rightwards from the cell of s1.
    """
    edges1, edges2 = slc.patch1.ball.edges, slc.patch2.ball.edges
    gens1, gens2 = slc.patch1.ball.oracle.gens, slc.patch2.ball.oracle.gens
    home = (gens1.identity, gens2.identity)
    pairs = [home, *(p for p in itertools.product(gens1.symbols, gens2.symbols) if p != home)]
    bases = [(pair, edges1.get((0, pair[0])), edges2.get((0, pair[1]))) for pair in pairs]
    return [
        [
            (pair, _row_reader(slc.patch1, h1, 3 ** (m + 1)), h2)
            for pair, h1, h2 in bases
            if h1 is not None and h2 is not None
        ]
        for m in range(kappa)
    ]


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
    h2 = slc.patch2.ball.index[()]
    read = _row_reader(slc.patch1, slc.patch1.ball.index[()], length)
    if read is None:
        raise UndecodableWindow("the rightward walk leaves the grid before the window ends")
    bits = _identity_prefix(ctx, read(patch.slices[g][h2 :: patch.n2]))
    if bits is None:
        raise UndecodableWindow(f"layer {ctx.T.identity!r} does not decode at depth {n}")
    return bits


def witness_construct(
    ctx: FactorContext,
    g_ball: CayleyBall,
    prefixes: dict,
    omega_bar: ProductGridPatch,
    shell: Optional[CayleyBall] = None,
):
    """Assemble a patch from explicit orbit data, one prefix per base cell.

    Layer s of slice g spreads the prefix supplied for g·s⁻¹, so the
    caller must provide prefixes (all of one length) for every element of
    the radius+1 ball, keyed by canonical word.  A caller that has built
    that ball passes it as `shell`.  All slices share omega_bar, whose
    first grid coordinates `grid._coordinates` computes once, as seeding
    does: the cell pair at first coordinate x of every slice gets the
    record spread at x.  A chain has at most as many cells as its ball,
    so |x| is below the first ball's size, which bounds the spread
    positions, and every cell pair gets a record.  Raises CycleDetected
    when a grid's labels close a cycle.
    """
    if shell is None:
        shell = cayley_ball(g_ball.oracle, g_ball.radius + 1)
    elif shell.oracle is not g_ball.oracle or shell.radius != g_ball.radius + 1:
        raise ValueError("shell must be the radius+1 ball of the base ball's group")
    gens = g_ball.oracle.gens
    layers = ctx.layers
    reverse = {}
    for sym, record in ctx.block_map.items():
        reverse.setdefault(record, sym)
    span1 = len(omega_bar.patch1.ball)
    positions = list(range(-span1, span1 + 1))
    order = None
    slices = []
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
        column = []
        for record in map("".join, zip(*(layered.layers[s] for s in layers))):
            sym = reverse.get(record)
            if sym is None:
                raise SchemaError(
                    "block_map", f"no alphabet symbol encodes the record {record!r}"
                )
            column.append(sym)
        if order is None:
            # Computed once the first slice's records are known, so a bad
            # record is still reported before a label cycle.  Cell
            # (h1, h2) reads the column at entry x1[h1] + span1.  The
            # second factor's coordinates are computed only to find a
            # label cycle.
            _, x1 = _coordinates(omega_bar.patch1)
            _coordinates(omega_bar.patch2)
            n2 = len(omega_bar.patch2.ball)
            order = [x + span1 for x in x1 for _ in range(n2)]
        slices.append(tuple(map(column.__getitem__, order)))
    return FinalPatch._of_slices(g_ball, dict.fromkeys(range(len(g_ball)), omega_bar), slices)


def hat_phi_project(patch: FinalPatch, ctx: FactorContext, codec: SubshiftCodec) -> dict:
    """Per-cell projection to the coded alphabet via the first kappa bits.

    Every cell re-bases the read: the window starts at that cell of its
    own slice.  Cells whose window leaves the grid, fails to decode, or
    decodes to bits outside the code table are marked Undetermined; with
    kappa 0 every cell is.  A cell's window lies in its column, so within
    one call each distinct row grid is walked once, each distinct column
    is projected once per row grid, and each distinct symbol tuple is
    decoded once.  A symbol without a record raises for the first such
    window in (g, h1, h2) order.
    """
    length = 3**ctx.kappa
    projection = {}
    decoded = {}
    grids = {}
    failed = []
    n1, n2 = patch.n1, patch.n2

    def project(symbols):
        sym = decoded.get(symbols)
        if sym is None:
            try:
                bits = _identity_prefix(ctx, symbols)
            except UnknownSymbol as exc:
                failed.append(exc)
                return exc
            sym = None if bits is None else codec.decode_block(bits)
            sym = decoded[symbols] = UNDETERMINED if sym is None else sym
        return sym

    for g in range(len(patch.g_ball)):
        patch1 = patch.omega[g].patch1
        if patch1 not in grids:
            readers = [_row_reader(patch1, h1, length) if ctx.kappa else None for h1 in range(n1)]
            grids[patch1] = (readers, {})
        readers, columns = grids[patch1]
        records = patch.slices[g]
        out = []
        for h2 in range(n2):
            column = records[h2::n2]
            values = columns.get(column)
            if values is None:
                values = columns[column] = [
                    UNDETERMINED if read is None else project(read(column)) for read in readers
                ]
            out.append(values)
        # out[h2][h1], read row by row.
        values = list(itertools.chain.from_iterable(zip(*out)))
        if failed:
            raise next(v for v in values if isinstance(v, UnknownSymbol))
        projection.update(zip(itertools.product((g,), range(n1), range(n2)), values))
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
    omega = {
        g: [grid_patch_to_descriptor(slc.patch1), grid_patch_to_descriptor(slc.patch2)]
        for g, slc in patch.omega.items()
    }
    return {
        **ball_to_descriptor(patch.g_ball),
        "omega": cells_to_words(patch.g_ball, omega),
        "y": cells_to_nested_words(patch.cell_balls, patch.y_sym),
    }


def final_patch_from_descriptor(obj, path: str = "final") -> FinalPatch:
    # The slices usually name one grid group and radius: build each ball once.
    balls: dict = {}
    g_ball = ball_from_descriptor(obj, path, "omega", "y", balls=balls)
    omega = {}
    for g, pair, where in cells_from_words(g_ball, obj["omega"], f"{path}.omega"):
        need(isinstance(pair, list) and len(pair) == 2, where, "expected [rows, columns]")
        omega[g] = ProductGridPatch(
            grid_patch_from_descriptor(pair[0], f"{where}[0]", balls),
            grid_patch_from_descriptor(pair[1], f"{where}[1]", balls),
        )
    # Records in cell-index order, None until read; FinalPatch rejects a gap.
    slices = {g: [None] * len(slc.patch1.ball) * len(slc.patch2.ball) for g, slc in omega.items()}
    for g, rows, where in cells_from_words(g_ball, obj["y"], f"{path}.y"):
        need(g in omega, where, "names a cell without a slice")
        slc, records = omega[g], slices[g]
        n2 = len(slc.patch2.ball)
        for h1, row, row_where in cells_from_words(slc.patch1.ball, rows, where):
            for h2, sym, cell_where in cells_from_words(slc.patch2.ball, row, row_where):
                need(isinstance(sym, str), cell_where, "expected a symbol")
                records[h1 * n2 + h2] = sym
    return FinalPatch._of_slices(g_ball, omega, [slices.get(g, ()) for g in range(len(g_ball))])
