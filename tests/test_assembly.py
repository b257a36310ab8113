"""The coupled three-factor patches: checkers, factor map, witnesses."""

from __future__ import annotations

import functools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshift import assembly, toeplitz
from groupshift.assembly import (
    UNDETERMINED,
    FactorContext,
    FinalPatch,
    action_layers,
    check_F1,
    check_F2,
    check_F3,
    check_F4,
    factor_phi,
    final_patch_from_descriptor,
    final_patch_to_descriptor,
    hat_phi_project,
    projective_check,
    standard_context,
    top_layer_sft,
    witness_construct,
)
from groupshift.effective import (
    FullShiftSetOracle,
    TrivialActionOracle,
    Verdict,
    make_codec,
    rho_action_oracle,
    rho_encode,
    rho_set_oracle,
)
from groupshift.errors import (
    BallTooSmall,
    CycleDetected,
    OutOfBall,
    SchemaError,
    UndecodableWindow,
    UnknownSymbol,
)
from groupshift.grid import (
    CoverFailure,
    GridLabel,
    GridPatch,
    ProductGridPatch,
    SeedFailure,
    _chains,
    check_grid_local,
    from_translation_action,
    grid_y_check,
    path_cover_search,
    read_grid,
    seed_grid_from_config,
)
from groupshift.groups import FreeAbelianOracle, FreeGroupOracle, GrigorchukOracle, cayley_ball
from groupshift.shiftcore import (
    Alphabet,
    Patch2D,
    Pattern,
    Violations,
    check_patch_nn,
    coding_from_pairs,
)
from groupshift.toeplitz import (
    FILLER,
    LayeredWord,
    WindowVerdict,
    decode_procedure,
    psi_encode,
    psi_tilde,
    top1d_forbidden,
)

ADJACENT_ONES = (coding_from_pairs([((), "1"), (("x",), "1")]),)


def line_ball(radius):
    return cayley_ball(FreeAbelianOracle(1), radius)


def line_patch(radius):
    ball = line_ball(radius)
    succ = {h: ball.elements[h] + ("x",) for h in range(len(ball))}
    pred = {h: ball.elements[h] + ("x-",) for h in range(len(ball))}
    return from_translation_action(ball, succ, pred)


def position(ball, h):
    word = ball.elements[h]
    return word.count("x") - word.count("x-")


def golden_setup(codec_radius=4):
    """Oracles for the no-adjacent-ones line shift plus a matching context."""
    codec = make_codec(FreeAbelianOracle(1), Alphabet(("0", "1")), codec_radius)
    X = rho_set_oracle(codec, ADJACENT_ONES)
    T = rho_action_oracle(codec, ADJACENT_ONES)
    return standard_context(X, T, codec.kappa), codec


def alternating_prefixes(codec, g_ball, length=7):
    """Orbit data of the two-periodic point: parities along the coded line."""
    shell = cayley_ball(g_ball.oracle, g_ball.radius + 1)
    slots = [position(codec.ball, m) for m in range(length)]
    out = {}
    for word in shell.elements:
        base = word.count("x") - word.count("x-")
        out[word] = "".join(str((base + q) % 2) for q in slots)
    return out


def golden_witness(radius1=10, radius2=2, g_radius=1, codec_radius=4):
    ctx, codec = golden_setup(codec_radius)
    g_ball = line_ball(g_radius)
    omega_bar = ProductGridPatch(line_patch(radius1), line_patch(radius2))
    prefixes = alternating_prefixes(codec, g_ball)
    patch = witness_construct(ctx, g_ball, prefixes, omega_bar)
    assert isinstance(patch, FinalPatch)
    return patch, ctx, codec


def test_layer_order_puts_identity_first():
    _, T, = (None, golden_setup()[0].T)
    assert action_layers(T) == ("1", "x", "x-")
    trivial = TrivialActionOracle(FullShiftSetOracle(), ("a", "a-"))
    assert action_layers(trivial) == ("1", "a", "a-")


def test_record_shift_over_three_layers():
    sft, block_map = top_layer_sft(("1", "x", "x-"))
    assert len(sft.alphabet) == 1 + 2**3
    assert FILLER * 3 in sft.alphabet
    assert "010" in sft.alphabet
    assert len(sft.allowed_h) == 9 * 9
    assert ("000", "000") in sft.allowed_v
    assert ("000", "001") not in sft.allowed_v
    assert all(block_map[sym] == sym for sym in sft.alphabet.symbols)
    with pytest.raises(ValueError):
        top_layer_sft(())


def test_context_rejects_bad_block_maps():
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    sft, block_map = top_layer_sft(action_layers(T))
    incomplete = dict(block_map)
    del incomplete[FILLER * 3]
    with pytest.raises(SchemaError):
        FactorContext(sft, incomplete, X, T, 1)
    short = dict(block_map)
    short["000"] = "00"
    with pytest.raises(SchemaError):
        FactorContext(sft, short, X, T, 1)
    alien = dict(block_map)
    alien["000"] = "0y0"
    with pytest.raises(SchemaError):
        FactorContext(sft, alien, X, T, 1)
    with pytest.raises(SchemaError):
        FactorContext(sft, dict(block_map), X, T, -1)


def test_final_patch_demands_total_data():
    patch, ctx, _ = golden_witness(radius1=4, radius2=1)
    omega = dict(patch.omega)
    del omega[1]
    with pytest.raises(SchemaError):
        FinalPatch(patch.g_ball, omega, patch.y_sym)
    y = dict(patch.y_sym)
    del y[(2, 0, 0)]
    with pytest.raises(SchemaError):
        FinalPatch(patch.g_ball, patch.omega, y)
    mixed = dict(patch.omega)
    mixed[1] = ProductGridPatch(line_patch(2), line_patch(1))
    with pytest.raises(SchemaError):
        FinalPatch(patch.g_ball, mixed, patch.y_sym)


def test_witness_passes_every_check():
    patch, ctx, _ = golden_witness()
    assert check_F1(patch, ctx, budget=20_000) == []
    assert check_F2(patch) == []
    assert check_F3(patch, ctx) == []
    assert check_F4(patch, ctx) == []


def test_factor_map_reads_the_coded_point():
    patch, ctx, codec = golden_witness()
    assert factor_phi(patch, ctx, 0) == "0"
    assert factor_phi(patch, ctx, 1) == "01"
    pattern = Pattern.from_pairs([((), "0"), (("x",), "1")])
    assert factor_phi(patch, ctx, 1) == rho_encode(codec, pattern, last_address=1)
    assert factor_phi(patch, ctx, 1, at=("x",)) == "10"
    assert factor_phi(patch, ctx, 1, at=("x-",)) == "10"


def test_factor_map_needs_margin():
    patch, ctx, _ = golden_witness()
    with pytest.raises(BallTooSmall):
        factor_phi(patch, ctx, 2)
    with pytest.raises(OutOfBall):
        factor_phi(patch, ctx, 1, at=("x", "x"))


def test_factor_map_is_equivariant():
    patch, ctx, _ = golden_witness()
    gens = patch.g_ball.oracle.gens
    here = factor_phi(patch, ctx, 1)
    for s in ("x", "x-"):
        moved = factor_phi(patch, ctx, 1, at=(gens.inverse[s],))
        assert ctx.T.query(s, moved, here, 100_000) is Verdict.UNKNOWN
    wide, ctx2, codec2 = golden_witness(radius1=28)
    deep = factor_phi(wide, ctx2, 2)
    assert deep == "011"
    pattern = Pattern.from_pairs([((), "0"), (("x",), "1"), (("x-",), "1")])
    assert deep == rho_encode(codec2, pattern, last_address=2)
    moved = factor_phi(wide, ctx2, 2, at=("x-",))
    assert ctx2.T.query("x", moved, deep, 100_000) is Verdict.UNKNOWN


def test_every_window_mutation_is_caught():
    patch, ctx, _ = golden_witness(radius1=4, radius2=2)
    ball1 = patch.omega[0].patch1.ball
    n2 = len(patch.omega[0].patch2.ball)
    baseline = factor_phi(patch, ctx, 0)
    window_cells = [ball1.index[()], ball1.index[("x",)], ball1.index[("x", "x")]]
    tried = 0
    for h1 in window_cells:
        original = patch.y_sym[(0, h1, 0)]
        for alt in sorted(ctx.block_map):
            if alt == original:
                continue
            y = dict(patch.y_sym)
            for h2 in range(n2):
                y[(0, h1, h2)] = alt
            mutated = FinalPatch(patch.g_ball, patch.omega, y)
            flagged = bool(
                check_F1(mutated, ctx, budget=20_000)
                or check_F3(mutated, ctx)
                or check_F4(mutated, ctx)
            )
            if not flagged:
                try:
                    flagged = factor_phi(mutated, ctx, 0) != baseline
                except UndecodableWindow:
                    flagged = True
            assert flagged, (h1, alt)
            tried += 1
    assert tried == 3 * 8


def test_slice_disagreement_is_column_wide():
    patch, ctx, _ = golden_witness(radius1=4, radius2=2)
    bar = patch.omega[0]
    target = bar.patch1.ball.index[("x", "x")]
    labels = dict(bar.patch1.labels)
    labels[target] = GridLabel("1", "1")
    omega = dict(patch.omega)
    omega[1] = ProductGridPatch(GridPatch(bar.patch1.ball, labels), bar.patch2)
    mutated = FinalPatch(patch.g_ball, omega, patch.y_sym)
    out = check_F2(mutated)
    assert len(out) == 2 * 5
    assert {(cell[0], s) for cell, s in out} == {(0, "x"), (1, "x-")}
    assert all(cell[1] == target for cell, _ in out)


def test_layer_shift_mismatch_points_at_the_step():
    g_ball = line_ball(1)
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    ctx = standard_context(X, T, 0)
    single = GridPatch(line_ball(0), {0: GridLabel("x-", "x")})
    bar = ProductGridPatch(single, single)
    clean = FinalPatch(g_ball, {g: bar for g in range(3)}, {(g, 0, 0): "000" for g in range(3)})
    assert check_F3(clean, ctx) == []
    y = {(g, 0, 0): "000" for g in range(3)}
    y[(1, 0, 0)] = "100"
    patch = FinalPatch(g_ball, {g: bar for g in range(3)}, y)
    assert check_F3(patch, ctx) == [((0, 0, 0), "x-")]


def test_rebased_reads_must_agree():
    g_ball = line_ball(0)
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    ctx = standard_context(X, T, 1)
    ball1 = line_ball(4)
    ball2 = line_ball(1)
    bar = ProductGridPatch(line_patch(4), line_patch(1))
    y = {}
    for h1 in range(len(ball1)):
        for h2 in range(len(ball2)):
            prefix = "00" if h2 == ball2.index[()] else "10"
            y[(0, h1, h2)] = psi_encode(prefix, [position(ball1, h1)]) * 3
    patch = FinalPatch(g_ball, {0: bar}, y)
    out = check_F4(patch, ctx)
    assert len(out) == 6
    assert {(pair, problem) for _, _, pair, problem in out} == {
        ((s1, s2), "mismatch") for s1 in ("1", "x", "x-") for s2 in ("x", "x-")
    }
    assert all(g == 0 and m == 0 for g, m, _, _ in out)


def test_trivial_action_witness_checks_out():
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    ctx = standard_context(X, T, 1)
    g_ball = line_ball(1)
    shell = cayley_ball(g_ball.oracle, 2)
    prefixes = {word: "0000000" for word in shell.elements}
    bar = ProductGridPatch(line_patch(10), line_patch(2))
    patch = witness_construct(ctx, g_ball, prefixes, bar)
    assert isinstance(patch, FinalPatch)
    assert check_F1(patch, ctx, budget=20_000) == []
    assert check_F2(patch) == []
    assert check_F3(patch, ctx) == []
    assert check_F4(patch, ctx) == []
    assert factor_phi(patch, ctx, 1) == "00"


def test_row_corruption_is_reported():
    patch, ctx, _ = golden_witness()
    ball1 = patch.omega[0].patch1.ball
    ball2 = patch.omega[0].patch2.ball
    h1 = ball1.index[("x",)]
    h2 = ball2.index[()]
    y = dict(patch.y_sym)
    y[(0, h1, h2)] = "111"
    broken = FinalPatch(patch.g_ball, patch.omega, y)
    out = check_F1(broken, ctx, budget=20_000)
    assert [v for v in out if v[1] == "grid"] == []
    assert len([v for v in out if v[1] == "cell"]) == 2
    rows = sorted(v for v in out if v[1] == "row")
    assert rows == [(0, "row", (0, h2, offset)) for offset in range(3, 12)]


def test_corrupted_window_fails_the_factor_map():
    patch, ctx, _ = golden_witness()
    ball1 = patch.omega[0].patch1.ball
    h1 = ball1.index[("x",)]
    y = dict(patch.y_sym)
    y[(0, h1, 0)] = "111"
    broken = FinalPatch(patch.g_ball, patch.omega, y)
    with pytest.raises(UndecodableWindow) as caught:
        factor_phi(broken, ctx, 1)
    # `final phi` reports this text as its error.
    assert str(caught.value) == "layer '1' does not decode at depth 1"


def test_witness_needs_complete_orbit_data():
    ctx, codec = golden_setup()
    g_ball = line_ball(1)
    bar = ProductGridPatch(line_patch(4), line_patch(1))
    prefixes = alternating_prefixes(codec, g_ball)
    del prefixes[("x", "x")]
    with pytest.raises(SchemaError):
        witness_construct(ctx, g_ball, prefixes, bar)


def test_witness_takes_only_its_own_shell():
    ctx, codec = golden_setup()
    g_ball = line_ball(1)
    bar = ProductGridPatch(line_patch(4), line_patch(1))
    prefixes = alternating_prefixes(codec, g_ball)
    built = witness_construct(ctx, g_ball, prefixes, bar)
    shell = cayley_ball(g_ball.oracle, 2)
    given_shell = witness_construct(ctx, g_ball, prefixes, bar, shell)
    assert final_patch_to_descriptor(given_shell) == final_patch_to_descriptor(built)
    for wrong in (cayley_ball(g_ball.oracle, 3), cayley_ball(FreeAbelianOracle(2), 2)):
        with pytest.raises(ValueError):
            witness_construct(ctx, g_ball, prefixes, bar, wrong)


def test_witness_propagates_label_cycles():
    ctx, codec = golden_setup()
    g_ball = line_ball(1)
    ball = line_ball(1)
    labels = {
        ball.index[()]: GridLabel("x-", "x"),
        ball.index[("x",)]: GridLabel("x", "x-"),
        ball.index[("x-",)]: GridLabel("x-", "x"),
    }
    bar = ProductGridPatch(GridPatch(ball, labels), line_patch(1))
    prefixes = alternating_prefixes(codec, g_ball)
    with pytest.raises(CycleDetected):
        witness_construct(ctx, g_ball, prefixes, bar)


def test_projection_and_restriction():
    patch, ctx, codec = golden_witness()
    ball1 = patch.omega[0].patch1.ball
    hat = hat_phi_project(patch, ctx, codec)
    assert len(hat) == 3 * 21 * 5
    assert repr(UNDETERMINED) == "Undetermined"
    undetermined = [cell for cell, sym in hat.items() if sym is UNDETERMINED]
    assert len(undetermined) == 3 * 2 * 5
    assert all(position(ball1, h1) >= 9 for _, h1, _ in undetermined)
    expected = {0: "0", 1: "1", 2: "1"}
    for (g, h1, h2), sym in hat.items():
        if sym is not UNDETERMINED:
            assert sym == expected[g]
    good = Pattern.from_pairs([((), "0"), (("x",), "1"), (("x-",), "1")])
    assert projective_check(patch, hat, good)
    flipped = Pattern.from_pairs([((), "0"), (("x",), "0"), (("x-",), "1")])
    assert not projective_check(patch, hat, flipped)
    partial = Pattern.from_pairs([((), "0")])
    assert not projective_check(patch, hat, partial)


def test_descriptor_roundtrip():
    patch, ctx, _ = golden_witness(radius1=4, radius2=1)
    desc = final_patch_to_descriptor(patch)
    back = final_patch_from_descriptor(json.loads(json.dumps(desc)))
    assert back.y_sym == patch.y_sym
    assert back.g_ball.elements == patch.g_ball.elements
    for g in range(len(patch.g_ball)):
        assert back.omega[g].patch1.labels == patch.omega[g].patch1.labels
        assert back.omega[g].patch2.labels == patch.omega[g].patch2.labels
    assert check_F2(back) == []
    assert check_F1(back, ctx, budget=20_000) == []
    with pytest.raises(SchemaError):
        final_patch_from_descriptor({"group": desc["group"], "radius": 1})


# Window-by-window references for the memoised checkers: every decode
# window of F1 is tested on its own, and every cell of the projection
# reads its own window with read_grid.  A window's verdict and a grid's
# window cells depend on their arguments alone, so they are cached.


def layered(ctx, symbols):
    """Layered word of a run of symbols, read off the block map; a symbol
    without a record raises UnknownSymbol, as in the library."""
    records = [assembly._record(ctx, sym) for sym in symbols]
    columns = {s: "".join(r[i] for r in records) for i, s in enumerate(ctx.layers)}
    return LayeredWord(len(records), columns)


def slice_dict(y, g):
    """Slice g of a (g, h1, h2) record map, keyed by (h1, h2)."""
    return {key[1:]: sym for key, sym in y.items() if key[0] == g}


def f1_windows(patch):
    """(g, (chain, column, offset), symbols) for every window check_F1 scans."""
    y = patch.y_sym
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        try:
            chains, _ = _chains(slc.patch1)
        except CycleDetected:
            continue
        for ci, chain in enumerate(chains):
            if len(chain) < 3:
                continue
            length = 3
            while 3 * length <= len(chain):
                length *= 3
            for h2 in range(len(slc.patch2.ball)):
                for offset in range(len(chain) - length + 1):
                    cells = chain[offset : offset + length]
                    yield g, (ci, h2, offset), tuple(y[(g, h1, h2)] for h1 in cells)


@functools.cache
def reference_forbidden(ctx, symbols, budget):
    """One window tested on its own.  The verdict depends on the arguments
    alone, so the sampled properties share it across examples."""
    verdict = top1d_forbidden(layered(ctx, symbols), ctx.X, ctx.T, budget)
    return verdict is WindowVerdict.FORBIDDEN


@functools.cache
def reference_identity_bits(ctx, symbols):
    """The identity layer of one window, decoded on its own."""
    return decode_procedure(layered(ctx, symbols).layer(ctx.T.identity))


def reference_F1_rows(patch, ctx, budget):
    return [
        (g, "row", where)
        for g, where, symbols in f1_windows(patch)
        if reference_forbidden(ctx, symbols, budget)
    ]


class CellNames(dict):
    """Every (h1, h2) maps to itself, so read_grid returns the cells it reads."""

    def __missing__(self, key):
        return key


@functools.cache
def read_window(slc, base, length):
    """The cells of the row window of a length from base, read with
    read_grid; None when the read leaves the grid."""
    row = read_grid(slc, CellNames(), base, (0, 0, length, 1))
    return None if row is None else tuple(row.get(x, 0) for x in range(length))


def window_symbols(y_slice, slc, base, length):
    cells = read_window(slc, base, length)
    return None if cells is None else tuple(y_slice[cell] for cell in cells)


def projection_windows(patch, ctx):
    """(cell, symbols) for every cell; symbols is None when the read leaves the grid."""
    length = 3**ctx.kappa
    y = patch.y_sym
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        y_slice = slice_dict(y, g)
        for h1 in range(len(slc.patch1.ball)):
            for h2 in range(len(slc.patch2.ball)):
                yield (g, h1, h2), window_symbols(y_slice, slc, (h1, h2), length)


def reference_projection(patch, ctx, codec):
    reverse = {bits: sym for sym, bits in codec.upsilon.items()}
    out = {}
    for cell, symbols in projection_windows(patch, ctx):
        out[cell] = UNDETERMINED
        if symbols is not None:
            out[cell] = reverse.get(reference_identity_bits(ctx, symbols), UNDETERMINED)
    return out


def assert_checkers_match_references(patch, ctx, codec, budget=20_000):
    rows = [v for v in check_F1(patch, ctx, budget) if v[1] == "row"]
    assert rows == reference_F1_rows(patch, ctx, budget)
    projection = hat_phi_project(patch, ctx, codec)
    assert list(projection.items()) == list(reference_projection(patch, ctx, codec).items())
    return rows, projection


@functools.cache
def shared_witness(radius1, radius2):
    return golden_witness(radius1=radius1, radius2=radius2)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_memoised_checkers_match_window_by_window_references(data):
    # Short rows (radius 4) end inside F1's 9-window and the projection's
    # 3-window, so their last cells are Undetermined.
    patch, ctx, codec = shared_witness(*data.draw(st.sampled_from([(28, 1), (10, 2), (4, 1)])))
    y, omega = dict(patch.y_sym), dict(patch.omega)
    corruption = data.draw(st.sampled_from(["none", "record", "label"]))
    if corruption == "record":
        # Most records are wrong somewhere, so windows over them do not decode.
        cell = data.draw(st.sampled_from(sorted(y)))
        y[cell] = data.draw(st.sampled_from(sorted(ctx.block_map)))
    elif corruption == "label":
        # A relabelled cell can cut a row short or close a label cycle.
        g = data.draw(st.sampled_from(sorted(omega)))
        rows = omega[g].patch1
        h = data.draw(st.integers(0, len(rows.ball) - 1))
        symbols = st.sampled_from(rows.ball.oracle.gens.symbols)
        labels = dict(rows.labels)
        labels[h] = GridLabel(data.draw(symbols), data.draw(symbols))
        omega[g] = ProductGridPatch(GridPatch(rows.ball, labels), omega[g].patch2)
    assert_checkers_match_references(FinalPatch(patch.g_ball, omega, y), ctx, codec)


def test_undecodable_windows_match_the_references():
    patch, ctx, codec = shared_witness(28, 1)
    ball1 = patch.omega[0].patch1.ball
    y = dict(patch.y_sym)
    y[(0, ball1.index[("x", "x")], 0)] = "111"  # bits where the coding has filler
    rows, projection = assert_checkers_match_references(
        FinalPatch(patch.g_ball, patch.omega, y), ctx, codec
    )
    assert rows
    clean = hat_phi_project(patch, ctx, codec)
    spoiled = [sym for cell, sym in projection.items() if sym != clean[cell]]
    assert spoiled.count(UNDETERMINED) == 2


def test_projection_at_kappa_zero_is_undetermined():
    patch, ctx, codec = shared_witness(4, 1)
    hat = hat_phi_project(patch, standard_context(ctx.X, ctx.T, 0), codec)
    assert list(hat) == sorted(patch.y_sym)
    assert all(sym is UNDETERMINED for sym in hat.values())


def test_each_distinct_window_is_tested_once(monkeypatch):
    # The acceptance suite's witness (build_witness): r = 28 row and column grids.
    patch, ctx, codec = golden_witness(radius1=28, radius2=28)
    windows = [symbols for _, _, symbols in f1_windows(patch)]
    assert (len(windows), len(set(windows))) == (5301, 58)
    cells = [symbols for _, symbols in projection_windows(patch, ctx) if symbols is not None]
    assert (len(cells), len(set(cells))) == (9405, 16)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(assembly, "top1d_forbidden", counted("F1", top1d_forbidden))
    monkeypatch.setattr(assembly, "decode_procedure", counted("project", decode_procedure))
    rows, projection = assert_checkers_match_references(patch, ctx, codec, budget=100_000)
    assert rows == []
    assert calls == {"F1": len(set(windows)), "project": len(set(cells))}


@pytest.mark.parametrize("name", ["golden", "z2-lines"])
def test_row_memos_test_each_window_and_decode_each_layer_string_once(monkeypatch, name):
    if name == "golden":
        patch, ctx, codec = shared_witness(10, 2)
    else:
        patch, ctx, codec, _ = grid_witness(name)
    windows = {symbols for _, _, symbols in f1_windows(patch)}
    strings = {word for symbols in windows for word in layered(ctx, symbols).layers.values()}
    cells = {symbols for _, symbols in projection_windows(patch, ctx) if symbols is not None}
    calls = {"F1": [], "decode": [], "project": []}

    def recorded(name, original, key):
        def wrapper(*args):
            calls[name].append(key(*args))
            return original(*args)

        return wrapper

    def layers(window, *_):
        return tuple(window.layers.values())

    monkeypatch.setattr(assembly, "top1d_forbidden", recorded("F1", top1d_forbidden, layers))
    monkeypatch.setattr(toeplitz, "decode_procedure", recorded("decode", decode_procedure, str))
    monkeypatch.setattr(
        assembly,
        "_identity_prefix",
        recorded("project", assembly._identity_prefix, lambda _, symbols: symbols),
    )
    check_F1(patch, ctx)
    assert sorted(calls["F1"]) == sorted(tuple(layered(ctx, w).layers.values()) for w in windows)
    decoded = Counter(calls["decode"])
    assert set(decoded) <= strings and max(decoded.values()) == 1
    hat_phi_project(patch, ctx, codec)
    assert sorted(calls["project"]) == sorted(cells)


# Slice-by-slice references for the shared-grid paths: the witness seeds a
# planar patch onto every slice, and F1, F3 and F4 redo each slice's grid
# work with no memo at all.


def reference_witness(ctx, g_ball, prefixes, omega_bar):
    """One Patch2D per slice, spread by seed_grid_from_config."""
    shell = cayley_ball(g_ball.oracle, g_ball.radius + 1)
    gens = g_ball.oracle.gens
    reverse = {}
    for sym, record in ctx.block_map.items():
        reverse.setdefault(record, sym)
    span1, span2 = len(omega_bar.patch1.ball), len(omega_bar.patch2.ball)
    positions = list(range(-span1, span1 + 1))
    omega, y_sym = {}, {}
    for g in range(len(g_ball)):
        words = {}
        for s in ctx.layers:
            word = g_ball.elements[g] + (() if s == gens.identity else (gens.inverse[s],))
            words[s] = prefixes[shell.elements[shell.resolve(word)]]
        layered_word = psi_tilde(words, positions)
        cells = {}
        for j, x in enumerate(positions):
            sym = reverse["".join(layered_word.layers[s][j] for s in ctx.layers)]
            for yy in range(-span2, span2 + 1):
                cells[(x, yy)] = sym
        seeded = seed_grid_from_config(
            omega_bar, Patch2D(-span1, -span2, 2 * span1 + 1, 2 * span2 + 1, cells)
        )
        assert not isinstance(seeded, SeedFailure)
        omega[g] = omega_bar
        for (h1, h2), sym in seeded.items():
            y_sym[(g, h1, h2)] = sym
    return FinalPatch(g_ball, omega, y_sym)


def reference_F1(patch, ctx, budget):
    rows = {g: [] for g in patch.omega}
    for g, where, symbols in f1_windows(patch):
        if reference_forbidden(ctx, symbols, budget):
            rows[g].append((g, "row", where))
    violations = Violations()
    y = patch.y_sym
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        for k, gp in ((1, slc.patch1), (2, slc.patch2)):
            report = check_grid_local(gp)
            violations.extend((g, "grid", k, v) for v in report)
            violations.tally(report)
        n1, n2 = len(slc.patch1.ball), len(slc.patch2.ball)
        records = [[y[(g, h1, h2)] for h2 in range(n2)] for h1 in range(n1)]
        report = grid_y_check(slc, records, ctx.sft)
        violations.extend((g, "cell", v) for v in report)
        violations.tally(report)
        try:
            _chains(slc.patch1)
        except CycleDetected:
            violations.append((g, "cycle", 1))
            continue
        violations.extend(rows[g])
    return violations


def reference_F3(patch, ctx):
    position = {s: i for i, s in enumerate(ctx.layers)}
    gens = patch.g_ball.oracle.gens
    y = patch.y_sym
    violations = []
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        for s in gens.symbols:
            t = patch.g_ball.edges.get((g, gens.inverse[s]))
            if s == gens.identity or t is None:
                continue
            for h1 in range(len(slc.patch1.ball)):
                for h2 in range(len(slc.patch2.ball)):
                    own = assembly._record(ctx, y[(g, h1, h2)])
                    over = assembly._record(ctx, y[(t, h1, h2)])
                    if own[position[s]] != over[position[ctx.T.identity]]:
                        violations.append(((g, h1, h2), s))
    return violations


def reference_F4(patch, ctx):
    """Every base's window read on its own with read_grid."""
    need = 3**ctx.kappa + 1
    y = patch.y_sym
    violations = []
    for g in range(len(patch.g_ball)):
        slc = patch.omega[g]
        if slc.patch1.ball.radius < need:
            raise BallTooSmall(
                f"row ball radius {slc.patch1.ball.radius} < {need} needed for kappa={ctx.kappa}"
            )
        y_slice = slice_dict(y, g)
        ball1, ball2 = slc.patch1.ball, slc.patch2.ball
        gens1, gens2 = ball1.oracle.gens, ball2.oracle.gens
        bases = {}
        for s1 in gens1.symbols:
            for s2 in gens2.symbols:
                idx1 = ball1.resolve(() if s1 == gens1.identity else (s1,))
                idx2 = ball2.resolve(() if s2 == gens2.identity else (s2,))
                if idx1 is not None and idx2 is not None:
                    bases[(s1, s2)] = (idx1, idx2)
        home = (gens1.identity, gens2.identity)
        for m in range(ctx.kappa):
            length = 3 ** (m + 1)
            read = {}
            for pair, base in bases.items():
                symbols = window_symbols(y_slice, slc, base, length)
                if symbols is None:
                    read[pair] = (None, "unreadable")
                    continue
                bits = reference_identity_bits(ctx, symbols)
                read[pair] = (None, "undecodable") if bits is None else (bits, None)
            reference, problem = read[home]
            if problem is not None:
                violations.append((g, m, home, problem))
                continue
            for pair, (value, problem) in read.items():
                if pair == home:
                    continue
                if problem is not None:
                    violations.append((g, m, pair, problem))
                elif value[m] != reference[m]:
                    violations.append((g, m, pair, "mismatch"))
    return violations


def outcome(check, *args):
    """A checker's result, or the type and text of what it raised."""
    try:
        return check(*args)
    except (UnknownSymbol, BallTooSmall) as exc:
        return type(exc), str(exc)


def assert_every_checker_matches(patch, ctx, codec, budget=20_000):
    f1 = outcome(check_F1, patch, ctx, budget)
    want = outcome(reference_F1, patch, ctx, budget)
    assert f1 == want
    if isinstance(f1, Violations):
        assert (f1.satisfied, f1.unchecked) == (want.satisfied, want.unchecked)
    assert outcome(check_F3, patch, ctx) == outcome(reference_F3, patch, ctx)
    shallow = standard_context(ctx.X, ctx.T, 1)
    for c in (ctx, shallow):
        assert outcome(check_F4, patch, c) == outcome(reference_F4, patch, c)
    projection = outcome(hat_phi_project, patch, ctx, codec)
    want = outcome(reference_projection, patch, ctx, codec)
    assert projection == want
    if isinstance(projection, dict):
        assert list(projection) == list(want)
    return f1


def z2_line_patch(radius, axis):
    ball = cayley_ball(FreeAbelianOracle(2), radius)
    succ = {h: ball.elements[h] + (axis,) for h in range(len(ball))}
    pred = {h: ball.elements[h] + (axis + "-",) for h in range(len(ball))}
    return from_translation_action(ball, succ, pred)


def cover_patch(oracle, radius):
    ball = cayley_ball(oracle, radius)
    cover = path_cover_search(ball, 2)
    assert not isinstance(cover, CoverFailure)
    return from_translation_action(ball, cover.succ, cover.pred)


# The (row grid, column grid) pair of each witness, by name.
GRIDS = {
    "z-lines": lambda: (line_patch(10), line_patch(2)),
    "z2-lines": lambda: (z2_line_patch(4, "x"), z2_line_patch(2, "y")),
    "free2-cover-4": lambda: (cover_patch(FreeGroupOracle(2), 4), line_patch(2)),
    "grigorchuk-cover-6": lambda: (cover_patch(GrigorchukOracle(), 6), line_patch(2)),
    "grigorchuk-cover-9": lambda: (cover_patch(GrigorchukOracle(), 9), line_patch(2)),
}


@functools.cache
def grid_witness(name):
    ctx, codec = golden_setup()
    g_ball = line_ball(1)
    prefixes = alternating_prefixes(codec, g_ball)
    patch = witness_construct(ctx, g_ball, prefixes, ProductGridPatch(*GRIDS[name]()))
    return patch, ctx, codec, prefixes


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_shared_grid_witness_matches_the_per_slice_seeding(name):
    patch, ctx, codec, prefixes = grid_witness(name)
    want = reference_witness(ctx, patch.g_ball, prefixes, patch.omega[0])
    assert list(patch.y_sym.items()) == list(want.y_sym.items())
    assert final_patch_to_descriptor(patch) == final_patch_to_descriptor(want)
    assert assert_every_checker_matches(patch, ctx, codec) == []


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_checkers_match_the_references_on_corrupted_grid_witnesses(name):
    patch, ctx, codec, _ = grid_witness(name)
    rng = random.Random(name)
    cells = sorted(patch.y_sym)
    symbols = sorted(ctx.block_map)
    reported = 0
    for trial in range(4):
        y = dict(patch.y_sym)
        for cell in rng.sample(cells, 1 + trial):
            y[cell] = rng.choice(symbols)
        if trial == 3:
            # Two unknown symbols: every checker raises at the first it meets.
            y[rng.choice(cells)] = "?"
            y[rng.choice(cells)] = "!"
        f1 = assert_every_checker_matches(FinalPatch(patch.g_ball, patch.omega, y), ctx, codec)
        reported += bool(f1)
    assert reported


def constraints(report):
    """Every constraint a local checker's report accounts for."""
    return len(report) + report.satisfied + report.unchecked


def swapped_label(gp, h):
    """The grid with the left and right labels of cell h exchanged."""
    label = gp.labels[h]
    return GridPatch(gp.ball, {**gp.labels, h: GridLabel(label.right, label.left)})


@pytest.mark.parametrize("name", ["golden", *sorted(GRIDS)])
def test_every_local_constraint_is_counted_once(name):
    # Two label constraints per ball cell, two dominoes per product cell
    # and two neighbour pairs per planar patch cell, each either failed,
    # satisfied or unchecked, on the witness and on a corrupted copy.
    if name == "golden":
        patch, ctx, _ = golden_witness()
    else:
        patch, ctx, _, _ = grid_witness(name)
    rng = random.Random(name)
    y = dict(patch.y_sym)
    for cell in rng.sample(sorted(y), 5):
        y[cell] = rng.choice(sorted(ctx.block_map))
    for final in (patch, FinalPatch(patch.g_ball, patch.omega, y)):
        expected = 0
        for g in range(len(final.g_ball)):
            slc = final.omega[g]
            n1, n2 = len(slc.patch1.ball), len(slc.patch2.ball)
            for gp in (slc.patch1, slc.patch2):
                assert constraints(check_grid_local(gp)) == 2 * len(gp.ball)
                swapped = check_grid_local(swapped_label(gp, 0))
                assert swapped and constraints(swapped) == 2 * len(gp.ball)
            rows = final.rows(g)
            assert constraints(grid_y_check(slc, rows, ctx.sft)) == 2 * n1 * n2
            holed = {
                (h1, h2): rows[h1][h2]
                for h1 in range(n1)
                for h2 in range(n2)
                if (h1 + h2) % 5
            }
            planar = check_patch_nn(ctx.sft, Patch2D(0, 0, n1, n2, holed))
            assert constraints(planar) == 2 * n1 * n2
            expected += 2 * (n1 + n2 + n1 * n2)
        f1 = check_F1(final, ctx)
        local = [v for v in f1 if v[1] in ("grid", "cell")]
        assert len(local) + f1.satisfied + f1.unchecked == expected


def test_f3_raises_for_the_first_unknown_symbol_it_meets():
    # F3 reads cell by cell, own record first, for each (g, s) in order;
    # on the golden witness slice 0 is compared with slice 2 first.
    patch, ctx, _ = golden_witness()
    last = max(cell for cell in patch.y_sym if cell[0] == 0)
    for other, first in ((2, "?"), (1, "!")):
        y = dict(patch.y_sym)
        y[last] = "!"
        y[(other, 0, 0)] = "?"
        with pytest.raises(UnknownSymbol) as caught:
            check_F3(FinalPatch(patch.g_ball, patch.omega, y), ctx)
        assert str(caught.value) == f"symbol {first!r} has no layered record"


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_two_unknown_symbols_raise_alike_in_every_checker(data):
    patch, ctx, codec = shared_witness(10, 2)
    y = dict(patch.y_sym)
    cells = sorted(y)
    for sym in ("?", "!"):
        y[data.draw(st.sampled_from(cells))] = sym
    assert_every_checker_matches(FinalPatch(patch.g_ball, patch.omega, y), ctx, codec)


def phi_outcome(patch, ctx):
    """factor_phi at the deepest depth the row ball holds, or its error text."""
    depth = 0
    while 3 ** (depth + 2) - 1 <= patch.omega[0].patch1.ball.radius:
        depth += 1
    try:
        return factor_phi(patch, ctx, depth)
    except UndecodableWindow as exc:
        return str(exc)


CORRUPTED = {
    "golden": lambda: shared_witness(10, 2),
    "z2-lines": lambda: grid_witness("z2-lines")[:3],
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_single_record_corruptions_are_reported_or_change_nothing(data):
    patch, ctx, codec = CORRUPTED[data.draw(st.sampled_from(sorted(CORRUPTED)))]()
    y = dict(patch.y_sym)
    cell = data.draw(st.sampled_from(sorted(y)))
    y[cell] = data.draw(st.sampled_from(sorted(set(ctx.block_map) - {y[cell]})))
    broken = FinalPatch(patch.g_ball, patch.omega, y)
    found = [assert_every_checker_matches(broken, ctx, codec), check_F3(broken, ctx)]
    found += [outcome(check_F4, broken, c) for c in (ctx, standard_context(ctx.X, ctx.T, 1))]
    if not any(isinstance(f, list) and f for f in found):
        assert phi_outcome(broken, ctx) == phi_outcome(patch, ctx)
        assert hat_phi_project(broken, ctx, codec) == hat_phi_project(patch, ctx, codec)


def test_final_patch_rejects_records_outside_the_product_ball():
    patch, _, _ = golden_witness(radius1=4, radius2=1)
    sym = patch.y_sym[(0, 0, 0)]
    for key, where in (((0, 10**6, 0), "y[0,1000000,0]"), ((3, 0, 0), "y[3,0,0]")):
        y = dict(patch.y_sym)
        y[key] = sym
        with pytest.raises(SchemaError) as caught:
            FinalPatch(patch.g_ball, patch.omega, y)
        assert caught.value.path == where


def test_f1_on_equal_but_distinct_grids_and_on_a_shared_label_cycle():
    patch, ctx, codec = shared_witness(10, 2)
    bar = patch.omega[0]
    # Equal grids built apart: each slice has its own GridPatch objects.
    copies = {
        g: ProductGridPatch(
            GridPatch(bar.patch1.ball, dict(bar.patch1.labels)),
            GridPatch(bar.patch2.ball, dict(bar.patch2.labels)),
        )
        for g in patch.omega
    }
    y = dict(patch.y_sym)
    y[(1, bar.patch1.ball.index[("x",)], 0)] = "111"
    for omega in (patch.omega, copies):
        found = assert_every_checker_matches(FinalPatch(patch.g_ball, omega, y), ctx, codec)
        assert found and all(v[0] == 1 for v in found)
    # One shared grid whose rows close a label cycle: every slice says so.
    ball = bar.patch1.ball
    labels = dict(bar.patch1.labels)
    labels[ball.index[("x", "x")]] = GridLabel("x-", "x-")
    cyclic = ProductGridPatch(GridPatch(ball, labels), bar.patch2)
    shared = FinalPatch(patch.g_ball, {g: cyclic for g in patch.omega}, patch.y_sym)
    found = assert_every_checker_matches(shared, ctx, codec)
    assert [v for v in found if v[1] == "cycle"] == [(g, "cycle", 1) for g in range(3)]
    assert len([v for v in found if v[1] == "grid"]) == 3 * 2


def test_each_decoded_prefix_tuple_is_decided_once(monkeypatch):
    patch, ctx, codec = golden_witness(radius1=28, radius2=28)
    windows = {symbols for _, _, symbols in f1_windows(patch)}
    decoded = {
        tuple(decode_procedure(layered(ctx, symbols).layer(s)) for s in ctx.layers)
        for symbols in windows
    }
    decoded = {bits for bits in decoded if None not in bits}
    assert (len(windows), len(decoded)) == (58, 2)
    calls = []
    original = toeplitz._prefixes_forbidden
    monkeypatch.setattr(
        toeplitz, "_prefixes_forbidden", lambda *args: calls.append(args[0]) or original(*args)
    )
    assert check_F1(patch, ctx, budget=100_000) == []
    assert sorted(calls) == sorted(decoded)


def test_rebased_reads_disagreeing_below_the_first_bit():
    # Column h2 = identity codes 000 and every other column 010, so the
    # reads agree at depth 0 and differ at depth 1 between columns.
    X = FullShiftSetOracle()
    T = TrivialActionOracle(X, ("x", "x-"))
    ctx = standard_context(X, T, 2)
    ball1, ball2 = line_ball(10), line_ball(1)
    y = {}
    for h1 in range(len(ball1)):
        for h2 in range(len(ball2)):
            prefix = "000" if h2 == ball2.index[()] else "010"
            y[(0, h1, h2)] = psi_encode(prefix, [position(ball1, h1)]) * 3
    patch = FinalPatch(line_ball(0), {0: ProductGridPatch(line_patch(10), line_patch(1))}, y)
    out = check_F4(patch, ctx)
    assert out == reference_F4(patch, ctx)
    assert {(m, pair, problem) for _, m, pair, problem in out} == {
        (1, (s1, s2), "mismatch") for s1 in ("1", "x", "x-") for s2 in ("x", "x-")
    }


def reference_F2(patch):
    """F2 cell pair by cell pair: (row label, column label) on each side."""

    def omega_at(g, h1, h2):
        slc = patch.omega[g]
        return (slc.patch1.labels[h1], slc.patch2.labels[h2])

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
                    if omega_at(g, h1, h2) != omega_at(t, h1, h2):
                        violations.append(((g, h1, h2), s))
    return violations


def relabelled(gp, cells):
    """The grid with the labels of the given cells set to the identity pair."""
    return GridPatch(gp.ball, {**gp.labels, **dict.fromkeys(cells, GridLabel("1", "1"))})


@pytest.mark.parametrize("differ", ["rows", "columns", "both"])
def test_f2_matches_the_cell_by_cell_reference_in_order(differ):
    # Slices 1 and 2 (of three along a line) each change some labels of
    # the row grid, of the column grid, or of both.
    patch, _, _ = golden_witness(radius1=4, radius2=2)
    bar = patch.omega[0]
    rng = random.Random(differ)
    omega = dict(patch.omega)
    for g in (1, 2):
        rows, columns = bar.patch1, bar.patch2
        if differ != "columns":
            rows = relabelled(rows, rng.sample(range(len(rows.ball)), 2))
        if differ != "rows":
            columns = relabelled(columns, rng.sample(range(len(columns.ball)), 2))
        omega[g] = ProductGridPatch(rows, columns)
    mutated = FinalPatch(patch.g_ball, omega, patch.y_sym)
    out = check_F2(mutated)
    assert out
    assert out == reference_F2(mutated)
