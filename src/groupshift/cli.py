"""Command-line front end: JSON descriptors in, byte-stable reports out.

Every subcommand loads descriptor files, runs one library routine, and
emits a JSON report tagged with the schema name; graph-shaped results
can additionally be written as DOT.  Checker reports always carry the
violations/satisfied/unchecked triple.  Exit status 0 means a clean
check or a successful construction, 1 a reported violation or failure
(the report is still written), and 2 a usage or schema problem.

Reports are deterministic: keys are sorted, iteration orders are fixed,
and the only randomized routine (the path-cover repair loop) draws all
of its randomness from the --seed option of `grid cover`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .aperiodic import (
    ColoringFailure,
    colored_ball_from_descriptor,
    colored_ball_to_descriptor,
    product_aperiodicity_probe,
    square_free_search,
    square_free_verify,
)
from .assembly import (
    UNDETERMINED,
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
    witness_construct,
)
from .effective import (
    Verdict,
    make_codec,
    rho_action_oracle,
    rho_set_oracle,
    subshift_from_descriptor,
)
from .errors import (
    CycleDetected,
    DisplacementNotGenerator,
    GroupshiftError,
    ResourceLimit,
    SchemaError,
    UndecodableWindow,
)
from .grid import (
    CoverFailure,
    ProductGridPatch,
    SeedFailure,
    check_grid_local,
    from_translation_action,
    grid_patch_from_descriptor,
    grid_patch_to_descriptor,
    grid_patch_to_dot,
    orbit_trace,
    path_cover_search,
    seed_grid_from_config,
)
from .groups import cayley_ball, format_word, group_from_descriptor, parse_word
from .shiftcore import (
    Pattern,
    check_patch_nn,
    patch_extension_search,
    patch_from_descriptor,
    patch_to_descriptor,
    sft_from_descriptor,
)
from .toeplitz import decode_procedure, psi_encode

SCHEMA = "groupshift/1"

# Lower bounds for numeric options; anything below is a usage error.
_MINIMUM = {
    "radius": 0,
    "depth": 0,
    "budget": 0,
    "length_limit": 0,
    "k": 1,
    "margin": 1,
    "length": 1,
    "max_nodes": 1,
    "max_steps": 1,
    "maxlen": 2,
    "square_length": 2,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command and write its report."""
    for name, low in _MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise SchemaError(name, f"must be at least {low}")
    payload, status, text = args.handler(args)
    report = {"schema": SCHEMA, "command": args.command_name}
    report.update(payload)
    if args.fmt == "text" and text is not None:
        body = text + "\n"
    else:
        body = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        _write_text(args.out, body)
    else:
        sys.stdout.write(body)
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "command_name", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return run(args)
    except (GroupshiftError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# shared helpers


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(path, "file not found") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON ({exc})") from None


def _unwrap(obj, key: str):
    # Reports produced by this tool can be fed straight back in: when the
    # file is an envelope carrying the artifact under `key`, peel it off.
    if isinstance(obj, dict) and obj.get("schema") == SCHEMA and key in obj:
        return obj[key]
    return obj


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _ball_dot(ball) -> str:
    lines = ["digraph ball {"]
    for h in range(len(ball)):
        name = format_word(ball.elements[h]) or "1"
        lines.append(f'  n{h} [label="{name}"];')
    identity = ball.oracle.gens.identity
    for (h, sym), target in sorted(ball.edges.items()):
        if sym == identity:
            continue
        lines.append(f'  n{h} -> n{target} [label="{sym}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_grid(path: str, key: str):
    return grid_patch_from_descriptor(_unwrap(_load_json(path), "grid"), key)


def _load_context(path: str):
    """An effective-subshift context file: {"subshift": ..., "radius": n}."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SchemaError("ctx", "expected an object")
    for key in ("subshift", "radius"):
        if key not in obj:
            raise SchemaError(f"ctx.{key}", "missing")
    spec = subshift_from_descriptor(obj["subshift"], "ctx.subshift")
    radius = obj["radius"]
    if not isinstance(radius, int) or radius < 0:
        raise SchemaError("ctx.radius", "expected a non-negative integer")
    codec = make_codec(spec.group, spec.alphabet, radius)
    set_oracle = rho_set_oracle(codec, spec.forbidden)
    action_oracle = rho_action_oracle(codec, spec.forbidden)
    return standard_context(set_oracle, action_oracle, codec.kappa), codec


# ---------------------------------------------------------------------------
# group commands


def _cmd_ball(args):
    oracle = group_from_descriptor(_load_json(args.group))
    ball = cayley_ball(oracle, args.radius)
    if args.dot:
        _write_text(args.dot, _ball_dot(ball))
    payload = {
        "group": oracle.descriptor,
        "radius": ball.radius,
        "size": len(ball),
        "elements": [format_word(w) for w in ball.elements],
    }
    return payload, 0, None


def _cmd_wp(args):
    oracle = group_from_descriptor(_load_json(args.group))
    word = parse_word(args.word)
    verdict = "Identity" if oracle.is_identity(word) else "NotIdentity"
    return {"word": format_word(word), "verdict": verdict}, 0, verdict


# ---------------------------------------------------------------------------
# planar SFT commands


def _cmd_nn_check(args):
    sft = sft_from_descriptor(_load_json(args.sft))
    patch = patch_from_descriptor(_unwrap(_load_json(args.patch), "patch"))
    violations = check_patch_nn(sft, patch)
    payload = {
        "violations": [[list(cell), axis, a, b] for cell, axis, a, b in violations],
        "satisfied": violations.satisfied,
        "unchecked": violations.unchecked,
    }
    return payload, 1 if violations else 0, None


def _cmd_nn_extend(args):
    sft = sft_from_descriptor(_load_json(args.sft))
    partial = patch_from_descriptor(_unwrap(_load_json(args.patch), "patch"))
    try:
        completed = patch_extension_search(sft, partial, args.max_nodes)
    except ResourceLimit as exc:
        return {"patch": None, "failure": str(exc)}, 1, None
    if completed is None:
        return {"patch": None}, 1, None
    return {"patch": patch_to_descriptor(completed)}, 0, None


# ---------------------------------------------------------------------------
# effectiveness commands


def _cmd_oracle_query(args):
    spec = subshift_from_descriptor(_unwrap(_load_json(args.subshift), "subshift"))
    word = args.word
    radius = args.radius
    if radius is None:
        # Smallest ball that has an address for every block of the word.
        radius = 0
        codec = make_codec(spec.group, spec.alphabet, radius)
        while len(codec.ball) < max(1, len(word) // codec.kappa) and radius < 16:
            radius += 1
            codec = make_codec(spec.group, spec.alphabet, radius)
    else:
        codec = make_codec(spec.group, spec.alphabet, radius)
    oracle = rho_set_oracle(codec, spec.forbidden)
    verdict = oracle.query(word, args.budget)
    payload = {
        "word": word,
        "budget": args.budget,
        "radius": radius,
        "verdict": verdict.value,
    }
    return payload, 1 if verdict is Verdict.CERTIFIED_EMPTY else 0, verdict.value


# ---------------------------------------------------------------------------
# Toeplitz commands


def _cmd_toeplitz_encode(args):
    word = psi_encode(args.prefix, range(args.start, args.start + args.length))
    payload = {"prefix": args.prefix, "start": args.start, "length": args.length, "word": word}
    return payload, 0, word


def _cmd_toeplitz_decode(args):
    if args.file:
        layers = _load_json(args.file)
        if not isinstance(layers, dict) or not layers:
            raise SchemaError("file", "expected a non-empty object of layer words")
        decoded = {}
        for sym in sorted(layers):
            layer = layers[sym]
            if not isinstance(layer, str):
                raise SchemaError(f"file[{sym!r}]", "expected a string")
            decoded[sym] = decode_procedure(layer)
        ok = all(bits is not None for bits in decoded.values())
        return {"layers": decoded}, 0 if ok else 1, None
    word = args.word
    if word is None:
        raise SchemaError("word", "pass --word or --file")
    bits = decode_procedure(word)
    return {"word": word, "prefix": bits}, 0 if bits is not None else 1, bits or ""


# ---------------------------------------------------------------------------
# grid commands


def _cmd_grid_check(args):
    patch = _load_grid(args.grid, "grid")
    if args.dot:
        _write_text(args.dot, grid_patch_to_dot(patch))
    report = check_grid_local(patch)
    payload = {
        "violations": report.violations,
        "satisfied": report.satisfied,
        "unchecked": report.unchecked,
    }
    return payload, 0 if report.ok else 1, None


def _cmd_grid_trace(args):
    patch = _load_grid(args.grid, "grid")
    word = parse_word(args.cell)
    start = patch.ball.resolve(word)
    if start is None:
        raise SchemaError("cell", f"{format_word(word)!r} is outside the ball")
    trace = orbit_trace(patch, start, args.max_steps)
    payload = {
        "cell": format_word(patch.ball.elements[start]),
        "kind": trace.kind,
        "cells": [format_word(patch.ball.elements[c]) for c in trace.cells],
        "cycle_length": trace.cycle_length,
    }
    return payload, 1 if trace.kind == "Cycle" else 0, trace.kind


def _cmd_grid_cover(args):
    oracle = group_from_descriptor(_load_json(args.group))
    ball = cayley_ball(oracle, args.radius)
    result = path_cover_search(ball, args.margin, args.seed)
    if isinstance(result, CoverFailure):
        return {"failure": result.reason}, 1, None
    problems = result.validate(args.margin)
    payload = {
        "problems": problems,
        "succ": {
            format_word(ball.elements[h]): format_word(ball.elements[t])
            for h, t in sorted(result.succ.items())
        },
        "pred": {
            format_word(ball.elements[h]): format_word(ball.elements[t])
            for h, t in sorted(result.pred.items())
        },
    }
    try:
        derived = from_translation_action(ball, result.succ, result.pred)
    except DisplacementNotGenerator:
        derived = None
    if derived is not None:
        payload["grid"] = grid_patch_to_descriptor(derived)
        if args.dot:
            _write_text(args.dot, grid_patch_to_dot(derived))
    return payload, 1 if problems else 0, None


def _cmd_grid_seed(args):
    patch1 = _load_grid(args.grid1, "grid1")
    patch2 = _load_grid(args.grid2, "grid2")
    planar = patch_from_descriptor(
        _unwrap(_load_json(args.config), "patch"), "config"
    )
    sft = None
    if args.sft:
        sft = sft_from_descriptor(_load_json(args.sft))
    try:
        result = seed_grid_from_config(ProductGridPatch(patch1, patch2), planar, sft)
    except CycleDetected as exc:
        return {"failure": str(exc)}, 1, None
    if isinstance(result, SeedFailure):
        return {"failure": result.reason}, 1, None
    table: dict = {}
    for (h1, h2), sym in result.items():
        row = table.setdefault(format_word(patch1.ball.elements[h1]), {})
        row[format_word(patch2.ball.elements[h2])] = sym
    return {"y": table}, 0, None


# ---------------------------------------------------------------------------
# final-assembly commands


def _cmd_final_check(args):
    ctx, _ = _load_context(args.ctx)
    patch = final_patch_from_descriptor(
        _unwrap(_load_json(args.patch), "patch")
    )
    f1 = check_F1(patch, ctx, args.budget)
    results = (
        ("F1", f1),
        ("F2", check_F2(patch)),
        ("F3", check_F3(patch, ctx)),
        ("F4", check_F4(patch, ctx)),
    )
    violations = []
    for name, found in results:
        violations.extend([name, *entry] for entry in found)
    payload = {
        "violations": violations,
        "satisfied": f1.satisfied,
        "unchecked": f1.unchecked,
    }
    return payload, 1 if violations else 0, None


def _cmd_final_witness(args):
    ctx, _ = _load_context(args.ctx)
    oracle = group_from_descriptor(_load_json(args.group))
    g_ball = cayley_ball(oracle, args.radius)
    shell = cayley_ball(oracle, args.radius + 1)
    raw = _load_json(args.prefixes)
    if not isinstance(raw, dict):
        raise SchemaError("prefixes", "expected an object of word -> bits")
    prefixes = {}
    for text in sorted(raw):
        index = shell.resolve(parse_word(text))
        if index is None:
            raise SchemaError(
                f"prefixes[{text!r}]", "names an element outside the extended ball"
            )
        prefixes[shell.elements[index]] = raw[text]
    patch1 = _load_grid(args.grid1, "grid1")
    patch2 = _load_grid(args.grid2, "grid2")
    try:
        result = witness_construct(
            ctx, g_ball, prefixes, ProductGridPatch(patch1, patch2)
        )
    except CycleDetected as exc:
        return {"failure": str(exc)}, 1, None
    if isinstance(result, SeedFailure):
        return {"failure": result.reason}, 1, None
    return {"patch": final_patch_to_descriptor(result)}, 0, None


def _cmd_final_phi(args):
    ctx, _ = _load_context(args.ctx)
    patch = final_patch_from_descriptor(
        _unwrap(_load_json(args.patch), "patch")
    )
    at = parse_word(args.at)
    try:
        prefix = factor_phi(patch, ctx, args.depth, at=at)
    except UndecodableWindow as exc:
        return {"prefix": None, "error": str(exc)}, 1, ""
    return {"prefix": prefix, "at": format_word(at)}, 0, prefix


def _cmd_final_project(args):
    ctx, codec = _load_context(args.ctx)
    patch = final_patch_from_descriptor(
        _unwrap(_load_json(args.patch), "patch")
    )
    projection = hat_phi_project(patch, ctx, codec)
    table: dict = {}
    undetermined = 0
    for (g, h1, h2), sym in projection.items():
        slice_ = patch.omega[g]
        g_text = format_word(patch.g_ball.elements[g])
        h1_text = format_word(slice_.patch1.ball.elements[h1])
        h2_text = format_word(slice_.patch2.ball.elements[h2])
        if sym is UNDETERMINED:
            sym = None
            undetermined += 1
        table.setdefault(g_text, {}).setdefault(h1_text, {})[h2_text] = sym
    payload = {
        "projection": table,
        "determined": len(projection) - undetermined,
        "undetermined": undetermined,
    }
    status = 0
    if args.pattern:
        raw = _load_json(args.pattern)
        if not isinstance(raw, dict):
            raise SchemaError("pattern", "expected an object of word -> symbol")
        pattern = Pattern.from_pairs(
            [(parse_word(text), raw[text]) for text in sorted(raw)]
        )
        matches = projective_check(patch, projection, pattern)
        payload["matches"] = matches
        status = 0 if matches else 1
    return payload, status, None


# ---------------------------------------------------------------------------
# aperiodicity commands


def _cmd_aperiodic_color(args):
    oracle = group_from_descriptor(_load_json(args.group))
    ball = cayley_ball(oracle, args.radius)
    try:
        result = square_free_search(ball, args.k, args.maxlen, args.budget)
    except ResourceLimit as exc:
        return {"failure": str(exc)}, 1, None
    if isinstance(result, ColoringFailure):
        return {"failure": result.reason}, 1, None
    return {"coloring": colored_ball_to_descriptor(result)}, 0, None


def _cmd_aperiodic_verify(args):
    colored = colored_ball_from_descriptor(
        _unwrap(_load_json(args.coloring), "coloring")
    )
    try:
        offending = square_free_verify(colored, args.maxlen, args.budget)
    except ResourceLimit as exc:
        return {"failure": str(exc)}, 1, None
    flagged = {cell for path in offending for cell in path}
    payload = {
        "violations": [
            [format_word(colored.ball.elements[cell]) for cell in path]
            for path in offending
        ],
        "satisfied": len(colored.ball) - len(flagged),
        "unchecked": 0,
    }
    return payload, 1 if offending else 0, None


def _cmd_aperiodic_probe(args):
    factors = [
        colored_ball_from_descriptor(
            _unwrap(_load_json(path), "coloring"), f"coloring[{i}]"
        )
        for i, path in enumerate(args.coloring)
    ]
    try:
        report = product_aperiodicity_probe(
            factors, args.length_limit, args.square_length, args.budget
        )
    except ResourceLimit as exc:
        return {"failure": str(exc)}, 1, None
    entries = [
        {
            "components": [format_word(component) for component in entry.candidate.components],
            "status": entry.status.value,
            "broken_by": entry.broken_by,
        }
        for entry in report.entries
    ]
    payload = {
        "entries": entries,
        "factor_violations": list(report.factor_violations),
        "ok": report.ok,
    }
    return payload, 0 if report.ok else 1, None


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument(
        "--format", dest="fmt", choices=("json", "text"), default="json",
        help="report format",
    )

    parser = argparse.ArgumentParser(
        prog="groupshift",
        description="Group-action shift spaces: balls, oracles, grids, assemblies.",
    )
    top = parser.add_subparsers(dest="command")

    def leaf(group, command, handler, **kwargs):
        sub = group.add_parser(command.split()[-1], parents=[common], **kwargs)
        sub.set_defaults(command_name=command, handler=handler)
        return sub

    def nested(name, help_text):
        sub = top.add_parser(name, help=help_text)
        return sub.add_subparsers(dest="subcommand")

    ball = leaf(top, "ball", _cmd_ball, help="enumerate a Cayley ball")
    ball.add_argument("--group", required=True, help="group descriptor file")
    ball.add_argument("--radius", type=int, required=True)
    ball.add_argument("--dot", help="also write the ball graph as DOT")

    wp = leaf(top, "wp", _cmd_wp, help="decide whether a word is the identity")
    wp.add_argument("--group", required=True, help="group descriptor file")
    wp.add_argument("--word", required=True, help="generator word, symbols space-separated")

    nn = nested("nn", "planar nearest-neighbour SFT patches")
    nn_check = leaf(nn, "nn check", _cmd_nn_check, help="check a patch against an SFT")
    nn_check.add_argument("--sft", required=True)
    nn_check.add_argument("--patch", required=True)
    nn_extend = leaf(nn, "nn extend", _cmd_nn_extend, help="complete a partial patch")
    nn_extend.add_argument("--sft", required=True)
    nn_extend.add_argument("--patch", required=True)
    nn_extend.add_argument("--max-nodes", dest="max_nodes", type=int, default=200_000)

    oracle = nested("oracle", "budgeted subshift oracles")
    query = leaf(oracle, "oracle query", _cmd_oracle_query, help="query a coded-set oracle")
    query.add_argument("--subshift", required=True, help="subshift descriptor file")
    query.add_argument("--word", required=True, help="binary coding word")
    query.add_argument("--budget", type=int, required=True)
    query.add_argument("--radius", type=int, help="codec ball radius (default: fits the word)")

    toeplitz = nested("toeplitz", "almost-periodic bit spreading")
    encode = leaf(toeplitz, "toeplitz encode", _cmd_toeplitz_encode,
                  help="spread a prefix over positions")
    encode.add_argument("--prefix", required=True, help="bit string to spread")
    encode.add_argument("--from", dest="start", type=int, required=True, help="first position")
    encode.add_argument("--len", dest="length", type=int, required=True, help="window length")
    decode = leaf(toeplitz, "toeplitz decode", _cmd_toeplitz_decode,
                  help="recover a prefix from a window")
    decode.add_argument("--word", help="window text")
    decode.add_argument("--file", help="JSON file of per-layer windows")

    grid = nested("grid", "translation-structured labelled balls")
    grid_check = leaf(grid, "grid check", _cmd_grid_check, help="check grid labels locally")
    grid_check.add_argument("--grid", required=True, help="grid patch descriptor file")
    grid_check.add_argument("--dot", help="also write the successor graph as DOT")
    trace = leaf(grid, "grid trace", _cmd_grid_trace, help="follow successor labels from a cell")
    trace.add_argument("--grid", required=True)
    trace.add_argument("--cell", default="", help="start cell as a word (default: identity)")
    trace.add_argument("--max-steps", dest="max_steps", type=int, default=10_000)
    cover = leaf(grid, "grid cover", _cmd_grid_cover,
                 help="search for a deep path cover of a ball")
    cover.add_argument("--group", required=True)
    cover.add_argument("--radius", type=int, required=True)
    cover.add_argument("--margin", type=int, default=2)
    cover.add_argument("--seed", type=int, default=0, help="seed for the cover repair loop")
    cover.add_argument("--dot", help="write the derived grid as DOT when labels exist")
    seed_cmd = leaf(grid, "grid seed", _cmd_grid_seed,
                    help="spread a planar patch over a product ball")
    seed_cmd.add_argument("--grid1", required=True)
    seed_cmd.add_argument("--grid2", required=True)
    seed_cmd.add_argument("--config", required=True, help="planar patch descriptor file")
    seed_cmd.add_argument("--sft", help="optional local rule the configuration must satisfy")

    final = nested("final", "assembled product-extension patches")
    final_check = leaf(final, "final check", _cmd_final_check,
                       help="run the four local checker families")
    final_check.add_argument("--ctx", required=True, help="context file: subshift + codec radius")
    final_check.add_argument("--patch", required=True)
    final_check.add_argument("--budget", type=int, default=10_000)
    witness = leaf(final, "final witness", _cmd_final_witness,
                   help="assemble a patch from prefixes")
    witness.add_argument("--ctx", required=True)
    witness.add_argument("--group", required=True)
    witness.add_argument("--radius", type=int, required=True)
    witness.add_argument("--prefixes", required=True, help="JSON file of word -> bits")
    witness.add_argument("--grid1", required=True)
    witness.add_argument("--grid2", required=True)
    phi = leaf(final, "final phi", _cmd_final_phi, help="read the factor-map prefix off a patch")
    phi.add_argument("--ctx", required=True)
    phi.add_argument("--patch", required=True)
    phi.add_argument("--depth", type=int, required=True)
    phi.add_argument("--at", default="", help="slice to read from (default: identity)")
    project = leaf(final, "final project", _cmd_final_project,
                   help="project a patch to alphabet symbols")
    project.add_argument("--ctx", required=True)
    project.add_argument("--patch", required=True)
    project.add_argument("--pattern", help="expected word -> symbol JSON to compare against")

    aperiodic = nested("aperiodic", "repetition-free colorings")
    color = leaf(aperiodic, "aperiodic color", _cmd_aperiodic_color,
                 help="search for a square-free coloring")
    color.add_argument("--group", required=True)
    color.add_argument("--radius", type=int, required=True)
    color.add_argument("-k", dest="k", type=int, required=True, help="number of colors")
    color.add_argument("--maxlen", type=int, required=True, help="largest checked path length")
    color.add_argument("--budget", type=int)
    verify = leaf(aperiodic, "aperiodic verify", _cmd_aperiodic_verify,
                  help="re-verify a stored coloring")
    verify.add_argument("--coloring", required=True)
    verify.add_argument("--maxlen", type=int, required=True)
    verify.add_argument("--budget", type=int)
    probe = leaf(aperiodic, "aperiodic probe", _cmd_aperiodic_probe,
                 help="probe a product for short periods")
    probe.add_argument(
        "--coloring", action="append", required=True,
        help="colored-ball file; repeat once per factor",
    )
    probe.add_argument("--length-limit", dest="length_limit", type=int, required=True)
    probe.add_argument("--square-length", dest="square_length", type=int, required=True)
    probe.add_argument("--budget", type=int)

    return parser


if __name__ == "__main__":
    sys.exit(main())
