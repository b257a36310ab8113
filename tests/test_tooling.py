"""The benchmark's tracer finds every library function it wraps and sees
every decode, its in-process workloads run against the library, the CLI's
imports stay free of modules that slow every process start, and each
decision has one owner in the source."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
SRC = ROOT / "src"


def timed_targets():
    """The "module:attribute" targets of `TIMED`, read from the source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets
        ):
            return [where for _, where, _, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no TIMED table")


def test_every_traced_groupshift_target_resolves():
    # A deleted or renamed target would stop `--trace 1` runs with an
    # AttributeError or KeyError, or trace nothing at all.
    targets = [w for w in timed_targets() if w.startswith("groupshift.")]
    assert targets
    for where in targets:
        module_name, _, attr = where.partition(":")
        module = importlib.import_module(module_name)
        if "." not in attr:
            assert callable(getattr(module, attr, None)), where
            continue
        cls_name, method = attr.split(".")
        if cls_name == "*":
            # The tracer wraps every group oracle class that defines it.
            owners = [
                cls
                for cls in vars(module).values()
                if inspect.isclass(cls) and issubclass(cls, module.GroupOracle) and method in vars(cls)
            ]
            assert owners, where
        else:
            assert method in vars(getattr(module, cls_name)), where


def test_only_the_base_oracle_defines_canonical_key():
    # Every group keys a word by folding its `key_step` from its identity
    # key; a class with a `canonical_key` of its own would be a second
    # mechanism beside that one.
    groups = importlib.import_module("groupshift.groups")
    owners = [
        name
        for name, cls in vars(groups).items()
        if inspect.isclass(cls) and "canonical_key" in vars(cls)
    ]
    assert owners == ["GroupOracle"]


def test_one_budget_and_no_hand_rolled_step_counter():
    # Searches and oracles spend one `Budget` class; a `nonlocal` counter
    # in a nested loop would be a second budget idiom beside it.
    effective = importlib.import_module("groupshift.effective")
    shiftcore = importlib.import_module("groupshift.shiftcore")
    assert effective.Budget is shiftcore.Budget
    holders = [
        path.name
        for path in sorted((SRC / "groupshift").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Nonlocal)
    ]
    assert holders == []


def test_only_grid_walks_the_labels():
    # `grid` turns labels into chain coordinates and row windows; a module
    # that stepped along `right` or `left` itself, or called `_walk_line`,
    # would be a second owner of those reads.
    walkers = [
        f"{path.stem}:{node.lineno}"
        for path in sorted((SRC / "groupshift").glob("*.py"))
        if path.name != "grid.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("right", "left", "_walk_line"))
        or (isinstance(node, ast.Name) and node.id == "_walk_line")
        or (isinstance(node, ast.alias) and node.name == "_walk_line")
    ]
    assert walkers == []


def test_descriptor_fields_are_read_through_the_errors_readers():
    # `errors` holds the typed readers: `read_int` alone tells a JSON
    # integer from a boolean, and `need` and the readers raise the schema
    # errors.  A descriptor reader that tested `type(v) is int` itself, or
    # raised a SchemaError of its own outside an `except` that re-words a
    # library fault, would be a second owner of those reads.
    scoped, found = [], []
    for path in sorted((SRC / "groupshift").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef) or not (
                func.name.endswith("_from_descriptor")
                or func.name.startswith("_cmd_")
                or func.name in ("cells_from_words", "_load_context")
            ):
                continue
            scoped.append(func.name)
            handled = {
                id(node)
                for handler in ast.walk(func)
                if isinstance(handler, ast.ExceptHandler)
                for node in ast.walk(handler)
            }
            for node in ast.walk(func):
                where = f"{path.stem}.{func.name}:{getattr(node, 'lineno', 0)}"
                if (
                    isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Call)
                    and isinstance(node.left.func, ast.Name)
                    and node.left.func.id == "type"
                    and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                    and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)
                ):
                    found.append(f"{where} type test")
                if (
                    isinstance(node, ast.Raise)
                    and id(node) not in handled
                    and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id == "SchemaError"
                ):
                    found.append(f"{where} raise")
    readers = {
        "group_from_descriptor", "ball_from_descriptor", "cells_from_words",
        "sft_from_descriptor", "patch_from_descriptor", "subshift_from_descriptor",
        "grid_patch_from_descriptor", "final_patch_from_descriptor",
        "colored_ball_from_descriptor", "_load_context", "_cmd_toeplitz_decode",
    }
    assert readers <= set(scoped)
    assert found == []


def test_no_memo_outlives_a_call():
    # The checkers memoise within one call and keep nothing after it: a
    # process-wide cache, or a container bound at module level, would carry
    # results from one call, or one input, to the next.  `cli._MINIMUM` is
    # a constant table of option bounds.
    caches, containers = [], []
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    for path in sorted((SRC / "groupshift").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "functools" else []
            else:
                continue
            caches += [f"{path.stem}.{name}" for name in names if name in ("cache", "lru_cache")]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            value = node.value
            call = isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            if isinstance(value, displays) or (call and value.func.id in ("dict", "list", "set")):
                containers += [f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)]
    assert caches == []
    assert containers == ["cli._MINIMUM"]


def loaded_modules(*imports):
    """The `sys.modules` names of a fresh interpreter after the imports."""
    code = "".join(f"import {name}\n" for name in imports) + "import sys\nprint(*sorted(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def test_cli_import_does_not_load_dataclasses_or_inspect():
    # Both modules cost every groupshift process start-up time: `inspect`
    # drags in `ast`, `dis` and `tokenize`, and every dataclass execs its
    # generated methods.  A bare interpreter may already load them.
    bare = loaded_modules()
    cli = loaded_modules("groupshift.cli")
    assert "groupshift.cli" in cli
    assert {"dataclasses", "inspect"} & cli <= bare


BENCH = ROOT / "bench"


@pytest.mark.parametrize(
    "module", ["workloads.assembly", "workloads.geometry", "workloads.oracle_stream"]
)
def test_in_process_benchmark_workloads_run_and_check_one_job(module, tmp_path, monkeypatch):
    # The benchmark's workloads call the library as a user would; a change
    # of the API they use fails here, not first in a benchmark run.  The
    # `--quick` job list of `group-geometry` includes a cover job.
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module(module).Workload(0, 1, str(tmp_path))
    workload.quick()
    workload.prepare()
    for spec in workload.jobs:
        job = workload.inputs(spec)
        attempted, failed = workload.check(job, workload.run(job))
        assert attempted > 0 and failed == 0


def test_the_tracer_sees_every_decode_of_F1(monkeypatch):
    # `toeplitz.decodes` counts calls of `decode_procedure`, wrapped as
    # bench/tracing.py wraps it: every module attribute bound to it is
    # rebound.  A second decoder that F1 called instead would hide its
    # decodes from that row.
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    from test_assembly import f1_windows, golden_witness, layered

    from groupshift import assembly, toeplitz

    seen = set()
    original = toeplitz.decode_procedure

    def wrapper(word):
        seen.add(word)
        return original(word)

    for module in list(sys.modules.values()):
        if module is None:
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, wrapper)
    patch, ctx, _ = golden_witness()
    strings = {
        word for _, _, symbols in f1_windows(patch) for word in layered(ctx, symbols).layers.values()
    }
    assert strings and assembly.check_F1(patch, ctx) == []
    assert strings <= seen
