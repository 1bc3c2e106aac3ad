#!/usr/bin/env python3
"""Mutation testing of the package: how many small faults do the tests catch?

Each mutant changes one operator or constant in one module: a comparison
made strict or loose or negated, an arithmetic operator swapped, a boolean
connective swapped, a `not` dropped, a sign dropped, or a number nudged.
The sites are found with the standard library's `ast`, a seeded sample of
them is drawn, and each mutant is written into a copy of the repository
(never into the checkout itself), where the tests run against it with a
per-mutant timeout.  A mutant the tests pass survives, one they fail is
killed, and one that runs out of time is neither: it counts in no score.
The survivors and the timed-out mutants are written as JSON for triage
(killed by a new test, equivalent, or dead code; a timeout is run again
alone with a longer budget);
the survivors triaged as equivalent are listed in
`scripts/mutants_equivalent.json`, and their sites are never drawn.

    python scripts/mutants.py --modules gasket_szego.eigenbasis --seed 1 \\
        --count 20 --timeout 300 --out survivors.json

The copy goes under --workdir (a temporary directory by default) and is
removed at the end; --tests passes other pytest arguments (default: every
test, stopping at the first failure).
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = ROOT / "scripts" / "mutants_equivalent.json"

_COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_BINOP_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Pow: ast.Mult, ast.Mod: ast.FloorDiv,
}
_BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
_OP_SWAPS = {**_BINOP_SWAPS, **_BOOL_SWAPS}


def _sites(tree: ast.AST) -> list[tuple[int, str]]:
    """(index of the node in `ast.walk` order, mutation) for every site."""
    sites = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            sites += [(i, f"compare{j}") for j, op in enumerate(node.ops)
                      if type(op) in _COMPARE_SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINOP_SWAPS:
            sites.append((i, "binop"))
        elif isinstance(node, ast.BoolOp):
            sites.append((i, "boolop"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
            sites.append((i, "unary"))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
              and not isinstance(node.value, bool)):
            sites.append((i, "number"))
    return sites


class _Replace(ast.NodeTransformer):
    """Replace one node, found by identity, with `replace(node)`."""

    def __init__(self, target: ast.AST, replace):
        self.target, self.replace = target, replace

    def visit(self, node: ast.AST):
        node = self.generic_visit(node)
        return self.replace(node) if node is self.target else node


def _nudged(value):
    """The number a "number" mutation puts in place of `value`."""
    return value + 1 if isinstance(value, int) else (value * 2 if value else 1.0)


def _what(node: ast.AST, kind: str) -> str:
    """What mutation `kind` changes at `node`, as the survivors list it."""
    if kind.startswith("compare"):
        old = type(node.ops[int(kind.removeprefix("compare"))])
        return f"{old.__name__} -> {_COMPARE_SWAPS[old].__name__}"
    if kind in ("binop", "boolop"):
        old = type(node.op)
        return f"{old.__name__} -> {_OP_SWAPS[old].__name__}"
    if kind == "unary":
        return f"drop {type(node.op).__name__}"
    return f"{node.value!r} -> {_nudged(node.value)!r}"


def _mutate(source: str, index: int, kind: str) -> tuple[str, int, str]:
    """The source with site (index, kind) mutated, its line, and what changed."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    what = _what(node, kind)
    if kind.startswith("compare"):
        j = int(kind.removeprefix("compare"))
        node.ops[j] = _COMPARE_SWAPS[type(node.ops[j])]()
    elif kind in ("binop", "boolop"):
        node.op = _OP_SWAPS[type(node.op)]()
    elif kind == "unary":
        tree = _Replace(node, lambda unary: unary.operand).visit(tree)
    else:
        node.value = _nudged(node.value)
    return ast.unparse(tree), node.lineno, what


def _function_lines(tree: ast.AST, name: str) -> range:
    """The lines of the function `name`, its decorators included."""
    node = next(
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
    )
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def _unlisted(rel: Path, source: str, sites: list, entries: list[dict]) -> list:
    """The sites of module `rel` that no entry of the equivalent list names.

    An entry names a site when its module, its mutation and its `code`, the
    stripped line the site starts on, are the site's, and the site lies in
    its `function` when it names one.  A listed mutant is equivalent, so
    drawing it would only fail the test that checks the list's lines.
    """
    tree = ast.parse(source)
    nodes, lines = list(ast.walk(tree)), source.splitlines()
    listed = [e for e in entries if Path(e["module"]) == rel]
    spans = {e["function"]: _function_lines(tree, e["function"])
             for e in listed if e["function"] is not None}

    def named(entry: dict, node: ast.AST, kind: str) -> bool:
        return (entry["code"] == lines[node.lineno - 1].strip()
                and entry["mutation"] == _what(node, kind)
                and (entry["function"] is None or node.lineno in spans[entry["function"]]))

    return [(i, kind) for i, kind in sites
            if not any(named(e, nodes[i], kind) for e in listed)]


def _module_path(root: Path, module: str) -> Path:
    """The source file of a dotted module name under root/src, or a path."""
    path = Path(module)
    if path.suffix == ".py":
        return (root / path) if not path.is_absolute() else path
    return root / "src" / Path(*module.split(".")).with_suffix(".py")


def _run_tests(workdir: Path, tests: list[str], timeout: float) -> str:
    """'killed', 'survived' or 'timeout' for the tests run in the copy."""
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests],
            cwd=workdir,
            # no bytecode cache, which a mutant of the same size written in
            # the same second as the last would pass for its own
            env={**os.environ, "PYTHONPATH": str(workdir / "src"),
                 "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if result.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", required=True,
                        help="dotted module names (gasket_szego.eigenbasis) or paths")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=20, help="mutants to run")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds per mutant's test run")
    parser.add_argument("--out", required=True, help="JSON file for the survivors")
    parser.add_argument("--tests", nargs="*", default=["tests"],
                        help="pytest arguments, relative to the repository")
    parser.add_argument("--workdir", help="where the copy goes (default: a temp dir)")
    args = parser.parse_args(argv)

    base = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir))
    workdir = base / "repo"
    shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
    try:
        entries = json.loads(EQUIVALENT.read_text(encoding="utf-8"))
        candidates, skipped = [], 0
        for module in args.modules:
            rel = _module_path(ROOT, module).relative_to(ROOT)
            source = (ROOT / rel).read_text(encoding="utf-8")
            sites = _sites(ast.parse(source))
            kept = _unlisted(rel, source, sites, entries)
            skipped += len(sites) - len(kept)
            candidates += [(rel, source, i, kind) for i, kind in kept]
        print(f"skipped {skipped} sites listed as equivalent in {EQUIVALENT.name}",
              flush=True)
        rng = random.Random(args.seed)
        chosen = rng.sample(candidates, min(args.count, len(candidates)))
        results = []
        for rel, source, index, kind in chosen:
            mutated, line, what = _mutate(source, index, kind)
            (workdir / rel).write_text(mutated, encoding="utf-8")
            started = time.perf_counter()
            outcome = _run_tests(workdir, args.tests, args.timeout)
            (workdir / rel).write_text(source, encoding="utf-8")
            results.append({
                "module": str(rel), "line": line, "mutation": what,
                "code": source.splitlines()[line - 1].strip(),
                "outcome": outcome,
                "seconds": round(time.perf_counter() - started, 1),
            })
            print(f"{outcome:8s} {rel}:{line} {what}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    report = {"seed": args.seed, "modules": args.modules,
              "sites": len(candidates), "skipped": skipped, **_score(results)}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"killed {report['killed']} of {len(results)} mutants, "
          f"{report['timeouts']} timed out; survivors in {args.out}")
    return 0


def _score(results: list[dict]) -> dict:
    """The tally of the mutants' outcomes.  Only a test failure kills a
    mutant.  A timed-out one is neither killed nor survived: it is left out
    of the score, the kills over the mutants the tests decided, and listed
    with the survivors, to be run again alone with a longer budget."""
    killed = sum(r["outcome"] == "killed" for r in results)
    timeouts = sum(r["outcome"] == "timeout" for r in results)
    decided = len(results) - timeouts
    return {
        "mutants": len(results),
        "killed": killed,
        "timeouts": timeouts,
        "score": killed / decided if decided else None,
        "survivors": [r for r in results if r["outcome"] != "killed"],
        "results": results,
    }


if __name__ == "__main__":
    sys.exit(main())
