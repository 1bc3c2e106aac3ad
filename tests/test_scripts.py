"""Smoke tests: each script runs at a small size and exits 0."""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("spectrum_table.py", ["--cutoff", "500"]),
        ("riesz_szego_sweep.py", ["--m", "3"]),
        ("cluster_demo.py", ["--m", "3"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_mutation_harness_smoke(tmp_path):
    # two mutants of a small module against one quick test file: the
    # report is written, and the checkout and the work copy are untouched
    # and removed respectively
    module = ROOT / "src" / "gasket_szego" / "serialize.py"
    before = module.read_bytes()
    out = tmp_path / "survivors.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"),
         "--modules", "gasket_szego.serialize", "--seed", "0", "--count", "2",
         "--timeout", "120", "--out", str(out), "--workdir", str(tmp_path),
         "--tests", "tests/test_imports.py"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["mutants"] == len(report["results"]) == 2
    assert report["killed"] + len(report["survivors"]) == 2
    assert all(r["outcome"] in ("killed", "survived", "timeout")
               for r in report["results"])
    assert module.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["survivors.json"]


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_score_counts_only_test_failures():
    # a timed-out mutant is no kill: the score is the kills over the
    # mutants the tests decided, and the timeout is listed for a rerun
    outcomes = ["killed", "killed", "killed", "survived", "timeout"]
    results = [{"line": i, "outcome": o} for i, o in enumerate(outcomes)]
    report = _load_mutants()._score(results)
    assert (report["mutants"], report["killed"], report["timeouts"]) == (5, 3, 1)
    assert report["score"] == 3 / 4
    assert [r["outcome"] for r in report["survivors"]] == ["survived", "timeout"]
    assert report["results"] == results
    everything_timed_out = _load_mutants()._score([{"outcome": "timeout"}])
    assert everything_timed_out["score"] is None
    assert everything_timed_out["killed"] == 0


def test_every_equivalent_mutant_names_a_line_of_its_module():
    # an entry whose line is gone, or moved out of its function, names no
    # mutant the harness can draw: each `code` is a stripped source line of
    # its `module`, inside its `function` when one is named
    entries = json.loads((ROOT / "scripts" / "mutants_equivalent.json").read_text())
    assert entries
    for entry in entries:
        source = (ROOT / entry["module"]).read_text(encoding="utf-8")
        lines = source.splitlines()
        span = range(1, len(lines) + 1)
        if entry["function"] is not None:
            span = _load_mutants()._function_lines(ast.parse(source), entry["function"])
        assert entry["code"] in {lines[i - 1].strip() for i in span}, entry


_TWINS = "def f(x):\n    return x.reshape(3, -1)\n\n\ndef g(x):\n    return x.reshape(3, -1)\n"


def test_listed_equivalent_sites_are_never_drawn():
    # a listed (module, line, mutation) site is dropped before sampling, so
    # it is neither drawn as a survivor again nor scored as killed by the
    # test of the list's lines; the line's other mutations, and the same
    # line in another function, are kept
    mutants = _load_mutants()
    sites = mutants._sites(ast.parse(_TWINS))
    nodes = list(ast.walk(ast.parse(_TWINS)))
    entry = {"module": "pkg/m.py", "function": "f",
             "code": "return x.reshape(3, -1)", "mutation": "1 -> 2"}

    def drawn(entries, rel="pkg/m.py"):
        return [(nodes[i].lineno, mutants._what(nodes[i], kind))
                for i, kind in mutants._unlisted(Path(rel), _TWINS, sites, entries)]

    assert len(sites) == 6
    assert sorted(drawn([])) == sorted(
        (line, what) for line in (2, 6) for what in ("3 -> 4", "drop USub", "1 -> 2"))
    assert sorted(drawn([entry])) == sorted(set(drawn([])) - {(2, "1 -> 2")})
    assert sorted(drawn([{**entry, "function": None}])) == sorted(
        set(drawn([])) - {(2, "1 -> 2"), (6, "1 -> 2")})
    assert drawn([entry], rel="pkg/other.py") == drawn([])
    assert drawn([{**entry, "mutation": "1 -> 3"}]) == drawn([])


def test_every_equivalent_mutant_is_skipped():
    # each entry of the committed list names at least one site of its
    # module, and the harness drops it
    mutants = _load_mutants()
    entries = json.loads((ROOT / "scripts" / "mutants_equivalent.json").read_text())
    for entry in entries:
        rel = Path(entry["module"])
        source = (ROOT / rel).read_text(encoding="utf-8")
        sites = mutants._sites(ast.parse(source))
        assert len(mutants._unlisted(rel, source, sites, [entry])) < len(sites), entry
