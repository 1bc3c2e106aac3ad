"""Output checks: what a job produced, reduced to numbers, against references.

The references in ``reference/`` were produced by ``reference.py`` from the
program as it stood when the benchmark was defined.  Floats are compared with
a tolerance, not byte equality, because an exact faster path may move the
17th digit: relative REL_TOL, plus an absolute floor ABS_TOL for values at
rounding-noise level.  The references hold zeros and abs errors of 1e-16 to
4e-15 (differences of O(1) numbers, pure rounding); the smallest value above
that is 1.4e-9, which the floor lets move by at most 0.007%.  Between one
and two BLAS threads these values moved by at most 2.4e-14 absolute.  The
Lipschitz jobs have a looser relative tolerance (``REL_TOL_BY_KIND``): their
one number is a difference quotient over a perturbation of size 0.05, which
magnifies rounding, and it moved by 2.7e-9 relative between one and two
threads.  Integers, booleans and names must match exactly.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-13
REL_TOL_BY_KIND = {"lipschitz": 1e-7}
SPECTRUM_SAMPLES = 33
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str) -> tuple[dict, dict]:
    """The reference outputs and wall times of every job of a workload."""
    walls = json.loads((REFERENCE_DIR / "walls.json").read_text())[workload]
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text()), walls


def rel_tol(job_id: str) -> float:
    """The relative tolerance of a job, by the kind its id starts with."""
    return REL_TOL_BY_KIND.get(job_id.split("/")[0], REL_TOL)


def matches(got, ref, tol: float = REL_TOL) -> bool:
    """Same shape; floats within relative ``tol`` (ABS_TOL near zero) of the
    reference, the rest equal."""
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(matches(g, r, tol) for g, r in zip(got, ref)))
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(matches(got[k], ref[k], tol) for k in ref))
    if isinstance(ref, float):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isclose(got, ref, rel_tol=tol, abs_tol=ABS_TOL))
    return type(got) is type(ref) and got == ref


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _numbers(path: Path) -> list[float]:
    return [float(x) for row in _csv_rows(path)[1:] for x in row]


def cli_numbers(command: str, out_dir: Path):
    """What a CLI job wrote, reduced to what the reference stores."""
    if command == "validate":
        rows = _csv_rows(out_dir / "validate.csv")[1:]
        return {"checks": [r[0] for r in rows],
                "passed": all(r[1] == "PASS" for r in rows)}
    if command in ("szego-trace", "szego-det"):
        return _numbers(out_dir / "report.csv")
    if command == "clusters":
        return {name: _numbers(out_dir / name)
                for name in ("clusters.csv", "moments.csv", "weak_limit.csv")}
    if command == "spectrum":
        return spectrum_summary(out_dir / "spectrum.csv")
    raise ValueError(f"no check for command {command!r}")


def spectrum_summary(path: Path) -> dict:
    """Record count, footer, a hash of the exact columns, and value samples."""
    text = path.read_text(encoding="utf-8").splitlines()
    footer = [line for line in text if line.startswith("# d_lambda,")]
    rows = _csv_rows(path)[1:]
    values = [float(r[0]) for r in rows]
    keys = "\n".join(",".join(r[1:]) for r in rows).encode()
    step = max(1, (len(values) - 1) // (SPECTRUM_SAMPLES - 1))
    return {
        "records": len(rows),
        "d_lambda": int(footer[0].split(",")[1]) if footer else -1,
        "keys_sha256": hashlib.sha256(keys).hexdigest(),
        "value_sum": math.fsum(values),
        "samples": values[::step] + values[-1:],
    }


def cli_outputs(out_dir: Path) -> dict[str, bytes]:
    """Output files whose bytes must repeat; the manifest holds timings."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}
