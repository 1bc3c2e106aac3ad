"""Deterministic text serialization helpers.

All floating-point output uses 17 significant digits so that re-parsing
reproduces the exact float64 bit pattern and reruns are byte-identical.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path


def fmt(x) -> str:
    """Render a scalar with a stable, round-trippable representation."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
