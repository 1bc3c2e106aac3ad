"""One benchmark process: a ``gasket-szego`` CLI job, the sweep worker, or an
environment probe.  The driver starts it with the BLAS thread cap already in
the environment and the checkout's ``src`` on ``PYTHONPATH``.

    python3 perfbench/child.py REPORT TRACE cli <gasket-szego arguments>
    python3 perfbench/child.py REPORT TRACE sweep PLAN
    python3 perfbench/child.py REPORT 0 probe
    python3 perfbench/child.py REPORT 0 import

Before it records when its imports finished, it imports only what a
``gasket-szego`` process does, ``gasket_szego.cli``; each CLI command imports
its own modules, and numpy, when it runs, so a CLI job's set-up is
interpreter start plus the CLI's import.  The sweep worker and the probe
import what they need after that point.  With TRACE = 1 it installs the span
wrappers, which import every traced module, also after that point.  It writes
REPORT (JSON) before it exits.
"""
from __future__ import annotations

import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import gasket_szego  # noqa: E402
from gasket_szego import cli  # noqa: E402

IMPORT_DONE = time.perf_counter()


def _jsonable(x):
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(x, numpy.generic):
        return x.item()
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_cap": os.environ.get("GASKET_SZEGO_THREADS"),
    }


def _cache_calls() -> tuple[int, int]:
    """level_basis cache counters; zero while no job has loaded eigenbasis."""
    eigenbasis = sys.modules.get("gasket_szego.eigenbasis")
    if eigenbasis is None:
        return 0, 0
    info = eigenbasis.level_basis.cache_info()
    return info.hits, info.misses


def _sweep(plan: dict, recorder, report: dict) -> None:
    from gasket_szego import eigenbasis
    from sweep_jobs import run_job

    if recorder:
        recorder.job = "setup"
    for m in plan["levels"]:
        eigenbasis.level_basis(m)
    report["setup_done"] = time.perf_counter()
    jobs = report["jobs"] = []

    def run_cycle(warmup: bool) -> None:
        for job in plan["cycle"]:
            if recorder:
                recorder.job = "warmup" if warmup else len(jobs)
            t0 = time.perf_counter()
            try:
                entry = {"id": job["id"], "numbers": run_job(job)}
            except Exception:  # a failed job is counted, the run goes on
                entry = {"id": job["id"], "error": traceback.format_exc()}
            entry["wall"] = time.perf_counter() - t0
            entry["warmup"] = warmup
            jobs.append(entry)

    for _ in range(plan["warmup_cycles"]):
        run_cycle(warmup=True)
    if plan["cycles"] is not None:
        for _ in range(plan["cycles"]):
            run_cycle(warmup=False)
        return
    # whole cycles until both the time and the job count are reached
    start, warm = time.perf_counter(), len(jobs)
    while True:
        run_cycle(warmup=False)
        if (time.perf_counter() - start >= plan["seconds"]
                and len(jobs) - warm >= plan["min_jobs"]):
            return


def main(argv: list[str]) -> int:
    report_path, trace, mode, rest = argv[0], argv[1] == "1", argv[2], argv[3:]
    package_dir = Path(gasket_szego.__file__).resolve().parent
    if package_dir != ROOT / "src" / "gasket_szego":
        print(f"child: imported gasket_szego from {package_dir}, not from "
              f"this checkout", file=sys.stderr)
        return 3
    recorder = None
    if trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    report = {"import_done": IMPORT_DONE}
    hits0, misses0 = _cache_calls()
    status = 0
    try:
        if mode == "cli":
            if recorder:
                recorder.job = rest[0]
            status = cli.main(rest)
        elif mode == "sweep":
            _sweep(json.loads(Path(rest[0]).read_text()), recorder, report)
        elif mode == "probe":
            report["environment"] = _environment()
        elif mode == "import":
            pass  # set-up only: the report holds import_done
        else:
            raise SystemExit(f"child: unknown mode {mode!r}")
    finally:
        hits1, misses1 = _cache_calls()
        report["level_basis"] = {"hits": hits1 - hits0,
                                 "misses": misses1 - misses0}
        report["spans"] = recorder.spans if recorder else []
        Path(report_path).write_text(json.dumps(report, default=_jsonable))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
