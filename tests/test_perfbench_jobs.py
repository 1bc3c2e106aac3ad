"""Every sweep-warm API job of the benchmark runs and matches its reference.

The benchmark calls the package's API by name and with fixed arguments, so a
change that breaks one of those calls, or moves one of its numbers past the
benchmark's tolerance, fails here and not only when the benchmark runs.
"""
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_jobs_match_the_reference():
    workloads, sweep_jobs, checks = (
        _load(name) for name in ("workloads", "sweep_jobs", "checks")
    )
    ref, _ = checks.load_reference("sweep-warm")
    jobs = workloads.sweep_catalogue()
    assert {job["id"] for job in jobs} == ref.keys()
    failed = [
        job["id"] for job in jobs
        if not checks.matches(
            sweep_jobs.run_job(job), ref[job["id"]], checks.rel_tol(job["id"])
        )
    ]
    assert not failed
