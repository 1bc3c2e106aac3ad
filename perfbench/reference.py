"""Write the reference outputs and wall times the benchmark checks against.

    python3 perfbench/reference.py

Runs every input any seed can draw through the same child processes as the
benchmark, and stores what each produced in ``reference/<workload>.json`` and
its median wall time in ``reference/walls.json``.  The benchmark's
``job_time_ratio_p50`` divides each job's wall time by the time stored here,
so the median is taken over comparable numbers even where jobs differ in size.
Short jobs run several rounds (the whole list once per round) and store the
median, so that one slow moment does not skew a job's base; every round must
give the same outputs.
Run it from the root of a checkout of the commit whose outputs are the
reference.
"""
from __future__ import annotations

import json
import shutil
import statistics
import sys

import workloads
from checks import REFERENCE_DIR
from run import WARMUP_CONFIG, WORKLOADS, Run

# rounds per workload; one level7-cli round already takes about four minutes
SPECTRUM_ROUNDS = 3
SWEEP_ROUNDS = 5


def _median_walls(samples: dict[str, list[float]]) -> dict[str, float]:
    return {key: statistics.median(v) for key, v in samples.items()}


def _cli_reference(run: Run, jobs: dict[str, tuple[str, dict]], rounds: int):
    numbers, samples = {}, {}
    for _ in range(rounds):
        for key, (command, config) in jobs.items():
            p = run.cli_job(key, command, config, None)
            if p["status"] != 0:
                raise SystemExit(f"{key} failed: {p['stderr']}")
            if numbers.setdefault(key, p["numbers"]) != p["numbers"]:
                raise SystemExit(f"{key}: outputs differ between rounds")
            samples.setdefault(key, []).append(p["wall"])
            print(f"{key}: {p['wall']:.3f} s", flush=True)
    return numbers, _median_walls(samples)


def level7_reference(run: Run):
    run.cli_job("warmup", "szego-trace", WARMUP_CONFIG, None, counted=False)
    return _cli_reference(run, {
        f"{cmd}/v{v}": (cmd, config)
        for cmd, variants in workloads.LEVEL7_VARIANTS.items()
        for v, config in enumerate(variants)
    }, rounds=1)


def sweep_reference(run: Run):
    plan = {"levels": list(workloads.SWEEP_LEVELS),
            "cycle": workloads.sweep_catalogue(), "warmup_cycles": 1,
            "cycles": SWEEP_ROUNDS}
    plan_path = run.dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    p = run.launch("sweep", [str(plan_path)])
    jobs = [j for j in p["report"].get("jobs", []) if not j["warmup"]]
    errors = [j["error"] for j in jobs if "error" in j]
    if p["status"] != 0 or errors or not jobs:
        raise SystemExit(f"sweep reference failed: {p['stderr']} {errors[:1]}")
    numbers, samples = {}, {}
    for j in jobs:
        if numbers.setdefault(j["id"], j["numbers"]) != j["numbers"]:
            raise SystemExit(f"{j['id']}: outputs differ between rounds")
        samples.setdefault(j["id"], []).append(j["wall"])
    return numbers, _median_walls(samples)


def spectrum_reference(run: Run):
    run.cli_job("warmup", "spectrum",
                {"cutoff": workloads.SPECTRUM_WARMUP_CUTOFF}, None,
                counted=False)
    return _cli_reference(run, {
        f"{c:.17g}": ("spectrum", {"cutoff": c})
        for c in workloads.spectrum_cutoffs()
    }, rounds=SPECTRUM_ROUNDS)


BUILDERS = {"level7-cli": level7_reference, "sweep-warm": sweep_reference,
            "spectrum-deep": spectrum_reference}


def _write(path, mapping: dict) -> None:
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(mapping.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    all_walls = {}
    for name in WORKLOADS:
        run = Run(f"reference-{name}")
        try:
            numbers, all_walls[name] = BUILDERS[name](run)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        _write(REFERENCE_DIR / f"{name}.json", numbers)
    _write(REFERENCE_DIR / "walls.json", all_walls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
