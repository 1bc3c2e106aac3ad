"""Benchmark of the gasket-szego batch tool and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The package is pure Python and runs
from ``src/``; nothing is built.  Every job runs in a child process
(``child.py``) with the BLAS thread cap min(2, cores) in its environment.

Workloads (inputs drawn from the seed, see ``workloads.py``):

* ``level7-cli``: ``validate``, ``szego-trace`` (full, Riesz), ``szego-det``
  (full, separable) and ``clusters`` (births 2-5) at m = 7, one process
  each.  Every job pays for the dense level basis plus one more O(n^3)
  kernel.  One pass takes about a minute, longer than ``--seconds``; passes
  repeat while time is left.
* ``sweep-warm``: one worker builds the level-5 and level-6 bases (set-up),
  then runs cycles of API jobs on them, at least 100 jobs and ``--seconds``.
* ``spectrum-deep``: ``spectrum`` processes at cutoffs from 1e9 to 1e12:
  decimation search and serialization, no BLAS.

Each workload starts with untimed warm-up work.  With ``--trace 0`` the last
line of standard output is the JSON result with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass, the tracing
overhead against untraced repeats of its jobs, each run right after the
traced job, and each threaded layer's one-thread/two-thread time ratio.
Lines before it that start with ``#`` give the environment, the per-command
times and any failures.  Run records and spans go to ``.perfbench_run/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from checks import cli_numbers, cli_outputs, load_reference, matches, rel_tol
from tracing import layer_totals

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".perfbench_run"
THREAD_CAP = min(2, os.cpu_count() or 1)
CHILD_TIMEOUT_S = 170.0
SETUP_REPEATS = 7
# level7-cli has only four job processes a run; import-only processes after
# each job give its setup_s more samples, spread over the run
LEVEL7_IMPORT_PROBES = 2
SPECTRUM_MIN_PASSES = 2
WARMUP_CONFIG = {"m": 5, "mode": "full", "lambda_grid": [100.0, 3000.0, 80000.0],
                 "symbol": {"kind": "riesz", "beta": 1.0}}

PER_LAYER = [
    "gasket.build_vertices.busy_s",
    "gasket.build_dirichlet_laplacian.busy_s",
    "gasket.build_dirichlet_laplacian.peak_mb",
    "decimation.enumerate_spectrum.busy_s",
    "decimation.enumerate_spectrum.calls",
    "decimation.enumerate_spectrum.records",
    "decimation.truncated_graph_spectrum.busy_s",
    "eigenbasis.solve_graph_spectrum.busy_s",
    "eigenbasis.solve_graph_spectrum.calls",
    "eigenbasis.solve_graph_spectrum.peak_mb",
    "eigenbasis.group_eigenspaces.busy_s",
    "eigenbasis.localized_split.busy_s",
    "eigenbasis.localized_split.calls",
    "eigenbasis.level_basis.calls",
    "eigenbasis.level_basis.hit_ratio",
    "operators.compress.busy_s",
    "operators.compress.calls",
    "operators.compress.columns",
    "operators.operator_eigenvalues.busy_s",
    "operators.operator_eigenvalues.calls",
    "operators.trace_F.self_s",
    "operators.log_det.self_s",
    "szego.szego_trace_full.self_s",
    "szego.szego_logdet_full.self_s",
    "szego.szego_trace_single_series.self_s",
    "szego.szego_logdet_single_series.self_s",
    "szego.target_integral.busy_s",
    "clusters.build_schrodinger.busy_s",
    "clusters.build_schrodinger.calls",
    "clusters.identify_clusters.busy_s",
    "clusters.cluster_moments.busy_s",
    "clusters.weak_limit_check.self_s",
    "clusters.lipschitz_check.self_s",
    "cli.run.self_s",
    "serialize.write_csv.busy_s",
    "serialize.sha256_file.busy_s",
]
# layers whose time is compared between one and two BLAS threads
THREAD_SCALING = [
    "gasket.build_dirichlet_laplacian",
    "decimation.enumerate_spectrum",
    "eigenbasis.solve_graph_spectrum",
    "operators.compress",
    "operators.operator_eigenvalues",
    "clusters.build_schrodinger",
]
# shown per traced CLI job, so per-job splits and counts can be read off
PER_JOB = [
    "eigenbasis.solve_graph_spectrum.busy_s",
    "eigenbasis.localized_split.busy_s",
    "operators.compress.busy_s",
    "clusters.build_schrodinger.calls",
    "decimation.enumerate_spectrum.busy_s",
]
UNITS = {"busy_s": "s", "self_s": "s", "calls": "count", "records": "count",
         "columns": "count", "peak_mb": "MiB", "hit_ratio": "ratio"}


class Run:
    """Child processes, output checks and failure counts of one run."""

    def __init__(self, name: str, workload: str | None = None):
        self.dir = WORK_DIR / f"{name}-{os.getpid()}"
        if workload:
            self.ref, self.ref_walls = load_reference(workload)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.children = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.first_outputs: dict[tuple, object] = {}
        self.environment: dict = {}
        self.spans: list[dict] = []

    def launch(self, mode: str, args: list[str], trace: bool = False,
               threads: int = THREAD_CAP) -> dict:
        """Run one child to its end; wall time from launch to exit."""
        self.children += 1
        n = self.children
        report = self.dir / f"report-{n}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("GASKET_SZEGO_THREADS", "OMP_NUM_THREADS",
                    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(report),
               "1" if trace else "0", mode, *args]
        err_path = self.dir / f"stderr-{n}.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        data = json.loads(report.read_text()) if report.exists() else {}
        if trace:
            self.spans.append({"child": n, "args": args, "threads": threads,
                               "spans": data.get("spans", [])})
        return {"status": proc.returncode, "t0": t0, "wall": wall,
                "rss_mb": usage.ru_maxrss / 1024, "report": data,
                "stderr": err_path.read_text(errors="replace")[-400:]}

    def fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")

    def import_probe(self) -> float:
        """Set-up time of a process that imports the CLI and exits."""
        p = self.launch("import", [])
        if p["status"] != 0:
            raise SystemExit(f"import probe failed: {p['stderr']}")
        return p["report"]["import_done"] - p["t0"]

    def probe(self) -> None:
        p = self.launch("probe", [])
        if p["status"] != 0:
            raise SystemExit(f"environment probe failed: {p['stderr']}")
        self.environment = p["report"]["environment"]

    def cli_job(self, label: str, command: str, config: dict,
                key: str | None, trace: bool = False,
                threads: int = THREAD_CAP, counted: bool = True) -> dict:
        """One ``gasket-szego`` process, checked against reference ``key``."""
        out = self.dir / f"out-{self.children + 1}"
        cfg_path = self.dir / f"config-{self.children + 1}.json"
        cfg_path.write_text(json.dumps(config))
        p = self.launch("cli", [command, "--config", str(cfg_path),
                                "--out", str(out)], trace, threads)
        p["label"] = label
        p["setup"] = p["report"].get("import_done", p["t0"]) - p["t0"]
        if key is not None:
            p["ratio"] = p["wall"] / self.ref_walls[key]
        reason = None
        if p["status"] != 0:
            reason = f"exit status {p['status']}: {p['stderr']}"
        else:
            try:
                p["numbers"] = cli_numbers(command, out)
            except (OSError, ValueError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            else:
                if key is not None and not matches(p["numbers"], self.ref[key]):
                    reason = "output differs from the reference"
                reason = reason or self._repeat_check((label, threads),
                                                      cli_outputs(out))
        shutil.rmtree(out, ignore_errors=True)
        if counted:
            self.attempted += 1
            if reason:
                self.fail(label, reason)
        return p

    def _repeat_check(self, key: tuple, outputs) -> str | None:
        """Repeats of one job at one thread count must be byte-identical."""
        first = self.first_outputs.setdefault(key, outputs)
        if first != outputs:
            return "output bytes differ from an earlier run of the same job"
        return None

    def sweep(self, plan: dict, trace: bool = False,
              threads: int = THREAD_CAP, counted: bool = True) -> dict:
        """One sweep worker; every job it ran is checked."""
        plan_path = self.dir / f"plan-{self.children + 1}.json"
        plan_path.write_text(json.dumps(plan))
        p = self.launch("sweep", [str(plan_path)], trace, threads)
        report = p["report"]
        if p["status"] != 0 or "setup_done" not in report:
            if not counted:
                raise SystemExit(f"warm-up worker failed: {p['stderr']}")
            self.attempted += 1
            self.fail("sweep worker", f"exit status {p['status']}: {p['stderr']}")
            p["setup"], p["jobs"] = None, []
            return p
        p["setup"] = report["setup_done"] - p["t0"]
        p["jobs"] = report["jobs"]
        for job in p["jobs"]:
            self.attempted += 1
            job["ratio"] = job["wall"] / self.ref_walls[job["id"]]
            if "error" in job:
                self.fail(job["id"], job["error"].strip().splitlines()[-1])
            elif not matches(job["numbers"], self.ref[job["id"]],
                             rel_tol(job["id"])):
                self.fail(job["id"], "output differs from the reference")
            else:
                reason = self._repeat_check((job["id"], threads),
                                            json.dumps(job["numbers"]))
                if reason:
                    self.fail(job["id"], reason)
        return p


# -- metrics ------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cli_end_to_end(jobs: list[dict], info: dict,
                    extra_setups: list[float] = ()) -> dict:
    walls = [p["wall"] for p in jobs]
    setups = [p["setup"] for p in jobs] + list(extra_setups)
    info["job_samples"], info["setup_samples"] = len(walls), len(setups)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "jobs_per_s": _metric(
            len(jobs) / sum(p["wall"] - p["setup"] for p in jobs), "1/s"),
        "job_time_ratio_p50": _metric(
            statistics.median(p["ratio"] for p in jobs), "ratio"),
        "peak_rss_mb": _metric(max(p["rss_mb"] for p in jobs), "MiB"),
    }


def _merge_totals(procs: list[dict], labels=None) -> dict:
    merged: dict[str, dict] = {}
    for p in procs:
        if labels is not None and p.get("label") not in labels:
            continue
        spans = [s for s in p["report"].get("spans", [])
                 if s["job"] != "warmup"]
        for name, t in layer_totals(spans).items():
            m = merged.setdefault(name, dict.fromkeys(t, 0))
            for key, value in t.items():
                m[key] = max(m[key], value) if key == "peak_mb" else m[key] + value
    return merged


def _per_job(traced: list[dict], info: dict) -> None:
    rows = {}
    for p in traced:
        totals = _merge_totals([p])
        row = {"wall_s": p["wall"]}
        for name in PER_JOB:
            layer, stat = name.rsplit(".", 1)
            row[name] = totals.get(layer, {}).get(stat, 0)
        rows[p["label"]] = row
    info["traced_jobs"] = rows


def _coverage(run: Run) -> list[dict]:
    return [run.cli_job(f"coverage-{cmd}", cmd, config, None, trace=True,
                        counted=False)
            for cmd, config in workloads.COVERAGE_JOBS]


def _layer_metrics(traced, pairs, one_thread, coverage, info: dict,
                   scaling_labels=None) -> dict:
    """Per-layer totals of the traced pass and the coverage jobs; thread
    scaling from the workload's own jobs; overhead from (traced, untraced)
    pairs of one job, run back to back so both see the same machine speed."""
    totals = _merge_totals(traced + coverage)
    metrics = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if layer == "eigenbasis.level_basis":
            cache = [p["report"].get("level_basis", {}) for p in traced + coverage]
            hits = sum(c.get("hits", 0) for c in cache)
            calls = hits + sum(c.get("misses", 0) for c in cache)
            value = calls if stat == "calls" else (hits / calls if calls else 0.0)
        else:
            value = totals.get(layer, {}).get(stat, 0)
        metrics[name] = _metric(value, UNITS[stat])
    two = _merge_totals(traced, scaling_labels)
    one = _merge_totals(one_thread)
    for layer in THREAD_SCALING:
        busy2 = two.get(layer, {}).get("busy_s", 0.0)
        busy1 = one.get(layer, {}).get("busy_s", 0.0)
        metrics[f"{layer}.speedup_2t"] = _metric(
            busy1 / busy2 if busy1 and busy2 else 0.0, "ratio")
    traced_wall = sum(t["wall"] for t, _ in pairs)
    plain_wall = sum(u["wall"] for _, u in pairs)
    info["overhead_jobs"] = len(pairs)
    info["traced_wall_s"], info["untraced_wall_s"] = traced_wall, plain_wall
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    return metrics


# -- workloads ----------------------------------------------------------------

def level7_cli(run: Run, seed: int, seconds: float, trace: bool, info: dict):
    plan = workloads.level7_plan(seed)

    def job(cmd, v, **kw):
        return run.cli_job(cmd, cmd, workloads.LEVEL7_VARIANTS[cmd][v],
                           f"{cmd}/v{v}", **kw)

    run.probe()
    run.cli_job("warmup", "szego-trace", WARMUP_CONFIG, None, counted=False)
    if trace:
        traced, pairs = [], []
        for cmd, v in plan:
            traced.append(job(cmd, v, trace=True))
            if cmd in workloads.LEVEL7_UNTRACED:
                pairs.append((traced[-1], job(cmd, v)))
        one = [job(cmd, v, trace=True, threads=1) for cmd, v in plan
               if cmd in workloads.LEVEL7_ONE_THREAD]
        _per_job(traced, info)
        return _layer_metrics(traced, pairs, one, _coverage(run), info,
                              workloads.LEVEL7_ONE_THREAD)
    jobs: list[dict] = []
    start = time.perf_counter()
    setups: list[float] = []
    while not jobs or time.perf_counter() - start < seconds:
        for cmd, v in plan:
            jobs.append(job(cmd, v))
            setups += [run.import_probe() for _ in range(LEVEL7_IMPORT_PROBES)]
    for cmd in workloads.LEVEL7_COMMANDS:
        info[cmd.replace("-", "_") + "_s"] = statistics.median(
            p["wall"] for p in jobs if p["label"] == cmd)
    return _cli_end_to_end(jobs, info, setups)


def sweep_warm(run: Run, seed: int, seconds: float, trace: bool, info: dict):
    base = {"levels": list(workloads.SWEEP_LEVELS),
            "cycle": workloads.sweep_cycle(seed), "warmup_cycles": 1,
            "cycles": 1}
    setup_only = {**base, "warmup_cycles": 0, "cycles": 0}
    run.probe()
    # the first eigensolve after an idle spell can take 0.9 s instead of
    # 0.02 s at m = 5; an uncounted set-up absorbs it
    run.sweep(setup_only, counted=False)
    if trace:
        traced = [run.sweep(base, trace=True)]
        pairs = [(traced[0], run.sweep(base))]
        one = [run.sweep(base, trace=True, threads=1)]
        return _layer_metrics(traced, pairs, one, _coverage(run), info)
    setups = [run.sweep(setup_only) for _ in range(SETUP_REPEATS - 1)]
    main = run.sweep({**base, "cycles": None, "seconds": seconds,
                      "min_jobs": workloads.SWEEP_MIN_JOBS})
    workers = setups + [main]
    timed = [j for j in main["jobs"] if not j["warmup"]]
    if not timed or any(p["setup"] is None for p in workers):
        raise SystemExit("sweep worker failed: " + "; ".join(run.failures[:3]))
    walls = [j["wall"] for j in timed]
    info["job_samples"] = len(walls)
    info["job_s_p50"] = statistics.median(walls)
    info["job_s_p90"] = statistics.quantiles(walls, n=10)[8]
    return {
        "setup_s": _metric(statistics.median(p["setup"] for p in workers), "s"),
        "jobs_per_s": _metric(len(walls) / sum(walls), "1/s"),
        "job_time_ratio_p50": _metric(
            statistics.median(j["ratio"] for j in timed), "ratio"),
        "peak_rss_mb": _metric(max(p["rss_mb"] for p in workers), "MiB"),
    }


def spectrum_deep(run: Run, seed: int, seconds: float, trace: bool, info: dict):
    cutoffs = workloads.spectrum_pass(seed)

    def job(cutoff, **kw):
        key = f"{cutoff:.17g}"
        return run.cli_job(f"spectrum@{key}", "spectrum", {"cutoff": cutoff},
                           key, **kw)

    run.probe()
    run.cli_job("warmup", "spectrum",
                {"cutoff": workloads.SPECTRUM_WARMUP_CUTOFF}, None,
                counted=False)
    if trace:
        pairs = [(job(c, trace=True), job(c)) for c in cutoffs]
        traced = [t for t, _ in pairs]
        one = [job(c, trace=True, threads=1) for c in cutoffs]
        _per_job(traced, info)
        return _layer_metrics(traced, pairs, one, _coverage(run), info)
    jobs: list[dict] = []
    start = time.perf_counter()
    passes = 0
    while passes < SPECTRUM_MIN_PASSES or time.perf_counter() - start < seconds:
        jobs += [job(c) for c in cutoffs]
        passes += 1
        # untimed repeat of the cheapest job: its bytes must match
        job(min(cutoffs))
    info["spectrum_s"] = statistics.median(p["wall"] for p in jobs)
    return _cli_end_to_end(jobs, info)


WORKLOADS = {"level7-cli": level7_cli, "sweep-warm": sweep_warm,
             "spectrum-deep": spectrum_deep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gasket_szego" / "cli.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src'}; run from the "
              f"root of a gasket-szego checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    run = Run(name, args.workload)
    info: dict = {"workload": args.workload, "seed": args.seed,
                  "threads_cap": THREAD_CAP}
    try:
        metrics = WORKLOADS[args.workload](run, args.seed, args.seconds,
                                           bool(args.trace), info)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    info["run_wall_s"] = time.perf_counter() - start
    info["environment"] = run.environment
    info["error_rate"] = f"{len(run.failures)}/{run.attempted}"
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    record = {"info": info, "failures": run.failures, "result": result}
    (WORK_DIR / f"result-{name}.json").write_text(json.dumps(record, indent=1))
    if run.spans:
        (WORK_DIR / f"spans-{name}.json").write_text(json.dumps(run.spans))
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for failure in run.failures:
        print(f"# FAIL {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
