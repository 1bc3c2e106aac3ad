"""Workload definitions: every input the benchmark runs, generated from a seed.

Inputs are drawn from fixed variant tables so that the reference outputs in
``reference/`` (produced by ``reference.py``) cover every input any seed can
produce.  Variants of one job differ in values (exponents, potentials,
cutoffs) but not in matrix sizes, so a run's cost does not depend on which
seed drew it.  This module is plain data; it imports neither numpy nor the
package, so the driver process stays light.
"""
from __future__ import annotations

import random

# -- level7-cli ---------------------------------------------------------------
# Four batch commands at m = 7 (n = 3279), each its own process.  The lambda
# grid tops out just below the level-7 resolvable window (2.69e6), so the full
# modes compress over the whole 3279-vector basis.  `clusters` uses births
# 2-5: with births through 7 it stops by design with "no generation
# threshold", because births 6 and 7 show count deficits at m = 7.
M7_GRID = [1000.0, 30000.0, 1000000.0, 2500000.0]
LEVEL7_VARIANTS = {
    "validate": [{"m": 7, "seed": s} for s in range(4)],
    "szego-trace": [
        {"m": 7, "mode": "full", "lambda_grid": M7_GRID,
         "symbol": {"kind": "riesz", "beta": beta}, "F": F}
        for beta, F in [
            (1.0, {"name": "identity"}),
            (0.5, {"name": "log"}),
            (1.5, {"name": "power", "k": 2}),
            (2.0, {"name": "identity"}),
        ]
    ],
    "szego-det": [
        {"m": 7, "mode": "full", "lambda_grid": M7_GRID,
         "symbol": {"kind": "separable", "q": {"form": "power", "beta": beta},
                    "limit": 0.0, "chi": {"level": 1, "values": chi},
                    "lower_bound": 1.0}}
        for beta, chi in [
            (1.0, [1.0, 1.5, 2.0]),
            (0.5, [1.2, 1.0, 1.6]),
            (1.5, [2.0, 1.0, 1.3]),
            (2.0, [1.1, 1.4, 1.0]),
        ]
    ],
    "clusters": [
        {"m": 7, "j_range": [2, 3, 4, 5], "p": {"kind": "identity"},
         "chi": {"level": 1, "values": chi}, "k_max": 4}
        for chi in [
            [0.8, 1.0, 1.2],
            [1.2, 0.8, 1.0],
            [0.9, 1.1, 1.0],
            [1.0, 1.2, 0.85],
        ]
    ],
}
LEVEL7_COMMANDS = ("validate", "szego-trace", "szego-det", "clusters")
# The one-thread pass of the traced run covers this command only: it holds the
# level basis, a full-basis compression and eigvalsh in 18 s, where the whole
# pass at one thread would take 83 s and not fit the run's time limit.
LEVEL7_ONE_THREAD = ("szego-trace",)
# In the traced run, these jobs are repeated untraced right after their traced
# run, for the tracing overhead and the byte-repeat check.  Repeating all four
# would add about 60 s to a run that must end within 180 s.
LEVEL7_UNTRACED = ("szego-trace", "szego-det")


def level7_plan(seed: int) -> list[tuple[str, int]]:
    """(command, variant index) per command, in the fixed command order."""
    rng = random.Random(seed)
    return [(cmd, rng.randrange(len(LEVEL7_VARIANTS[cmd])))
            for cmd in LEVEL7_COMMANDS]


# -- traced runs -------------------------------------------------------------
# Every traced pass also runs these small m = 3 CLI jobs, which together call
# every traced layer once, so that each layer metric is measured on every
# workload: a layer that the workload itself never calls reads milliseconds,
# not a constant zero.
_RIESZ = {"kind": "riesz", "beta": 1.0}
COVERAGE_JOBS = [
    ("validate", {"m": 3}),
    ("szego-trace", {"m": 3, "mode": "single", "series": 6, "j_range": [2, 3],
                     "N": 1, "symbol": _RIESZ}),
    ("szego-trace", {"m": 3, "mode": "full", "lambda_grid": [100.0, 1000.0],
                     "symbol": _RIESZ}),
    ("szego-det", {"m": 3, "mode": "single", "series": 6, "j_range": [2, 3],
                   "N": 1, "symbol": _RIESZ}),
    ("szego-det", {"m": 3, "mode": "full", "lambda_grid": [100.0, 1000.0],
                   "symbol": _RIESZ}),
    ("clusters", {"m": 3, "j_range": [2, 3], "p": {"kind": "identity"},
                  "chi": {"level": 1, "values": [0.8, 1.0, 1.2]}, "k_max": 2}),
]


# -- sweep-warm ---------------------------------------------------------------
# API jobs over cached level-5 and level-6 bases.  Each slot is (kind, m); a
# cycle runs every slot once, in a seeded order, with a seeded variant per
# slot.  Counts weight the cheap level-5 jobs so that a 10 s run holds more
# than 100 jobs; the level-6 full sweeps, clusters and Lipschitz jobs form the
# slow tail.
SWEEP_LEVELS = (5, 6)
SWEEP_SLOTS = {
    ("trace_full", 5): 4, ("trace_full", 6): 2,
    ("logdet_full", 5): 3, ("logdet_full", 6): 2,
    ("trace_single", 5): 6, ("trace_single", 6): 4,
    ("logdet_single", 5): 3, ("logdet_single", 6): 2,
    ("sandwich", 5): 2, ("sandwich", 6): 1,
    ("clusters", 5): 3, ("clusters", 6): 1,
    ("lipschitz", 5): 3, ("lipschitz", 6): 1,
}
SWEEP_MIN_JOBS = 100
_CHIS = [[0.8, 1.0, 1.2], [1.2, 0.8, 1.0], [0.9, 1.1, 1.0], [1.0, 1.2, 0.85]]
_FS = [{"name": "identity"}, {"name": "power", "k": 2}, {"name": "log"}]
SWEEP_VARIANTS = {
    "trace_full": [
        {"symbol": {"kind": kind, "beta": beta}, "F": F}
        for kind, beta, F in [
            ("riesz", 1.0, _FS[0]), ("bessel", 0.5, _FS[2]),
            ("riesz", 2.0, _FS[1]), ("multiplication", None, _FS[1]),
            ("multiplication", None, _FS[2]),
        ]
    ],
    "logdet_full": [
        {"symbol": {"kind": "separable", "beta": beta, "chi": chi}}
        for beta, chi in [(1.0, [1.0, 1.5, 2.0]), (0.5, [1.2, 1.0, 1.6]),
                          (2.0, [1.1, 1.4, 1.0])]
    ] + [{"symbol": {"kind": "riesz", "beta": 1.0}},
         {"symbol": {"kind": "bessel", "beta": 2.0}}],
    "trace_single": [
        {"symbol": {"kind": kind, "beta": 1.0}, "F": F}
        for kind in ("riesz", "bessel", "multiplication", "separable",
                     "tabulated")
        for F in _FS
    ],
    "logdet_single": [
        {"series": series, "symbol": {"kind": kind, "beta": beta}}
        for series, kind, beta in [(6, "riesz", 1.0), (5, "bessel", 1.0),
                                   (6, "separable", 0.5), (5, "tabulated", 1.0)]
    ],
    "sandwich": [{"beta": beta, "epsilon": eps}
                 for beta, eps in [(1.0, 0.5), (2.0, 0.25), (0.5, 0.75)]],
    "clusters": [{"chi": chi} for chi in _CHIS],
    "lipschitz": [{"chi": chi, "eta_seed": s}
                  for s, chi in enumerate(_CHIS)],
}


def sweep_job_id(kind: str, m: int, variant: int) -> str:
    return f"{kind}/m{m}/v{variant}"


def sweep_catalogue() -> list[dict]:
    """Every sweep job any seed can draw, for the reference outputs."""
    return [
        {"id": sweep_job_id(kind, m, v), "kind": kind, "m": m,
         **SWEEP_VARIANTS[kind][v]}
        for kind, m in sorted(SWEEP_SLOTS)
        for v in range(len(SWEEP_VARIANTS[kind]))
    ]


def sweep_cycle(seed: int) -> list[dict]:
    """One cycle of sweep jobs: every slot once, seeded order and variants."""
    rng = random.Random(seed)
    jobs = []
    for (kind, m), count in sorted(SWEEP_SLOTS.items()):
        for _ in range(count):
            v = rng.randrange(len(SWEEP_VARIANTS[kind]))
            jobs.append({"id": sweep_job_id(kind, m, v), "kind": kind, "m": m,
                         **SWEEP_VARIANTS[kind][v]})
    rng.shuffle(jobs)
    return jobs


# -- spectrum-deep ------------------------------------------------------------
# Cutoffs from 1e9 to 1e12 (3.6k-57k records).  One stratum per half decade,
# and the seed picks one of three cutoffs 4% apart inside each stratum, so a
# pass always spans the whole range and its cost moves by about 1% between
# seeds.
SPECTRUM_STRATA = [1e9, 3e9, 1e10, 3e10, 1e11, 3e11, 1e12 / 1.08]
SPECTRUM_STEPS = (1.0, 1.04, 1.08)
SPECTRUM_WARMUP_CUTOFF = 1e6


def spectrum_cutoffs() -> list[float]:
    """Every cutoff any seed can draw, for the reference outputs."""
    return [base * step for base in SPECTRUM_STRATA for step in SPECTRUM_STEPS]


def spectrum_pass(seed: int) -> list[float]:
    rng = random.Random(seed)
    cutoffs = [base * rng.choice(SPECTRUM_STEPS) for base in SPECTRUM_STRATA]
    rng.shuffle(cutoffs)
    return cutoffs
