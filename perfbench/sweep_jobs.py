"""The sweep-warm API jobs.  Imported only inside a worker process, after the
BLAS thread cap is in its environment.

Each job fetches its basis through ``eigenbasis.level_basis`` (a cache hit
once the worker has set up) and returns a flat list of the numbers it
produced, which the driver compares with the reference outputs.
"""
from __future__ import annotations

import numpy as np

from gasket_szego import clusters, eigenbasis, operators, szego
from gasket_szego.gasket import SimpleFunction

FULL_GRIDS = {5: [100.0, 3000.0, 80000.0, 100000.0],
              6: [100.0, 3000.0, 80000.0, 500000.0]}
CLUSTER_BIRTHS = [2, 3, 4, 5]
LIPSCHITZ_DELTA = 0.05


def _identity(lam):
    return lam


def _symbol(spec: dict, basis, series: int = 6):
    kind, beta = spec["kind"], spec.get("beta")
    if kind in ("riesz", "bessel"):
        return operators.make_symbol(kind, beta=beta)
    if kind == "multiplication":
        return operators.multiplication_symbol(
            SimpleFunction(1, spec.get("chi", [0.8, 1.0, 1.2])))
    if kind == "separable":
        return operators.separable_symbol(
            lambda lam: lam ** (-beta), 0.0,
            SimpleFunction(1, spec.get("chi", [1.0, 1.5, 2.0])),
            lower_bound=1.0)
    if kind == "tabulated":
        # one simple function per eigenspace of the series, tending to the
        # declared limit as the birth grows
        entries = []
        for j in _births(basis.level):
            lam = basis.family_bundle(series, j).record.value
            entries.append((lam, SimpleFunction(
                1, [1.0 + 1.0 / j, 1.5, 2.0 - 0.5 / j])))
        return operators.tabulated_symbol(
            entries, limit_q=SimpleFunction(1, [1.0, 1.5, 2.0]),
            lower_bound=1.0)
    raise ValueError(f"unknown symbol kind {kind!r}")


def _births(m: int) -> list[int]:
    """Births 2..m: above the approximation level N = 1 in both series."""
    return list(range(2, m + 1))


def _report_numbers(report) -> list:
    out = [report.target]
    for s in report.samples:
        out += [s.index, s.d, s.value, s.abs_error, s.head_mass, s.tail_mass]
    return out


def run_job(job: dict) -> list:
    """Run one sweep job and return its numbers."""
    kind, m = job["kind"], job["m"]
    basis = eigenbasis.level_basis(m)
    if kind == "trace_full":
        symbol = _symbol(job["symbol"], basis)
        F = szego.make_trace_function(**job["F"])
        return _report_numbers(szego.szego_trace_full(
            symbol, F, FULL_GRIDS[m], m, basis=basis))
    if kind == "logdet_full":
        symbol = _symbol(job["symbol"], basis)
        return _report_numbers(szego.szego_logdet_full(
            symbol, FULL_GRIDS[m], m, basis=basis))
    if kind == "trace_single":
        symbol = _symbol(job["symbol"], basis)
        F = szego.make_trace_function(**job["F"])
        return _report_numbers(szego.szego_trace_single_series(
            symbol, F, 6, _births(m), 1, m, basis=basis))
    if kind == "logdet_single":
        series = job["series"]
        symbol = _symbol(job["symbol"], basis, series)
        return _report_numbers(szego.szego_logdet_single_series(
            symbol, series, _births(m), 1, m, basis=basis))
    if kind == "sandwich":
        entries = szego.logdet_sandwich(
            operators.riesz_symbol(job["beta"]), SimpleFunction(0, [1.0]),
            job["epsilon"], 6, list(range(3, m + 1)), m, basis=basis)
        out = []
        for e in entries:
            out += [e["j"], e["ratio_condition"]]
            if e["ratio_condition"]:
                out += [e["lower"], e["value"], e["upper"], e["sandwiched"]]
        return out
    if kind == "clusters":
        chi = SimpleFunction(1, job["chi"])
        family = clusters.decimation_family(CLUSTER_BIRTHS, basis)
        h = clusters.build_schrodinger(_identity, chi, m, "identity", basis)
        report = clusters.identify_clusters(h, family)
        out = [report.threshold_j]
        for psi in report.clusters:
            out += [psi.j, psi.center, *psi.positions.tolist(),
                    *clusters.cluster_moments(psi, 4)]
        weak = clusters.weak_limit_check(
            chi, _identity, CLUSTER_BIRTHS, szego.f_identity(), m,
            "identity", basis)
        return out + _report_numbers(weak)
    if kind == "lipschitz":
        chi = SimpleFunction(1, job["chi"])
        eta = clusters.random_simple_perturbation(
            np.random.default_rng(job["eta_seed"]), 1, LIPSCHITZ_DELTA)
        chi2 = SimpleFunction(1, chi.values + eta.values)
        return [clusters.lipschitz_check(_identity, chi, chi2, m, basis=basis)]
    raise ValueError(f"unknown sweep job kind {kind!r}")
