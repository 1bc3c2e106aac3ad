"""Trace and determinant limit experiments over eigenvalue sequences.

Two families of sweeps: over a single series of eigenspaces indexed by birth
generation, and over full cutoff compressions.  Every sweep, and the cluster
weak limit of `clusters`, samples and reports through one path: one sample
per birth or cutoff with its dimension d, the normalized trace (or
log-determinant) value, its absolute error against the limiting integral and
the split of d by generation of birth (head up to the generation cut, tail
after it); one ConvergenceReport of those samples, the target, a trend
verdict and metadata naming the experiment, its level m, its generation cut
and how the target was integrated.  Trend verdicts are reported, not
asserted; no convergence rate is claimed.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable

import numpy as np

from . import decimation, eigenbasis, operators
from .errors import DomainError, WindowError
from .gasket import (
    SimpleFunction,
    build_measure,
    build_vertices,
    integrate_simple,
    vertex_values,
)
from .operators import (
    SymbolSpec,
    compress,
    log_det,
    selection_from_bundles,
    symbol_vertex_values,
    trace_F,
)
from .serialize import write_csv, write_json

TARGET_TOL = 1e-10
TARGET_MAX_LEVEL = 8


@dataclass(frozen=True)
class TraceFunction:
    """Named scalar function applied to compressed-operator spectra."""

    name: str
    fn: Callable[[float], float]


def f_identity() -> TraceFunction:
    return TraceFunction("identity", lambda x: x)


def f_power(k: int) -> TraceFunction:
    if k < 0:
        raise DomainError(f"power must be nonnegative, got {k}")
    return TraceFunction(f"power:{k}", lambda x: x ** k)


def f_log() -> TraceFunction:
    return TraceFunction("log", math.log)


def f_polynomial(coeffs) -> TraceFunction:
    coeffs = tuple(float(c) for c in coeffs)

    def fn(x, _c=coeffs):
        acc = 0.0
        for c in reversed(_c):
            acc = acc * x + c
        return acc

    return TraceFunction("polynomial:" + ":".join(repr(c) for c in coeffs), fn)


def _count(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DomainError(f"parameter {key!r} must be an integer >= 0, got {value!r}")
    return value


def _numbers(key: str, value) -> list:
    # abs(c) <= max is False for nan, the infinities and ints beyond float range
    if not isinstance(value, list) or not value or any(
        isinstance(c, bool)
        or not isinstance(c, (int, float))
        or not abs(c) <= sys.float_info.max
        for c in value
    ):
        raise DomainError(
            f"parameter {key!r} must be a non-empty list of finite numbers, "
            f"got {value!r}"
        )
    return value


# each named function with the parameters it reads
NAMED_F = {
    "identity": ((), lambda params: f_identity()),
    "power": (("k",), lambda params: f_power(_count("k", params["k"]))),
    "log": ((), lambda params: f_log()),
    "polynomial": (
        ("coeffs",),
        lambda params: f_polynomial(_numbers("coeffs", params["coeffs"])),
    ),
}


def make_trace_function(name: str, **params) -> TraceFunction:
    """The named trace function; its parameters are checked, not converted."""
    if name not in NAMED_F:
        raise DomainError(f"unknown trace function {name!r}")
    keys, build = NAMED_F[name]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise DomainError(
            f"trace function {name!r} takes no parameter {unknown[0]!r}"
        )
    missing = [key for key in keys if key not in params]
    if missing:
        raise DomainError(f"trace function {name!r} needs parameter {missing[0]!r}")
    return build(params)


def target_integral(
    limit_q, fn: Callable[[float], float], name: str = "F"
) -> tuple[float, dict]:
    """Integral of F(q) against the measure.

    Exact for constants and simple functions.  A continuous q is integrated by
    weighted vertex sums at increasing level with geometric extrapolation;
    the achieved stabilization is reported so trend-only experiments can note
    an unconverged target.  A value of q outside F's domain raises
    DomainError naming F, `name`, and the value.
    """
    if limit_q is None:
        raise DomainError("no declared limit to integrate against")

    def F(x: float) -> float:
        try:
            return fn(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(
                f"F = {name} is undefined at the limit value {x!r}: {exc}"
            ) from None

    if isinstance(limit_q, (int, float)):
        return float(F(float(limit_q))), {"method": "closed-form", "converged": True}
    if isinstance(limit_q, SimpleFunction):
        value = (
            math.fsum(F(float(a)) for a in limit_q.values)
            * 3.0 ** (-limit_q.level)
        )
        return value, {"method": "simple-exact", "converged": True}
    estimates = []
    for m in range(1, TARGET_MAX_LEVEL + 1):
        vertices = build_vertices(m)
        weights = build_measure(vertices)
        q_vals = vertex_values(limit_q, vertices)
        estimates.append(
            math.fsum(float(w) * F(float(q)) for w, q in zip(weights, q_vals))
        )
        if len(estimates) >= 2:
            delta = abs(estimates[-1] - estimates[-2])
            if delta <= TARGET_TOL * max(1.0, abs(estimates[-1])):
                return estimates[-1], {
                    "method": "vertex-refinement",
                    "converged": True,
                    "level": m,
                    "delta": delta,
                }
    # geometric extrapolation from the last three refinements
    value = estimates[-1]
    info = {"method": "vertex-refinement", "converged": False, "level": m}
    if len(estimates) >= 3:
        d1 = estimates[-2] - estimates[-3]
        d2 = estimates[-1] - estimates[-2]
        if d1 != 0.0 and 0.0 < d2 / d1 < 0.9:
            ratio = d2 / d1
            value = estimates[-1] + d2 * ratio / (1.0 - ratio)
            info["extrapolated"] = True
    info["delta"] = abs(estimates[-1] - estimates[-2])
    return value, info


@dataclass
class Sample:
    index: float
    d: int
    value: float
    abs_error: float
    head_mass: int
    tail_mass: int


@dataclass
class Verdict:
    first_error: float
    last_error: float
    monotone_nonincreasing: bool
    trend_ok: bool


@dataclass
class ConvergenceReport:
    """Sweep output: samples, target, generation split, and a trend verdict."""

    target: float
    samples: list[Sample]
    verdict: Verdict
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        write_csv(path, [f.name for f in fields(Sample)], map(astuple, self.samples))

    def to_json(self, path) -> None:
        write_json(path, asdict(self))


def compute_verdict(samples: list[Sample]) -> Verdict:
    errors = [s.abs_error for s in samples]
    return Verdict(
        first_error=errors[0],
        last_error=errors[-1],
        monotone_nonincreasing=all(b <= a for a, b in zip(errors, errors[1:])),
        trend_ok=errors[-1] <= errors[0],
    )


def _sample(index, d: int, value: float, target: float, head: int) -> Sample:
    """A sample of dimension d, of which `head` is born up to the generation
    cut."""
    return Sample(index, d, value, abs(value - target), head, d - head)


def _report(samples, target, target_info, **metadata) -> ConvergenceReport:
    return ConvergenceReport(
        target=target,
        samples=samples,
        verdict=compute_verdict(samples),
        metadata={**metadata, "target_info": target_info},
    )


def _generation_cut(cut: int | None, m: int) -> int:
    """The generation cut of level m: `cut`, at least 1, or by default
    (m + 1) // 2."""
    if cut is None:
        return (m + 1) // 2
    if cut < 1:
        raise DomainError(f"generation cut must be at least 1, got {cut}")
    return cut


def _distinct_sorted(values, kind, name: str) -> list:
    """`values` converted by `kind` and sorted, not empty and none of them
    repeated: each entry is one sample."""
    values = sorted(kind(v) for v in values)
    if not values:
        raise DomainError(f"empty {name}")
    for a, b in zip(values, values[1:]):
        if a == b:
            raise DomainError(f"{name} repeats {a!r}; each entry is one sample")
    return values


def _check_single_series_args(series, j_range, n_level, m):
    if series not in (5, 6):
        raise DomainError(f"single-series sweeps need series 5 or 6, got {series}")
    j_range = _distinct_sorted(j_range, int, "birth range")
    for j in j_range:
        if j > m:
            raise DomainError(f"birth {j} exceeds graph level {m}")
        if j <= n_level:
            raise DomainError(
                f"birth {j} must exceed the approximation level {n_level}"
            )
    return j_range


def check_sweep(m: int, generation_cut: int | None = None, *, lambda_grid=None,
                series=None, j_range=None, n_level=None) -> tuple[int, list]:
    """Every refusal of a sweep's arguments, made before anything is built:
    the generation cut, then for a full sweep (a `lambda_grid`) its cutoffs
    and the resolvable window, for a single-series one its series and
    births.  Returns the generation cut and the sorted cutoffs or births."""
    cut = _generation_cut(generation_cut, m)
    if lambda_grid is None:
        return cut, _check_single_series_args(series, j_range, n_level, m)
    lambda_grid = _distinct_sorted(lambda_grid, float, "cutoff grid")
    check_window(lambda_grid, m)
    return cut, lambda_grid


def _simple_multiplication_bound(symbol, series, j, n_level, k) -> float | None:
    """Exact finite-sample error bound for simple multiplication symbols."""
    if not (
        k is not None
        and symbol.p_lambda is None
        and isinstance(symbol.chi, SimpleFunction)
        and symbol.chi.level <= n_level
    ):
        return None
    counts = decimation.localization_counts(series, j, n_level)
    f = symbol.chi
    abs_f = SimpleFunction(f.level, np.abs(f.values))
    return (counts.alpha_N / counts.d_j) * integrate_simple(abs_f, k) + (
        counts.alpha_N ** k / counts.d_j
    ) * f.sup_norm ** k


def _single_series_report(symbol, series, j_range, n_level, m, generation_cut,
                          basis, integrand, evaluate, precheck=None, **metadata):
    """Normalized evaluate() over the compressions to one series of
    eigenspaces, against the integral of the TraceFunction `integrand` of q;
    `precheck` sees the eigenspaces' records and the level before any
    compression."""
    cut, j_range = check_sweep(
        m, generation_cut, series=series, j_range=j_range, n_level=n_level
    )
    basis = operators.level_basis_for(m, basis)
    bundles = [basis.family_bundle(series, j) for j in j_range]
    if precheck is not None:
        precheck(symbol, [b.record for b in bundles], m)
    target, target_info = target_integral(
        symbol.limit_q, integrand.fn, integrand.name
    )
    samples = []
    for j, bundle in zip(j_range, bundles):
        gamma = compress(symbol, selection_from_bundles([bundle]))
        d = bundle.dim
        samples.append(_sample(j, d, evaluate(gamma) / d, target,
                               d if j <= cut else 0))
    return _report(samples, target, target_info, symbol=symbol.name,
                   series=series, m=m, N=n_level, generation_cut=cut, **metadata)


def szego_trace_single_series(
    symbol: SymbolSpec,
    F: TraceFunction,
    series: int,
    j_range,
    n_level: int,
    m: int,
    generation_cut: int | None = None,
    basis: eigenbasis.LevelBasis | None = None,
) -> ConvergenceReport:
    """Normalized trace of F over one series of eigenspace compressions."""
    report = _single_series_report(
        symbol, series, j_range, n_level, m, generation_cut, basis,
        F, lambda gamma: trace_F(gamma, F.fn),
        experiment="szego-trace-single", F=F.name, f_domain="evaluability-only",
    )
    power = _f_power_order(F)
    bounds = []
    for s in report.samples:
        bound = _simple_multiplication_bound(symbol, series, s.index, n_level, power)
        if bound is not None:
            bounds.append({"j": s.index, "bound": bound})
    if bounds:
        report.metadata["simple_function_bounds"] = bounds
    return report


def _f_power_order(F: TraceFunction) -> int | None:
    if F.name == "identity":
        return 1
    if F.name.startswith("power:"):
        return int(F.name.split(":")[1])
    return None


def check_window(lambda_grid, m: int) -> float:
    window = decimation.resolvable_window(m)
    top = max(lambda_grid)
    if top >= window:
        raise WindowError(
            f"cutoff {top} reaches the resolvable window {window} of level {m}; "
            f"eigenvalues born beyond level {m} would be silently missing"
        )
    return window


def _full_report(symbol, lambda_grid, m, generation_cut, basis, integrand,
                 evaluate, precheck=None, **metadata):
    """Normalized evaluate() over the cutoff compressions, against the
    integral of the TraceFunction `integrand` of q.  They are the leading
    parts of one compression below the top cutoff: the atoms below each cutoff and a leading block of its
    remainder.  `precheck` sees the records below the top cutoff and the level
    before the target and any compression."""
    cut, lambda_grid = check_sweep(m, generation_cut, lambda_grid=lambda_grid)
    basis = operators.level_basis_for(m, basis)
    window = decimation.resolvable_window(m)
    full = operators.leading_selection(basis, lambda_grid[-1])
    if precheck is not None:
        precheck(symbol, full.records, m)
    target, target_info = target_integral(
        symbol.limit_q, integrand.fn, integrand.name
    )
    gamma_full = compress(symbol, full)
    values = full.lambdas
    births = np.repeat([rec.birth for rec in full.records], full.dims)
    samples = []
    for cutoff in lambda_grid:
        d = int(np.sum(values <= cutoff))
        if d == 0:
            raise DomainError(
                f"cutoff {cutoff} lies below the smallest eigenvalue"
            )
        value = evaluate(gamma_full.up_to(cutoff)) / d
        samples.append(_sample(cutoff, d, value, target,
                               int(np.sum(births[:d] <= cut))))
    return _report(samples, target, target_info, symbol=symbol.name, m=m,
                   window=window, generation_cut=cut, **metadata)


def szego_trace_full(
    symbol: SymbolSpec,
    F: TraceFunction,
    lambda_grid,
    m: int,
    generation_cut: int | None = None,
    basis: eigenbasis.LevelBasis | None = None,
) -> ConvergenceReport:
    """Normalized trace of F over full cutoff compressions on a grid."""
    return _full_report(
        symbol, lambda_grid, m, generation_cut, basis,
        F, lambda sub: trace_F(sub, F.fn),
        experiment="szego-trace-full", F=F.name, f_domain="evaluability-only",
    )


def _check_positivity(symbol: SymbolSpec, records, m: int) -> None:
    if symbol.lower_bound is None or symbol.lower_bound <= 0.0:
        raise DomainError(
            f"log-determinant sweeps need a declared positive lower bound; "
            f"symbol {symbol.name} has {symbol.lower_bound}"
        )
    # the smallest sample of q(lam) + chi_lam is q(lam) + min chi_lam,
    # because rounding the sum is monotone in each term
    q, runs = operators.eigenspace_runs(symbol, records)
    worst = math.inf
    for chi, first, stop in runs:
        low = float(np.min(q[first:stop]))
        if chi is not None:
            low += float(np.min(vertex_values(chi, build_vertices(m))))
        worst = min(worst, low)
    if worst < symbol.lower_bound - 1e-12:
        raise DomainError(
            f"sampled symbol value {worst} undercuts the declared lower bound "
            f"{symbol.lower_bound}"
        )


def szego_logdet_single_series(
    symbol: SymbolSpec,
    series: int,
    j_range,
    n_level: int,
    m: int,
    generation_cut: int | None = None,
    basis: eigenbasis.LevelBasis | None = None,
) -> ConvergenceReport:
    """Normalized log-determinant over one series of eigenspace compressions."""
    return _single_series_report(
        symbol, series, j_range, n_level, m, generation_cut, basis,
        f_log(), log_det, _check_positivity, experiment="szego-logdet-single",
    )


def szego_logdet_full(
    symbol: SymbolSpec,
    lambda_grid,
    m: int,
    generation_cut: int | None = None,
    basis: eigenbasis.LevelBasis | None = None,
) -> ConvergenceReport:
    """Normalized log-determinant over full cutoff compressions on a grid."""
    return _full_report(
        symbol, lambda_grid, m, generation_cut, basis,
        f_log(), log_det, _check_positivity, experiment="szego-logdet-full",
    )


def logdet_sandwich(
    symbol: SymbolSpec,
    f_approx: SimpleFunction,
    epsilon: float,
    series: int,
    j_range,
    m: int,
    basis: eigenbasis.LevelBasis | None = None,
) -> list[dict]:
    """Determinant sandwich against scaled simple approximants.

    Wherever the sampled ratio p(x, lam_j)/f(x) lies strictly inside
    (1-eps, 1+eps), the log-determinant of the compression must sit between
    the log-determinants of the compressions of (1-eps) f and (1+eps) f.
    """
    if epsilon <= 0 or epsilon >= 1:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    basis = operators.level_basis_for(m, basis)
    lo_sym = operators.multiplication_symbol(f_approx.scaled(1.0 - epsilon))
    hi_sym = operators.multiplication_symbol(f_approx.scaled(1.0 + epsilon))
    f_vals = vertex_values(f_approx, basis.vertices)
    out = []
    for j in _distinct_sorted(j_range, int, "birth range"):
        bundle = basis.family_bundle(series, j)
        sel = selection_from_bundles([bundle])
        p_vals = symbol_vertex_values(symbol, bundle.record.value, basis.vertices)
        ratios = p_vals / f_vals
        holds = bool(np.all((1.0 - epsilon < ratios) & (ratios < 1.0 + epsilon)))
        entry = {"j": j, "ratio_condition": holds}
        if holds:
            entry["lower"] = log_det(compress(lo_sym, sel))
            entry["value"] = log_det(compress(symbol, sel))
            entry["upper"] = log_det(compress(hi_sym, sel))
            entry["sandwiched"] = entry["lower"] <= entry["value"] <= entry["upper"]
        out.append(entry)
    return out


def plot_error_svg(report: ConvergenceReport, path) -> None:
    """Minimal deterministic SVG of abs_error vs index on a log scale."""
    samples = [s for s in report.samples if s.abs_error > 0.0]
    width, height, margin = 480, 320, 40
    if not samples:
        body = "<text x='240' y='160'>all errors are exactly zero</text>"
    else:
        xs = [s.index for s in samples]
        ys = [math.log10(s.abs_error) for s in samples]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0
        pts = " ".join(
            "%.2f,%.2f"
            % (
                margin + (x - x0) / xr * (width - 2 * margin),
                height - margin - (y - y0) / yr * (height - 2 * margin),
            )
            for x, y in zip(xs, ys)
        )
        body = (
            f"<polyline fill='none' stroke='black' points='{pts}'/>"
            f"<text x='{margin}' y='{height - 8}'>index {x0:g} to {x1:g}; "
            f"log10 abs_error {y0:.2f} to {y1:.2f}</text>"
        )
    svg = (
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}'>{body}</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
