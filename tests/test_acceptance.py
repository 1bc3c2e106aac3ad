"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from gasket_szego import cli, clusters, decimation, eigenbasis, operators, szego
from gasket_szego.gasket import (
    SimpleFunction,
    build_dirichlet_laplacian,
    build_vertices,
    integrate_simple,
)

from dense_oracle import dense_compression, spectrum_map, trace_power

CHI = SimpleFunction(1, [0.8, 1.0, 1.2])


def _announce(num: int, detail: str) -> None:
    print(f"[acceptance] criterion {num}: PASS  {detail}")


def _grid(basis, count=4):
    values = sorted({b.record.value for b in basis.bundles})
    window = decimation.resolvable_window(basis.level)
    idx = [len(values) // 4, len(values) // 2, 3 * len(values) // 4]
    grid = [values[i] * 1.0000001 for i in idx]
    grid.append(0.5 * (values[-1] + window))
    return grid


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for m in range(1, 7):
        lap = build_dirichlet_laplacian(build_vertices(m))
        dense = np.linalg.eigvalsh(lap)
        predicted = decimation.truncated_graph_spectrum(m)
        expanded = np.sort(
            np.concatenate(
                [np.full(g.multiplicity, g.graph_value) for g in predicted]
            )
        )
        assert dense.size == expanded.size == (3 ** (m + 1) - 3) // 2
        rel = float(
            np.max(np.abs(dense - expanded) / np.maximum(1.0, np.abs(expanded)))
        )
        assert rel <= 1e-8, f"level {m}: relative deviation {rel}"
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0
    _announce(1, f"m=1..6 spectra match decimation, worst rel diff "
                 f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_localization_census(level6):
    checked = 0
    for bundle in level6.bundles:
        rec = bundle.record
        if rec.series == 6 and 2 <= rec.birth <= 5:
            for n_level in range(1, rec.birth):
                counts = decimation.localization_counts(6, rec.birth, n_level)
                split = eigenbasis.localized_split(bundle, n_level)
                per_cell = {v.shape[1] for v in split.per_cell}
                assert per_cell == {counts.m_j_N}
                assert counts.m_j_N == (3 ** (rec.birth - n_level) - 3) // 2
                assert split.nonlocalized.shape[1] == counts.alpha_N
                assert counts.alpha_N == (3 ** (n_level + 1) - 3) // 2
                checked += 1
    five_checked = 0
    for bundle in level6.bundles:
        rec = bundle.record
        if rec.series == 5 and 2 <= rec.birth <= 5:
            for n_level in range(1, rec.birth):
                counts = decimation.localization_counts(5, rec.birth, n_level)
                split = eigenbasis.localized_split(bundle, n_level)
                assert counts.d_j == (3 ** (rec.birth - 1) + 3) // 2
                assert counts.m_j_N == (3 ** (rec.birth - n_level - 1) - 1) // 2
                assert split.localized_total == counts.d_j_N
                assert split.nonlocalized.shape[1] == counts.alpha_N
                assert counts.d_j == counts.d_j_N + counts.alpha_N
                # the empirical resolution: alpha = (3^N + 3) / 2
                assert counts.alpha_N == (3 ** n_level + 3) // 2
                five_checked += 1
    # 8+4+2+1 six-series and 16+8+4+2 five-series bundles of births 2..5,
    # each split at every N < birth
    assert checked == 26 and five_checked == 52
    _announce(
        2,
        f"{checked} six-series and {five_checked} five-series (bundle, N) "
        f"splits integer-exact; five-series nonlocalized count (3^N+3)/2 "
        f"confirmed",
    )


def test_criterion_3_simple_function_exact_bound(level6):
    f_by_level = {
        1: SimpleFunction(1, [0.5, 1.25, 2.0]),
        2: SimpleFunction(2, 0.25 + np.arange(9.0) / 4.0),
    }
    samples = 0
    min_slack = math.inf
    for n_level, f in f_by_level.items():
        sym = operators.multiplication_symbol(f)
        abs_f = SimpleFunction(f.level, np.abs(f.values))
        for bundle in level6.bundles:
            rec = bundle.record
            if rec.series != 6 or not (n_level < rec.birth <= 5):
                continue
            sel = operators.selection_from_bundles([bundle])
            gamma = operators.compress(sym, sel)
            dense = dense_compression(None, f, sel)
            counts = decimation.localization_counts(6, rec.birth, n_level)
            for k in (1, 2, 3):
                trace = operators.trace_F(gamma, lambda x, _k=k: x ** _k)
                assert trace == pytest.approx(
                    trace_power(dense, k), rel=1e-10, abs=1e-10
                )
                err = abs(trace / counts.d_j - integrate_simple(f, k))
                bound = (counts.alpha_N / counts.d_j) * integrate_simple(
                    abs_f, k
                ) + (counts.alpha_N ** k / counts.d_j) * f.sup_norm ** k
                slack = bound - err
                assert slack >= 0.0, (
                    f"j={rec.birth} N={n_level} k={k}: error {err} "
                    f"exceeds bound {bound}"
                )
                min_slack = min(min_slack, slack)
                samples += 1
    assert samples > 0
    _announce(3, f"{samples} sample bounds all hold, smallest slack {min_slack:.3e}")


def test_criterion_4_trace_szego_trend(level6):
    riesz = operators.riesz_symbol(1.0)
    sep = operators.separable_symbol(
        lambda lam: 1.0 / lam, 0.0, CHI, lower_bound=0.5, name="separable"
    )
    finals = []
    for sym in (riesz, sep):
        single = szego.szego_trace_single_series(
            sym, szego.f_identity(), 6, [2, 3, 4, 5, 6], 1, 6, basis=level6
        )
        full = szego.szego_trace_full(
            sym, szego.f_identity(), _grid(level6), 6, basis=level6
        )
        for rep in (single, full):
            assert rep.verdict.trend_ok
            assert rep.samples[-1].abs_error <= 0.05
            finals.append(rep.samples[-1].abs_error)
    _announce(
        4,
        "riesz and separable trace sweeps: last error <= first, finals "
        + ", ".join(f"{e:.2e}" for e in finals),
    )


def test_criterion_5_determinant_szego(level6):
    const = operators.constant_symbol(
        lambda lam: 2.0, limit=2.0, lower_bound=2.0, name="constant(2)"
    )
    single_c = szego.szego_logdet_single_series(
        const, 6, [2, 3, 4, 5, 6], 1, 6, basis=level6
    )
    full_c = szego.szego_logdet_full(const, _grid(level6), 6, basis=level6)
    for rep in (single_c, full_c):
        for s in rep.samples:
            assert abs(s.value - math.log(2.0)) <= 1e-10

    riesz = operators.riesz_symbol(1.0)
    single_r = szego.szego_logdet_single_series(
        riesz, 6, [2, 3, 4, 5, 6], 1, 6, basis=level6
    )
    full_r = szego.szego_logdet_full(riesz, _grid(level6), 6, basis=level6)
    for rep in (single_r, full_r):
        assert abs(rep.samples[-1].value) <= 0.05

    # epsilon sandwich wherever the sampled ratio condition holds
    chi = SimpleFunction(1, [1.0, 1.5, 2.0])
    sym = operators.separable_symbol(
        lambda lam: 1.0 / lam, 0.0, chi, lower_bound=1.0
    )
    rows = szego.logdet_sandwich(sym, chi, 0.05, 6, [3, 4, 5, 6], 6, basis=level6)
    held = [r for r in rows if r["ratio_condition"]]
    assert held, "no sample satisfied the sampled ratio condition"
    assert all(r["sandwiched"] for r in held)
    _announce(
        5,
        f"constant log-dets exact to 1e-10; riesz finals "
        f"{abs(single_r.samples[-1].value):.2e}/"
        f"{abs(full_r.samples[-1].value):.2e}; sandwich held on "
        f"{len(held)} samples",
    )


def test_criterion_6_cluster_machinery(level6):
    family = clusters.decimation_family([2, 3, 4, 5], level6)
    schrod = clusters.build_schrodinger(
        lambda lam: lam, CHI, 6, "identity", level6
    )
    report = clusters.identify_clusters(schrod, family)
    for rec in family:
        assert report.counts[rec.birth] == rec.multiplicity
    by_birth = {c.j: c for c in report.clusters}
    for rec in family:
        psi = by_birth[rec.birth]
        counts = decimation.localization_counts(6, rec.birth, 1)
        hits = sum(
            int(np.sum(np.abs(psi.positions - a) <= 1e-10)) for a in CHI.values
        )
        assert hits >= counts.d_j_N
        moments = clusters.cluster_moments(psi, 4)
        power = np.eye(psi.projected.shape[0])
        for k in range(5):
            trace_val = float(np.trace(power)) / psi.d_j
            assert abs(moments[k] - trace_val) <= 1e-8 * max(
                1.0, abs(moments[k]), abs(trace_val)
            )
            power = power @ psi.projected
    weak = clusters.weak_limit_check(
        CHI, lambda lam: lam, [2, 3, 4, 5], szego.f_identity(), 6, basis=level6
    )
    assert weak.samples[-1].abs_error <= 0.05
    _announce(
        6,
        f"counts exact for births 2..5, localized atoms at cell values to "
        f"1e-10, moment/trace to 1e-8, final weak-limit error "
        f"{weak.samples[-1].abs_error:.2e}",
    )


def test_criterion_7_lipschitz_trials(level5):
    rng = np.random.default_rng(20260809)
    base = SimpleFunction(2, np.repeat(CHI.values, 3))
    worst_excess = -math.inf
    for trial in range(100):
        delta = float(rng.uniform(0.01, 1.0))
        eta = clusters.random_simple_perturbation(rng, 2, delta)
        chi2 = SimpleFunction(2, base.values + eta.values)
        disp = clusters.lipschitz_check(
            lambda lam: lam, base, chi2, 5, basis=level5
        )
        assert disp <= delta + 1e-9, f"trial {trial}: {disp} > {delta} + 1e-9"
        worst_excess = max(worst_excess, disp - delta)
    _announce(7, f"100 trials within bound, worst displacement-minus-delta "
                 f"{worst_excess:.2e}")


def test_criterion_8_functional_calculus(level5, level5_table):
    table = level5_table
    sym = operators.riesz_symbol(1.0)
    sel = operators.selection_from_bundles(level5.bundles)
    op = operators.compress(sym, sel)
    eigs = operators.operator_eigenvalues(op)
    # the spectrum map restricted to the basis is the compressed spectrum
    own = np.sort([sym.p_lambda(lam) for lam in sel.lambdas])
    assert np.max(np.abs(eigs - own)) <= 1e-10
    image = spectrum_map(sym.p_lambda, table)
    assert set(np.round(own, 12)) <= set(np.round(image, 12))

    f1 = lambda x: x ** 2
    f2 = lambda x: 1.0 / x
    a, b = 1.75, -0.5
    combo = operators.trace_F(op, lambda x: a * f1(x) + b * f2(x))
    assert combo == pytest.approx(
        a * operators.trace_F(op, f1) + b * operators.trace_F(op, f2),
        rel=1e-10,
        abs=1e-10,
    )
    assert operators.trace_F(op, lambda x: (x - 1.0) ** 2) >= 0.0

    bounds = operators.spectral_bounds(sym, table, 0.05, sel)
    for upto in (4, 11, len(level5.bundles)):
        sub = operators.compress(
            sym,
            operators.selection_from_bundles(level5.bundles[:upto]),
        )
        sub_eigs = operators.operator_eigenvalues(sub)
        assert sub_eigs[0] >= bounds.A - 1e-12
        assert sub_eigs[-1] <= bounds.B + 1e-12
    _announce(
        8,
        f"spectrum map matches compressions to 1e-10; trace functional "
        f"linear and positive; all eigenvalues inside "
        f"[{bounds.A:.4f}, {bounds.B:.4f}]",
    )


def test_criterion_9_validate_determinism(tmp_path):
    config = cli.RunConfig.from_dict({"command": "validate", "m": 5})
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.run(config, out1) == 0
    assert cli.run(config, out2) == 0
    body1 = (out1 / "validate.csv").read_bytes()
    body2 = (out2 / "validate.csv").read_bytes()
    assert body1 == body2
    lines = body1.decode().splitlines()
    assert all(",PASS," in line for line in lines[1:])
    _announce(9, f"validate at m=5 reruns byte-identical "
                 f"({len(lines) - 1} checks, {len(body1)} bytes)")
