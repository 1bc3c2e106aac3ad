import json
import math

import pytest

from gasket_szego import decimation, operators
from gasket_szego.errors import DomainError, WindowError
from gasket_szego.gasket import SimpleFunction, integrate_simple
from gasket_szego.operators import (
    constant_symbol,
    multiplication_symbol,
    riesz_symbol,
    separable_symbol,
)
from gasket_szego.szego import (
    f_identity,
    f_polynomial,
    f_power,
    logdet_sandwich,
    make_trace_function,
    plot_error_svg,
    szego_logdet_full,
    szego_logdet_single_series,
    szego_trace_full,
    szego_trace_single_series,
    target_integral,
)

from dense_oracle import dense_compression, trace_power

M = 5


def grid_for(basis, points=4):
    values = sorted({b.record.value for b in basis.bundles})
    window = decimation.resolvable_window(basis.level)
    picks = [values[len(values) // 4], values[len(values) // 2], values[-1]]
    return [v * 1.0000001 for v in picks[: points - 1]] + [
        0.5 * (values[-1] + window)
    ]


def test_trace_functions():
    assert f_power(2).fn(3.0) == 9.0
    assert f_polynomial([1.0, 0.0, 2.0]).fn(2.0) == 9.0
    assert make_trace_function("identity").name == "identity"
    assert make_trace_function("power", k=3).fn(2.0) == 8.0
    with pytest.raises(DomainError):
        make_trace_function("nope")
    with pytest.raises(DomainError):
        f_power(-1)


def test_target_integral_paths():
    assert target_integral(2.0, lambda x: x ** 2)[0] == 4.0
    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    val, info = target_integral(f, lambda x: x ** 2)
    assert val == pytest.approx((1 + 4 + 9) / 3, rel=1e-15)
    assert info["converged"]
    # continuous oracle: second moment of the coordinate via IFS recursion
    val2, _ = target_integral(lambda x, y: x, lambda t: t ** 2)
    assert val2 == pytest.approx(11.0 / 36.0, abs=1e-9)


def test_constant_symbol_trace_exact(level5):
    sym = constant_symbol(lambda lam: 2.5, limit=2.5, name="constant(2.5)")
    rep = szego_trace_single_series(
        sym, f_identity(), 6, [2, 3, 4], 1, M, basis=level5
    )
    assert rep.target == 2.5
    for s in rep.samples:
        assert s.abs_error <= 1e-13


def test_riesz_trace_single_series_trend(level5):
    rep = szego_trace_single_series(
        riesz_symbol(1.0), f_identity(), 6, [2, 3, 4, 5], 1, M, basis=level5
    )
    assert rep.target == 1.0
    errors = [s.abs_error for s in rep.samples]
    assert errors == sorted(errors, reverse=True)
    assert rep.verdict.trend_ok
    # single eigenspace: (1/d) Tr Gamma = p(lambda_j) exactly
    for s, j in zip(rep.samples, (2, 3, 4, 5)):
        lam = level5.family_bundle(6, j).record.value
        assert s.value == pytest.approx(1.0 + 1.0 / lam, rel=1e-12)


def test_riesz_five_series(level5):
    rep = szego_trace_single_series(
        riesz_symbol(1.0), f_identity(), 5, [2, 3, 4, 5], 1, M, basis=level5
    )
    assert rep.verdict.trend_ok
    assert rep.samples[-1].abs_error < 1e-3


def test_simple_function_bound_holds_at_every_sample(level5):
    # the exact finite-j bound, not just the limit
    f = SimpleFunction(1, [0.5, 1.25, 2.0])
    sym = multiplication_symbol(f)
    for k in (1, 2, 3):
        rep = szego_trace_single_series(
            sym, f_power(k), 6, [2, 3, 4, 5], 1, M, basis=level5
        )
        assert rep.target == pytest.approx(integrate_simple(f, k), rel=1e-14)
        bounds = {b["j"]: b["bound"] for b in rep.metadata["simple_function_bounds"]}
        for s in rep.samples:
            assert s.abs_error <= bounds[int(s.index)]
    # for F the identity the bound is the k = 1 one, (alpha_N / d_j) times
    # the integral of |f| (f is positive) plus its sup
    rep = szego_trace_single_series(
        sym, f_identity(), 6, [2, 3, 4, 5], 1, M, basis=level5
    )
    bounds = rep.metadata["simple_function_bounds"]
    assert [b["j"] for b in bounds] == [2, 3, 4, 5]
    for b in bounds:
        counts = decimation.localization_counts(6, b["j"], 1)
        expected = (counts.alpha_N / counts.d_j) * (
            integrate_simple(f, 1) + f.sup_norm
        )
        assert b["bound"] == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_trace_full_generation_split(level5):
    rep = szego_trace_full(
        riesz_symbol(1.0), f_identity(), grid_for(level5), M, basis=level5
    )
    fractions = [s.head_mass / s.d for s in rep.samples]
    # the early-generation mass fraction dies out along the sweep (the limit
    # claim); pointwise monotonicity is not guaranteed on fine grids
    assert fractions[-1] <= fractions[0]
    assert fractions[-1] < 0.75
    for s in rep.samples:
        assert s.head_mass + s.tail_mass == s.d
    # dimension bookkeeping is exact against the counting function
    for s in rep.samples:
        assert s.d == decimation.enumerate_spectrum(s.index).d_lambda


def test_trace_full_separable(level5):
    chi = SimpleFunction(1, [0.8, 1.0, 1.2])
    sym = separable_symbol(lambda lam: 1.0 / lam, 0.0, chi, lower_bound=0.5)
    rep = szego_trace_full(sym, f_identity(), grid_for(level5), M, basis=level5)
    assert rep.target == pytest.approx(integrate_simple(chi, 1), rel=1e-14)
    assert rep.verdict.trend_ok
    assert rep.samples[-1].abs_error < 5e-3


def test_window_enforcement(level5):
    window = decimation.resolvable_window(M)
    with pytest.raises(WindowError):
        szego_trace_full(
            riesz_symbol(1.0), f_identity(), [window * 1.01], M, basis=level5
        )


def test_single_series_preconditions(level5):
    with pytest.raises(DomainError):
        szego_trace_single_series(
            riesz_symbol(1.0), f_identity(), 6, [6], 1, M, basis=level5
        )
    with pytest.raises(DomainError):
        szego_trace_single_series(
            riesz_symbol(1.0), f_identity(), 6, [1], 1, M, basis=level5
        )
    with pytest.raises(DomainError):
        szego_trace_single_series(
            riesz_symbol(1.0), f_identity(), 4, [3], 1, M, basis=level5
        )
    # at N = 0, which only the API allows, the 6-series has no birth 1
    with pytest.raises(DomainError, match="birth 1"):
        szego_trace_single_series(
            riesz_symbol(1.0), f_identity(), 6, [1], 0, M, basis=level5
        )


def test_logdet_constant_exact(level5):
    sym = constant_symbol(
        lambda lam: 2.0, limit=2.0, lower_bound=2.0, name="constant(2)"
    )
    rep = szego_logdet_single_series(sym, 6, [2, 3, 4], 1, M, basis=level5)
    assert rep.target == pytest.approx(math.log(2.0), rel=1e-15)
    for s in rep.samples:
        assert s.abs_error <= 1e-10
    full = szego_logdet_full(sym, grid_for(level5), M, basis=level5)
    for s in full.samples:
        assert s.abs_error <= 1e-10


def test_logdet_riesz_tends_to_zero(level5):
    rep = szego_logdet_single_series(
        riesz_symbol(1.0), 6, [2, 3, 4, 5], 1, M, basis=level5
    )
    assert rep.target == 0.0
    assert rep.verdict.trend_ok
    assert abs(rep.samples[-1].value) < 1e-3
    full = szego_logdet_full(riesz_symbol(1.0), grid_for(level5), M, basis=level5)
    assert full.verdict.trend_ok


def test_logdet_requires_positive_lower_bound(level5):
    sym = constant_symbol(lambda lam: 1.0, limit=1.0)  # no lower bound declared
    with pytest.raises(DomainError):
        szego_logdet_single_series(sym, 6, [2, 3], 1, M, basis=level5)


def test_logdet_full_checks_the_lower_bound_before_the_target(level4):
    # log q of a nonpositive limit has no integral: the lower-bound check
    # refuses the symbol first, as in single mode
    chi = SimpleFunction(1, [-1.0, 1.0, 2.0])
    for sym in (constant_symbol(lambda lam: -1.0, limit=-1.0),
                separable_symbol(lambda lam: 1.0 / lam, 0.0, chi)):
        with pytest.raises(DomainError, match="lower bound"):
            szego_logdet_full(sym, [100.0], 4, basis=level4)


def test_logdet_separable_target(level5):
    chi = SimpleFunction(1, [1.0, 1.5, 2.0])
    sym = separable_symbol(lambda lam: 1.0 / lam, 0.0, chi, lower_bound=1.0)
    rep = szego_logdet_single_series(sym, 6, [3, 4, 5], 1, M, basis=level5)
    expect = math.fsum(math.log(a) for a in chi.values) / 3.0
    assert rep.target == pytest.approx(expect, rel=1e-12)
    assert rep.samples[-1].abs_error < 0.02


def test_logdet_sandwich(level5):
    chi = SimpleFunction(1, [1.0, 1.5, 2.0])
    sym = separable_symbol(lambda lam: 1.0 / lam, 0.0, chi, lower_bound=1.0)
    rows = logdet_sandwich(sym, chi, 0.05, 6, [3, 4, 5], M, basis=level5)
    assert all(r["ratio_condition"] for r in rows)
    for r in rows:
        assert r["lower"] <= r["value"] <= r["upper"]
        assert r["sandwiched"]


def test_logdet_sandwich_detects_violated_ratio(level5):
    chi = SimpleFunction(1, [1.0, 1.5, 2.0])
    sym = separable_symbol(lambda lam: 1.0 / lam, 0.0, chi, lower_bound=1.0)
    rows = logdet_sandwich(sym, chi, 1e-6, 6, [2], M, basis=level5)
    assert rows[0]["ratio_condition"] is False
    assert "value" not in rows[0]


def test_report_roundtrip(tmp_path, level5):
    rep = szego_trace_single_series(
        riesz_symbol(1.0), f_identity(), 6, [2, 3, 4], 1, M, basis=level5
    )
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    rep.to_csv(csv_path)
    rep.to_json(json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,d,value,abs_error,head_mass,tail_mass"
    assert len(lines) == 1 + len(rep.samples)
    payload = json.loads(json_path.read_text())
    # abs_error recomputes from value and target on load
    for s in payload["samples"]:
        assert s["abs_error"] == pytest.approx(
            abs(s["value"] - payload["target"]), abs=1e-16
        )
    assert payload["metadata"]["f_domain"] == "evaluability-only"


def test_plot_svg(tmp_path, level5):
    rep = szego_trace_single_series(
        riesz_symbol(1.0), f_identity(), 6, [2, 3, 4], 1, M, basis=level5
    )
    path = tmp_path / "plot.svg"
    plot_error_svg(rep, path)
    text = path.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_power_trace_consistency(level5):
    # trace_F with F = x^k equals direct matrix powering
    chi = SimpleFunction(1, [0.8, 1.0, 1.2])
    sym = multiplication_symbol(chi)
    bundle = level5.family_bundle(6, 4)
    sel = operators.selection_from_bundles([bundle])
    op = operators.compress(sym, sel)
    dense = dense_compression(None, chi, sel)
    for k in range(7):
        assert operators.trace_F(op, lambda x, _k=k: x ** _k) == pytest.approx(
            trace_power(dense, k), rel=1e-8, abs=1e-10
        )


SAMPLE_COLUMNS = ["index", "d", "value", "abs_error", "head_mass", "tail_mass"]


def test_report_metadata_keys_and_csv_header(tmp_path, level4):
    # each report kind carries exactly its metadata keys, and every report
    # file the sample columns
    from gasket_szego import clusters

    chi = SimpleFunction(1, [0.8, 1.0, 1.2])
    riesz = riesz_symbol(1.0)
    sep = separable_symbol(
        lambda lam: 1.0 / lam, 0.0, SimpleFunction(1, [1.0, 1.5, 2.0]),
        lower_bound=1.0,
    )
    grid = grid_for(level4)
    single = {"experiment", "symbol", "series", "m", "N", "generation_cut",
              "target_info"}
    full = {"experiment", "symbol", "m", "window", "generation_cut",
            "target_info"}
    traced = {"F", "f_domain"}
    cases = [
        (szego_trace_single_series(riesz, f_identity(), 6, [2, 3, 4], 1, 4,
                                   basis=level4),
         "szego-trace-single", single | traced),
        (szego_trace_single_series(multiplication_symbol(chi), f_power(2), 6,
                                   [2, 3, 4], 1, 4, basis=level4),
         "szego-trace-single", single | traced | {"simple_function_bounds"}),
        (szego_trace_full(riesz, f_identity(), grid, 4, basis=level4),
         "szego-trace-full", full | traced),
        (szego_logdet_single_series(sep, 6, [2, 3, 4], 1, 4, basis=level4),
         "szego-logdet-single", single),
        (szego_logdet_full(sep, grid, 4, basis=level4),
         "szego-logdet-full", full),
        (clusters.weak_limit_check(chi, lambda lam: lam, [2, 3, 4],
                                   f_identity(), 4, "identity", level4),
         "cluster-weak-limit",
         {"experiment", "F", "p", "m", "threshold_j", "target_info"}),
    ]
    for i, (report, experiment, keys) in enumerate(cases):
        assert set(report.metadata) == keys, experiment
        assert report.metadata["experiment"] == experiment
        report.to_csv(tmp_path / f"r{i}.csv")
        report.to_json(tmp_path / f"r{i}.json")
        lines = (tmp_path / f"r{i}.csv").read_text().splitlines()
        assert lines[0] == ",".join(SAMPLE_COLUMNS)
        assert len(lines) == 1 + len(report.samples)
        payload = json.loads((tmp_path / f"r{i}.json").read_text())
        assert set(payload) == {"target", "samples", "verdict", "metadata"}
        assert set(payload["metadata"]) == keys
        assert all(set(s) == set(SAMPLE_COLUMNS) for s in payload["samples"])
        assert set(payload["verdict"]) == {
            "first_error", "last_error", "monotone_nonincreasing", "trend_ok"
        }


def test_single_series_rejects_repeated_births(level4):
    # each birth is one sample; [3, 2, 3] would sample birth 3 twice
    with pytest.raises(DomainError, match="repeats 3"):
        szego_trace_single_series(riesz_symbol(1.0), f_identity(), 6,
                                  [3, 2, 3], 1, 4, basis=level4)


def test_full_sweep_rejects_repeated_cutoffs(level4):
    with pytest.raises(DomainError, match="repeats 100.0"):
        szego_logdet_full(riesz_symbol(1.0), [100.0, 100.0], 4, basis=level4)


def test_empty_births_and_cutoffs_are_rejected(level4):
    # the check that named them before any sample is still the first
    riesz = riesz_symbol(1.0)
    with pytest.raises(DomainError, match="^empty birth range$"):
        szego_trace_single_series(riesz, f_identity(), 6, [], 1, 4, basis=level4)
    with pytest.raises(DomainError, match="^empty cutoff grid$"):
        szego_logdet_full(riesz, [], 4, basis=level4)


def test_sandwich_epsilon_edges_are_refused(level4):
    riesz = riesz_symbol(1.0)
    one = SimpleFunction(0, [1.0])
    for epsilon in (0.0, 1.0):
        with pytest.raises(DomainError, match=r"epsilon must be in \(0, 1\)"):
            logdet_sandwich(riesz, one, epsilon, 6, [3], 4, basis=level4)


def test_sandwich_births_are_checked(level4):
    riesz = riesz_symbol(1.0)
    one = SimpleFunction(0, [1.0])
    with pytest.raises(DomainError, match="^empty birth range$"):
        logdet_sandwich(riesz, one, 0.5, 6, [], 4, basis=level4)
    # j = 3 twice was two identical entries
    with pytest.raises(DomainError, match="repeats 3"):
        logdet_sandwich(riesz, one, 0.5, 6, [3, 3], 4, basis=level4)
    rows = logdet_sandwich(riesz, one, 0.5, 6, [4, 3], 4, basis=level4)
    assert [r["j"] for r in rows] == [3, 4]


@pytest.mark.parametrize("cut", [0, -3])
def test_generation_cut_below_one_is_rejected(level4, cut):
    # 0 silently became the default, and -3 gave every sample head mass 0
    riesz = riesz_symbol(1.0)
    with pytest.raises(DomainError, match=f"generation cut must be at least 1, got {cut}"):
        szego_trace_single_series(riesz, f_identity(), 6, [2, 3], 1, 4,
                                  generation_cut=cut, basis=level4)
    with pytest.raises(DomainError, match=f"generation cut must be at least 1, got {cut}"):
        szego_logdet_full(riesz, [100.0, 3000.0], 4, generation_cut=cut,
                          basis=level4)
    # a cut of 1 is kept as given, not replaced by the default 2
    report = szego_trace_full(riesz, f_identity(), [100.0, 3000.0], 4,
                              generation_cut=1, basis=level4)
    assert report.metadata["generation_cut"] == 1


def test_basis_of_another_level_is_rejected(level4, level5):
    # a basis of level 5 passed for m = 4, or of level 4 for m = 5, would
    # compress at the basis' level while the report says m
    from gasket_szego import clusters, eigenbasis

    riesz = riesz_symbol(1.0)
    chi = SimpleFunction(1, [0.8, 1.0, 1.2])
    ident = lambda lam: lam  # noqa: E731
    for basis, m in ((level5, 4), (eigenbasis.level_basis(5), 4),
                     (level4, 5)):
        calls = [
            lambda: szego_trace_single_series(
                riesz, f_identity(), 6, [2, 3, 4], 1, m, basis=basis),
            lambda: szego_trace_full(riesz, f_identity(), [100.0], m,
                                     basis=basis),
            lambda: szego_logdet_single_series(riesz, 6, [2, 3, 4], 1, m,
                                               basis=basis),
            lambda: szego_logdet_full(riesz, [100.0], m, basis=basis),
            lambda: logdet_sandwich(riesz, SimpleFunction(0, [1.0]), 0.05, 6,
                                    [3, 4], m, basis=basis),
            lambda: clusters.build_schrodinger(ident, chi, m, "p", basis),
            lambda: clusters.weak_limit_check(chi, ident, [2, 3, 4],
                                              f_identity(), m, basis=basis),
            lambda: clusters.lipschitz_check(ident, chi, chi, m, basis=basis),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=f"level {basis.level} .* m = {m}"):
                call()
