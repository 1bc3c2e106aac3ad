import math

import numpy as np
import pytest

from gasket_szego import decimation, eigenbasis, operators, szego
from gasket_szego.clusters import (
    build_schrodinger,
    cluster_moments,
    clusters_to_csv,
    decimation_family,
    identify_clusters,
    lipschitz_check,
    moments_to_csv,
    random_simple_perturbation,
    schrodinger_spectrum,
    separation_check,
    sup_difference,
    weak_limit_check,
    weak_limit_report,
)
from gasket_szego.errors import DomainError, StructuralError
from gasket_szego.gasket import SimpleFunction, constant_function, integrate_simple

from dense_oracle import dense_schrodinger

M = 5
CHI = SimpleFunction(1, [0.8, 1.0, 1.2])
IDENT = lambda lam: lam


def test_zero_potential_is_diagonal(level5):
    zero = constant_function(0.0, 1)
    h = build_schrodinger(IDENT, zero, M, basis=level5)
    dense, _, _ = dense_schrodinger(IDENT, zero, level5)
    off = dense - np.diag(np.diag(dense))
    assert np.max(np.abs(off)) <= 1e-12
    diagonal = [IDENT(float(lam)) for lam in h.basis.lambdas]
    assert np.allclose(np.diag(dense), diagonal, atol=1e-12)
    assert np.max(np.abs(h.remainder_potential), initial=0.0) <= 1e-12
    assert np.allclose(h.eigenvalues, np.sort(diagonal), atol=1e-12)


def test_zero_p_is_multiplication(level5):
    h = build_schrodinger(lambda lam: 0.0, CHI, M, basis=level5)
    dense, _, _ = dense_schrodinger(lambda lam: 0.0, CHI, level5)
    sel = operators.selection_from_bundles(level5.bundles)
    m_chi = operators.compress(
        operators.multiplication_symbol(CHI), sel
    )
    assert np.max(np.abs(
        np.linalg.eigvalsh(dense) - operators.operator_eigenvalues(m_chi)
    )) <= 1e-12
    assert np.max(
        np.abs(h.eigenvalues - operators.operator_eigenvalues(m_chi))
    ) <= 1e-14


def test_cross_construction_identity(level5):
    # p = identity with simple chi matches the separable compression
    h = build_schrodinger(IDENT, CHI, M, basis=level5)
    dense, _, _ = dense_schrodinger(IDENT, CHI, level5)
    sym = operators.separable_symbol(lambda lam: lam, 0.0, CHI)
    sel = operators.selection_from_bundles(level5.bundles)
    gamma = operators.compress(sym, sel)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(
        np.linalg.eigvalsh(dense) - operators.operator_eigenvalues(gamma)
    )) <= 1e-10 * scale
    assert np.max(
        np.abs(h.eigenvalues - operators.operator_eigenvalues(gamma))
    ) <= 1e-10 * scale


def test_lower_bound_postcondition(level5):
    h = build_schrodinger(IDENT, CHI, M, basis=level5)
    floor = min(IDENT(float(lam)) for lam in h.basis.lambdas) + CHI.min_value
    assert h.eigenvalues[0] >= floor - 1e-9


@pytest.mark.parametrize("m", [2, 4, 5, 6])
@pytest.mark.parametrize("chi", [CHI, SimpleFunction(2, np.linspace(0.5, 1.5, 9))])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_eigenvalue_only_spectrum_matches_build(m, chi, offset):
    # eigvalsh of the block build_schrodinger solves with eigh
    p = lambda lam: lam + offset
    h = build_schrodinger(p, chi, m)
    nu = schrodinger_spectrum(p, chi, m)
    assert nu.shape == h.eigenvalues.shape
    scale = np.max(np.abs(h.eigenvalues))
    assert np.max(np.abs(nu - h.eigenvalues)) <= 1e-12 * scale


def test_eigenvalue_only_spectrum_checks_the_floor(monkeypatch):
    # a floor min p + min chi raised above the spectrum fails both
    original = operators.limit_range
    monkeypatch.setattr(
        operators, "limit_range",
        lambda limit, vertices: tuple(v + 1.0 for v in original(limit, vertices)),
    )
    for solve in (build_schrodinger, schrodinger_spectrum):
        with pytest.raises(StructuralError, match="undercuts the bound"):
            solve(IDENT, CHI, 5)


def test_p_is_evaluated_once_per_eigenspace():
    basis = eigenbasis.level_basis(5)
    calls = []

    def p(lam):
        calls.append(lam)
        return lam

    h = build_schrodinger(p, CHI, 5, basis=basis)
    assert sorted(calls) == [b.record.value for b in basis.bundles]
    # p = identity: each atom and remainder column carries its own lam
    m_chi = operators.compress(operators.multiplication_symbol(CHI), h.basis)
    assert np.array_equal(h.atom_p, m_chi.atom_lambdas)
    assert np.array_equal(h.remainder_p, m_chi.remainder_lambdas)
    calls.clear()
    schrodinger_spectrum(p, CHI, 5, basis)
    assert len(calls) == len(basis.bundles)


def test_constant_potential_shifts_exactly(level5):
    family = decimation_family([2, 3, 4], level5)
    h = build_schrodinger(IDENT, constant_function(0.7, 1), M, basis=level5)
    rep = identify_clusters(h, family)
    assert rep.threshold_j == 2
    for psi in rep.clusters:
        assert np.max(np.abs(psi.positions - 0.7)) <= 1e-12


def test_constant_p_offset_keeps_clusters(level5):
    # localized eigenvalues sit exactly on a window edge; the window padding
    # must follow the rounding of eigh, which grows with max|H|
    family = decimation_family([2, 3, 4, 5], level5)
    reports = [
        identify_clusters(
            build_schrodinger(lambda lam, c=offset: lam + c, CHI, M, basis=level5),
            family,
        )
        for offset in (0.0, 1e6)
    ]
    assert reports[1].threshold_j == reports[0].threshold_j
    assert reports[1].counts == reports[0].counts


def test_exact_shift_covariance(level5):
    family = decimation_family([3, 4], level5)
    h0 = build_schrodinger(IDENT, CHI, M, basis=level5)
    h1 = build_schrodinger(IDENT, CHI.shifted(0.4), M, basis=level5)
    r0 = identify_clusters(h0, family)
    r1 = identify_clusters(h1, family)
    for a, b in zip(r0.clusters, r1.clusters):
        assert np.max(np.abs((a.positions + 0.4) - b.positions)) <= 1e-12


def test_cluster_counts_and_completeness(level5):
    family = decimation_family([2, 3, 4, 5], level5)
    h = build_schrodinger(IDENT, CHI, M, basis=level5)
    rep = identify_clusters(h, family)
    assert rep.threshold_j == 2
    for rec in family:
        assert rep.counts[rec.birth] == rec.multiplicity
    inside = sum(rep.counts.values())
    outside = 0
    for nu in h.eigenvalues:
        if not any(lo <= nu <= hi for lo, hi in rep.windows.values()):
            outside += 1
    assert inside + outside == h.dim


def test_localized_atoms_sit_at_cell_values(level5):
    family = decimation_family([4, 5], level5)
    h = build_schrodinger(IDENT, CHI, M, basis=level5)
    rep = identify_clusters(h, family)
    for psi in rep.clusters:
        counts = decimation.localization_counts(6, psi.j, 1)
        for a in CHI.values:
            hits = int(np.sum(np.abs(psi.positions - a) <= 1e-10))
            assert hits >= counts.m_j_N
        total_hits = sum(
            int(np.sum(np.abs(psi.positions - a) <= 1e-10)) for a in CHI.values
        )
        assert total_hits >= counts.d_j_N


def test_window_overlap_error(level5):
    family = decimation_family([2, 3], level5)
    wide = SimpleFunction(1, [-4000.0, 0.0, 4000.0])
    h = build_schrodinger(IDENT, wide, M, basis=level5)
    with pytest.raises(DomainError):
        identify_clusters(h, family)


def test_moments_examples(level5):
    family = decimation_family([4], level5)
    h = build_schrodinger(IDENT, constant_function(0.9, 1), M, basis=level5)
    rep = identify_clusters(h, family)
    psi = rep.clusters[0]
    moments = cluster_moments(psi, 4)
    assert moments[0] == pytest.approx(1.0, abs=1e-14)
    for k in range(5):
        assert moments[k] == pytest.approx(0.9 ** k, abs=1e-10)


def test_moment_trace_identity(level5):
    family = decimation_family([3, 4, 5], level5)
    h = build_schrodinger(IDENT, CHI, M, basis=level5)
    rep = identify_clusters(h, family)
    for psi in rep.clusters:
        moments = cluster_moments(psi, 4)
        power = np.eye(psi.projected.shape[0])
        for k in range(5):
            trace_val = float(np.trace(power)) / psi.d_j
            assert moments[k] == pytest.approx(trace_val, rel=1e-8, abs=1e-12)
            power = power @ psi.projected


def test_cluster_moment_vs_simple_bound(level5):
    # for simple chi the moment approaches the closed-form integral
    family = decimation_family([5], level5)
    h = build_schrodinger(IDENT, CHI, M, basis=level5)
    rep = identify_clusters(h, family)
    psi = rep.clusters[0]
    counts = decimation.localization_counts(6, 5, 1)
    for k in (1, 2, 3):
        moment = cluster_moments(psi, k)[k]
        target = integrate_simple(CHI, k)
        slack = (
            counts.alpha_N / counts.d_j * integrate_simple(CHI, k)
            + (counts.alpha_N ** k / counts.d_j) * CHI.sup_norm ** k
        )
        assert abs(moment - target) <= slack


def test_weak_limit_simple(level5):
    rep = weak_limit_check(CHI, IDENT, [2, 3, 4, 5], szego.f_identity(), M, basis=level5)
    assert rep.target == pytest.approx(integrate_simple(CHI, 1), rel=1e-14)
    assert rep.verdict.trend_ok
    assert rep.samples[-1].abs_error < 5e-3
    for s in rep.samples:
        assert s.head_mass + s.tail_mass == s.d


def test_weak_limit_rejects_repeated_births(level4):
    with pytest.raises(DomainError, match="repeats 3"):
        weak_limit_check(CHI, IDENT, [2, 3, 3], szego.f_identity(), 4,
                         basis=level4)


def test_weak_limit_report_reads_the_report_level(level6):
    # the head/tail split is at the generation cut (6 + 1) // 2 = 3 of the
    # level the clusters were identified at
    h = build_schrodinger(IDENT, CHI, 6, "identity", level6)
    report = identify_clusters(h, decimation_family([3, 4], level6))
    assert report.m == 6
    weak = weak_limit_report(report, CHI, [3, 4], szego.f_identity())
    assert weak.metadata["m"] == 6
    assert [(s.index, s.head_mass, s.tail_mass) for s in weak.samples] == [
        (3, 12, 0), (4, 0, 39)
    ]


def test_empty_cluster_births_are_rejected(level4):
    with pytest.raises(DomainError, match="^empty birth range$"):
        weak_limit_check(CHI, IDENT, [], szego.f_identity(), 4, basis=level4)
    with pytest.raises(DomainError, match="^empty birth range$"):
        decimation_family([], level4)
    h = build_schrodinger(IDENT, CHI, 4, "identity", level4)
    report = identify_clusters(h, decimation_family([3, 4], level4))
    with pytest.raises(DomainError, match="^empty birth range$"):
        weak_limit_report(report, CHI, [], szego.f_identity())


def test_weak_limit_continuous(level5):
    chi = lambda x, y: x
    rep = weak_limit_check(chi, IDENT, [3, 4, 5], szego.f_power(2), M, basis=level5)
    assert rep.target == pytest.approx(11.0 / 36.0, abs=1e-9)
    assert rep.verdict.trend_ok


def test_lipschitz_exact_shift(level5):
    # noise floor of the dense solve scales with the matrix norm, so the
    # machine-exactness check runs at a small level
    disp_small = lipschitz_check(IDENT, CHI, CHI.shifted(0.3), 2)
    assert disp_small == pytest.approx(0.3, abs=1e-12)
    disp = lipschitz_check(IDENT, CHI, CHI.shifted(0.3), M, basis=level5)
    assert disp == pytest.approx(0.3, abs=1e-9)
    assert lipschitz_check(IDENT, CHI, CHI, M, basis=level5) <= 1e-12


def test_lipschitz_random_perturbations(level5):
    rng = np.random.default_rng(42)
    for _ in range(20):
        delta = float(rng.uniform(0.01, 1.0))
        eta = random_simple_perturbation(rng, 2, delta)
        chi2 = SimpleFunction(2, np.repeat(CHI.values, 3) + eta.values)
        disp = lipschitz_check(IDENT, CHI, chi2, 4)
        assert disp <= delta + 1e-9


def test_lipschitz_large_p_offset(level5):
    # localized eigenvalues move by exactly the cell change, and eigh rounds
    # them by a few eps * max|nu|, which grows with the offset of p
    rng = np.random.default_rng(7)
    for offset in (1e6, 1e8):
        for _ in range(10):
            eta = random_simple_perturbation(rng, 2, 0.05)
            chi2 = SimpleFunction(2, np.repeat(CHI.values, 3) + eta.values)
            # raises StructuralError when the displacement exceeds the bound
            lipschitz_check(
                lambda lam, c=offset: lam + c, CHI, chi2, M, basis=level5
            )


def test_sup_difference_levels():
    a = SimpleFunction(1, [1.0, 2.0, 3.0])
    b = SimpleFunction(2, np.repeat([1.0, 2.0, 3.0], 3) + 0.25)
    vs = eigenbasis.level_basis(3).vertices
    assert sup_difference(a, b, vs) == pytest.approx(0.25, abs=1e-14)


def test_separation_check_identity():
    family = [r.value for r in decimation.separated_sequence(5).records]
    rep = separation_check(IDENT, family, 1.0, 1.0, 0.0)
    assert rep.ok and rep.increasing_ok
    assert rep.sharp_c >= 1.0 - 1e-12


def test_separation_check_constant_fails():
    family = [r.value for r in decimation.separated_sequence(4).records]
    rep = separation_check(lambda lam: 1.0, family, 0.5, 1.0, 0.0)
    assert not rep.ok
    assert rep.worst_margin < 0


def test_separation_check_sqrt():
    family = [r.value for r in decimation.separated_sequence(5).records]
    rep = separation_check(math.sqrt, family, 1e-9, 0.5, 1.0)
    assert rep.ok
    sharp = rep.sharp_c
    again = separation_check(math.sqrt, family, sharp * 0.999, 0.5, 1.0)
    assert again.ok
    worse = separation_check(math.sqrt, family, sharp * 1.001, 0.5, 1.0)
    assert not worse.ok


def test_cluster_csv_outputs(tmp_path, level5):
    family = decimation_family([3, 4], level5)
    h = build_schrodinger(IDENT, CHI, M, basis=level5)
    rep = identify_clusters(h, family)
    hist = tmp_path / "clusters.csv"
    clusters_to_csv(rep.clusters, hist)
    lines = hist.read_text().splitlines()
    assert lines[0] == "j,center,position,weight"
    assert len(lines) == 1 + sum(c.d_j for c in rep.clusters)
    mom = tmp_path / "moments.csv"
    moments_to_csv(rep.clusters, 3, lambda k: integrate_simple(CHI, k), mom)
    lines = mom.read_text().splitlines()
    assert lines[0] == "j,k,moment,target,abs_error"
    assert len(lines) == 1 + 4 * len(rep.clusters)


def test_family_validation(level5):
    with pytest.raises(DomainError):
        decimation_family([7], level5)  # beyond the graph level


@pytest.mark.parametrize("m", range(1, 9))
def test_decimation_family_is_the_separated_sequence(m):
    # the level workspace's smallest 6-series eigenvalue of each birth is
    # the separated family's member, bit for bit; a birth below 2 or above
    # the level is refused by name
    base = eigenbasis.level_basis(m)
    members = decimation.separated_sequence(m).records
    births = list(range(2, m + 1))
    if births:
        got = decimation_family(births, base)
        assert got == list(members)
        assert [r.value.hex() for r in got] == [r.value.hex() for r in members]
    with pytest.raises(DomainError, match=r"^births \[0, 1\] not in the 5-fold family$"):
        decimation_family([0, 1, *births], base)
    with pytest.raises(DomainError, match=f"^birth {m + 1} not resolvable at level {m}$"):
        decimation_family([*births, m + 1, m + 3], base)
