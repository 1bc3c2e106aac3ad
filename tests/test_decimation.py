import dataclasses
import hashlib
import importlib.util
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_szego import decimation
from gasket_szego.decimation import (
    EXPANDING,
    CONTRACTING,
    EigenvalueRecord,
    decimation_preimages,
    eigenvalue_limit,
    enumerate_spectrum,
    interior_dimension,
    localization_counts,
    make_record,
    resolvable_window,
    separated_sequence,
    series_multiplicity,
    spectrum_to_csv,
    truncated_graph_spectrum,
)
from gasket_szego.errors import (
    ConvergenceError,
    DomainError,
    ResourceLimitError,
)
from gasket_szego.gasket import build_dirichlet_laplacian, build_vertices

from dense_oracle import (
    reference_graph_spectrum,
    reference_limit,
    reference_resolvable_window,
    reference_separated_sequence,
    reference_spectrum,
    reference_spectrum_csv,
)


def _deepest_benchmark_cutoff() -> float:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return max(workloads.spectrum_cutoffs())


# frozen from the fixed-point iteration, cross-confirmed by the dense
# eigensolves below: the smallest renormalized Dirichlet eigenvalue
SMALLEST_EIGENVALUE = 16.815998889346


def test_preimages_of_two():
    lo, hi = decimation_preimages(2.0)
    assert lo == pytest.approx((5 - math.sqrt(17)) / 2, abs=1e-12)
    assert hi == pytest.approx((5 + math.sqrt(17)) / 2, abs=1e-12)
    assert lo == pytest.approx(0.4384471871911697, abs=1e-10)
    assert hi == pytest.approx(4.5615528128088303, abs=1e-10)


def test_preimages_trivial_cases():
    assert decimation_preimages(0.0) == (0.0, 5.0)
    lo, hi = decimation_preimages(25.0 / 4.0)
    assert lo == pytest.approx(2.5, abs=1e-12)
    assert hi == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(DomainError):
        decimation_preimages(6.26)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 25.0 / 4.0))
def test_preimages_substitute_back(lam_prev):
    lo, hi = decimation_preimages(lam_prev)
    assert lo <= hi
    assert lo < 2.5 or lam_prev == 25.0 / 4.0
    for root in (lo, hi):
        assert root * (5.0 - root) == pytest.approx(lam_prev, abs=1e-12)


def test_eigenvalue_limit_smallest():
    rec = make_record(2, 1)
    assert rec.value == pytest.approx(SMALLEST_EIGENVALUE, rel=1e-10)
    assert len(rec.graph_values) <= 41  # stabilizes to 12 digits in at most 40 steps


def test_eigenvalue_limit_series_order():
    two = eigenvalue_limit(2, 1)
    five = eigenvalue_limit(5, 1)
    assert five > two


def test_eigenvalue_limit_stopping_rule():
    tol = 1e-12
    rec = make_record(2, 1)
    value, trace = rec.value, rec.graph_values
    m_stop = 1 + len(trace) - 1
    r_stop = 1.5 * 5.0 ** m_stop * trace[-1]
    r_prev = 1.5 * 5.0 ** (m_stop - 1) * trace[-2]
    assert value == r_stop
    assert abs(r_stop - r_prev) < tol * abs(r_stop)


def test_eigenvalue_limit_forced_six_step():
    with pytest.raises(DomainError, match="must expand at its first step"):
        eigenvalue_limit(6, 2, (CONTRACTING,))
    auto = eigenvalue_limit(6, 2, ())
    explicit = eigenvalue_limit(6, 2, (EXPANDING,))
    assert auto == explicit


def test_eigenvalue_limit_no_convergence():
    with pytest.raises(ConvergenceError) as err:
        eigenvalue_limit(5, 1, (EXPANDING,) * 59)
    assert str(err.value).endswith(
        "within 60 steps (series 5, birth 1, 59 explicit branches)"
    )
    # more explicit steps than MAX_STEPS leave no contracting tail
    with pytest.raises(ConvergenceError, match="500 explicit branches"):
        eigenvalue_limit(5, 1, (EXPANDING,) * 500)


def test_series_multiplicities():
    assert series_multiplicity(2, 1) == 1
    with pytest.raises(DomainError):
        series_multiplicity(2, 2)
    assert [series_multiplicity(5, j) for j in (1, 2, 3, 4)] == [2, 3, 6, 15]
    assert [series_multiplicity(6, j) for j in (2, 3, 4, 5)] == [3, 12, 39, 120]
    with pytest.raises(DomainError):
        series_multiplicity(6, 1)
    with pytest.raises(DomainError):
        series_multiplicity(7, 1)


def test_enumerate_below_smallest_is_empty():
    table = enumerate_spectrum(SMALLEST_EIGENVALUE * 0.99)
    assert table.records == []
    assert table.d_lambda == 0


def test_enumerate_at_smallest():
    table = enumerate_spectrum(SMALLEST_EIGENVALUE * 1.0001)
    assert len(table.records) == 1
    rec = table.records[0]
    assert (rec.series, rec.birth, rec.multiplicity) == (2, 1, 1)
    assert table.d_lambda == 1


def test_enumerate_sorted_with_ties_broken():
    table = enumerate_spectrum(5000.0)
    values = [r.value for r in table.records]
    assert values == sorted(values)
    keys = [(r.value, r.series, r.birth, r.branches) for r in table.records]
    assert keys == sorted(keys)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, 0.0, -1.0])
def test_enumerate_rejects_bad_cutoffs(cutoff):
    with pytest.raises(DomainError, match="positive and finite"):
        enumerate_spectrum(cutoff)


def test_enumerate_record_cap(monkeypatch):
    monkeypatch.setattr(decimation, "RECORD_CAP", 5)
    with pytest.raises(ResourceLimitError, match="record cap 5 below"):
        enumerate_spectrum(1e6)


def test_enumerate_record_cap_fails_fast(monkeypatch):
    # the queue is flushed every cap + 1 nodes, so an exceeded cap stops the
    # search long before the tree below 1e30 is explored
    monkeypatch.setattr(decimation, "RECORD_CAP", 1000)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError, match="record cap 1000"):
            enumerate_spectrum(1e30)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 5 * 2**20


def test_enumerate_record_cap_bounds_frontier_memory(monkeypatch):
    # an exceeded cap stops the search before the frontier reaches the
    # widest levels below 1e12 (57,343 records, 114,685 canonical nodes)
    monkeypatch.setattr(decimation, "RECORD_CAP", 20_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="record cap 20000"):
            enumerate_spectrum(1e12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("cutoff", [1e3, 1e6, 1e9, 3e10])
def test_frontier_equals_depth_first_oracle(cutoff):
    # the same records in the same order, and values equal, not close
    got = enumerate_spectrum(cutoff).records
    want = reference_spectrum(cutoff)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.series, a.birth, a.branches, a.multiplicity) == (
            b.series, b.birth, b.branches, b.multiplicity
        )
        assert a.value == b.value


@pytest.mark.parametrize("cutoff", [1e6, 1e9])
def test_batched_limits_equal_scalar_limits(cutoff):
    # the numpy tail is the scalar iteration elementwise: equal, not close
    table = enumerate_spectrum(cutoff)
    assert {r.series for r in table.records} == {2, 5, 6}
    for rec in table.records:
        assert rec.value == reference_limit(rec.series, rec.birth, rec.branches)


def test_contracting_limits_forced_six_step_and_errors():
    # nodes as arrays (series, birth, explicit steps, lam); a 6 seed has no
    # contracting root, so it must arrive after its forced expanding step
    with pytest.raises(DomainError, match="forced expanding step"):
        decimation._contracting_limits([6], [2], [0], [6.0])
    with pytest.raises(DomainError, match="25/4"):
        decimation._contracting_limits([5], [1], [0], [6.3])
    # explicit steps count against MAX_STEPS, as in eigenvalue_limit; the
    # error names the first node that did not converge
    with pytest.raises(ConvergenceError, match="birth 1, 59 explicit"):
        decimation._contracting_limits([2, 5, 5], [1, 1, 2], [0, 59, 60],
                                       [2.0, 4.0, 4.0])


@pytest.mark.parametrize("max_steps", [3, 20])
def test_enumerate_raises_when_limits_do_not_converge(monkeypatch, max_steps):
    # with 20 steps every search root converges (in at most 18), so the
    # error comes from the batched tail of a deeper record
    monkeypatch.setattr(decimation, "MAX_STEPS", max_steps)
    with pytest.raises(ConvergenceError, match=f"within {max_steps} steps"):
        enumerate_spectrum(1e6)


def test_spectrum_csv_pinned(tmp_path):
    # sha256 of the file written when every record was built one at a time
    path = tmp_path / "spectrum.csv"
    spectrum_to_csv(enumerate_spectrum(1e7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4f74a41a6d72832f7c4140fb3effd53fb6265676dd18494f5c48663bb36c9e41"
    )


@pytest.mark.parametrize("cutoff", [1e3, 1e6, 1e9, _deepest_benchmark_cutoff()])
def test_spectrum_csv_equals_record_writer(tmp_path, cutoff):
    # the file written from the arrays has the bytes of the per-record one
    table = enumerate_spectrum(cutoff)
    spectrum_to_csv(table, tmp_path / "arrays.csv")
    reference_spectrum_csv(table, tmp_path / "records.csv")
    got = (tmp_path / "arrays.csv").read_bytes()
    assert got == (tmp_path / "records.csv").read_bytes()


@pytest.mark.parametrize("cutoff", [1e4, 1e9])
def test_table_reductions_equal_record_sums(cutoff):
    table = enumerate_spectrum(cutoff)
    records = table.records
    assert table.value.tolist() == [r.value for r in records]
    assert table.multiplicity.tolist() == [r.multiplicity for r in records]
    assert table.d_lambda == sum(r.multiplicity for r in records)
    assert type(table.d_lambda) is int
    grid = [0.0, cutoff, math.nan] + [
        v * f for v in table.value[::7] for f in (1.0, 1.000001)
    ]
    for lam in grid:
        assert table.count_upto(lam) == sum(
            r.multiplicity for r in records if r.value <= lam
        )


def test_table_builds_records_once():
    table = enumerate_spectrum(1e6)
    assert table.records is table.records


@pytest.mark.parametrize("m", range(1, 5))
def test_oracle_equivalence_small_levels(m):
    # dense eigensolve oracle validates the whole decimation hypothesis
    lap = build_dirichlet_laplacian(build_vertices(m))
    dense = np.linalg.eigvalsh(lap)
    predicted = truncated_graph_spectrum(m)
    expanded = np.sort(
        np.concatenate([np.full(g.multiplicity, g.graph_value) for g in predicted])
    )
    assert expanded.size == dense.size == interior_dimension(m)
    assert np.max(np.abs(dense - expanded) / np.maximum(1.0, np.abs(expanded))) < 1e-8


@pytest.mark.parametrize("m", range(1, 10))
def test_truncated_spectrum_equals_recursive_oracle(m):
    # the same entries in the same order, every field equal, not close
    got = truncated_graph_spectrum(m)
    want = reference_graph_spectrum(m)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.graph_value, a.series, a.birth, a.prefix, a.multiplicity) == (
            b.graph_value, b.series, b.birth, b.prefix, b.multiplicity
        )
        assert a.record == b.record


def test_truncated_spectrum_is_cached_and_immutable():
    first = truncated_graph_spectrum(4)
    assert truncated_graph_spectrum(4) is first
    assert isinstance(first, tuple)
    with pytest.raises(AttributeError):
        first.append(first[0])


@pytest.mark.parametrize("m", range(1, 9))
def test_multiplicity_sum_identity(m):
    total = sum(g.multiplicity for g in truncated_graph_spectrum(m))
    assert total == interior_dimension(m)


def test_branch_consistency():
    table = enumerate_spectrum(2.0e5)
    for rec in table.records:
        assert rec.graph_values == reference_limit(
            rec.series, rec.birth, rec.branches, with_trace=True
        )[1]
        for prev, cur in zip(rec.graph_values, rec.graph_values[1:]):
            assert cur * (5.0 - cur) == pytest.approx(prev, abs=1e-12)
        assert rec.graph_values[0] == float(rec.series)


def test_localization_counts_paper_values():
    c = localization_counts(6, 4, 2)
    assert (c.d_j, c.d_j_N, c.m_j_N, c.alpha_N) == (39, 27, 3, 12)
    assert c.d_j_N == 3 ** 2 * c.m_j_N
    c5 = localization_counts(5, 3, 1)
    assert (c5.d_j, c5.d_j_N, c5.m_j_N, c5.alpha_N) == (6, 3, 1, 3)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([5, 6]),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=11),
)
def test_localization_count_identities(series, birth, n_level):
    if n_level >= birth:
        with pytest.raises(DomainError):
            localization_counts(series, birth, n_level)
        return
    c = localization_counts(series, birth, n_level)
    assert c.d_j == c.d_j_N + c.alpha_N
    assert c.d_j_N == 3 ** n_level * c.m_j_N
    assert c.m_j_N >= 0
    if series == 5:
        assert c.alpha_N == (3 ** n_level + 3) // 2
    else:
        assert c.alpha_N == (3 ** (n_level + 1) - 3) // 2


def test_separated_sequence_scaling():
    family = separated_sequence(6)
    births = [r.birth for r in family.records]
    assert births == [2, 3, 4, 5, 6]
    for prev, cur in zip(family.records, family.records[1:]):
        assert cur.value / prev.value == pytest.approx(5.0, rel=1e-10)
    assert all(g > 0 for g in family.gaps)
    assert list(family.gaps) == sorted(family.gaps)  # gaps grow monotonically


@pytest.mark.parametrize("j_max", range(1, 9))
def test_separated_sequence_equals_record_loop(j_max):
    # the same members, and gaps equal, not close
    got = separated_sequence(j_max)
    want = reference_separated_sequence(j_max)
    assert got.records == want.records
    assert got.gaps == want.gaps


def test_separated_sequence_is_cached_and_immutable():
    # computed once per process and shared, so no caller can change it
    family = separated_sequence(5)
    assert separated_sequence(5) is family
    assert isinstance(family.records, tuple) and isinstance(family.gaps, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        family.gaps = ()


def test_separated_sequence_minimal():
    family = separated_sequence(1)
    assert len(family.records) == 1
    assert family.records[0].birth == 2
    assert family.records[0].series == 6


def test_counting_function_monotone_right_continuous():
    table = enumerate_spectrum(1.0e4)
    grid = [v for r in table.records for v in (r.value, r.value * 1.000001)]
    grid.sort()
    counts = [table.count_upto(x) for x in grid]
    assert counts == sorted(counts)
    for rec in table.records:
        at = table.count_upto(rec.value)
        above = table.count_upto(rec.value * (1 + 1e-12))
        assert at == above  # the step is closed on the right


def test_resolvable_window_level2():
    # the first non-resolvable eigenvalue at level 2 is the birth-2 record
    # whose expanding step sits at level 3
    window = resolvable_window(2)
    blocker = eigenvalue_limit(5, 2, (EXPANDING,))
    assert window == blocker
    table = enumerate_spectrum(window * 0.999)
    assert all(
        len(r.branches) <= 2 - r.birth
        or (r.series == 6 and r.branches == (EXPANDING,) and r.birth == 2)
        for r in table.records
    )


@pytest.mark.parametrize("m", range(1, 9))
def test_resolvable_window_matches_the_hand_built_records(m):
    assert resolvable_window(m) == reference_resolvable_window(m)


def test_spectrum_csv_roundtrip(tmp_path):
    table = enumerate_spectrum(1000.0)
    path = tmp_path / "spectrum.csv"
    spectrum_to_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "value,series,birth,multiplicity,branches"
    assert lines[-1] == f"# d_lambda,{table.d_lambda}"
    parsed = [line.split(",") for line in lines[1:-1]]
    assert len(parsed) == len(table.records)
    for row, rec in zip(parsed, table.records):
        assert float(row[0]) == rec.value  # 17 significant digits round-trip
        assert int(row[3]) == rec.multiplicity


def test_make_record_validation():
    with pytest.raises(DomainError):
        make_record(6, 2, (CONTRACTING,))
    with pytest.raises(DomainError):
        make_record(2, 2)
    rec = make_record(6, 3)
    assert rec.branches == (EXPANDING,)
    assert rec.key == "6:3:+"


def test_record_key_is_made_once():
    # the key is a field set at construction, not an f-string per read; it
    # takes no part in equality, hashing or the repr
    rec = make_record(6, 3, (EXPANDING, CONTRACTING))
    assert "key" in {f.name for f in dataclasses.fields(EigenvalueRecord)}
    assert rec.key == "6:3:+-" and rec.key is rec.key
    twin = EigenvalueRecord(6, 3, rec.branches, rec.value, rec.multiplicity)
    assert twin == rec and hash(twin) == hash(rec) and twin.key == rec.key
    assert "key" not in repr(rec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.key = "6:3:++"
