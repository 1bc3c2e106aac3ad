import dataclasses
import json
import math

import numpy as np
import pytest

from gasket_szego import decimation, eigenbasis, gasket, operators, szego
from gasket_szego.errors import ConvergenceError, DomainError, StructuralError
from gasket_szego.gasket import SimpleFunction, constant_function
from gasket_szego.operators import (
    bessel_symbol,
    compress,
    constant_symbol,
    leading_selection,
    log_det,
    make_symbol,
    multiplication_symbol,
    operator_eigenvalues,
    operator_to_csv,
    riesz_symbol,
    selection_from_bundles,
    separable_symbol,
    spectral_bounds,
    spectrum_map,
    symbol_sup_distance,
    tabulated_symbol,
    trace_F,
)

from dense_oracle import dense_compression, split_columns, trace_power


def test_riesz_preset():
    sym = riesz_symbol(1.0)
    assert sym.p_lambda(2.0) == pytest.approx(1.5, abs=1e-15)
    assert sym.limit_q == 1.0
    assert sym.lower_bound == 1.0
    with pytest.raises(DomainError):
        riesz_symbol(0.0)
    with pytest.raises(DomainError):
        bessel_symbol(-1.0)


def test_bessel_preset():
    sym = bessel_symbol(2.0)
    assert sym.p_lambda(1.0) == pytest.approx(1.25, abs=1e-15)
    assert sym.limit_q == 1.0


def test_make_symbol_dispatch():
    sym = make_symbol("riesz", beta=1.0)
    assert sym.name == "riesz(beta=1)"
    assert make_symbol("bessel", beta=2.0).p_lambda(1.0) == 1.25
    with pytest.raises(DomainError):
        make_symbol("mystery")
    for kind in ("riesz", "bessel"):
        with pytest.raises(DomainError, match=f"{kind} exponent must be positive"):
            make_symbol(kind, beta=0.0)


def test_multiplication_constant_limit():
    f = constant_function(2.0, level=1)
    sym = multiplication_symbol(f)
    assert sym.limit_q is f
    assert sym.lower_bound == 2.0


def test_separable_zero_limit_is_chi():
    chi = SimpleFunction(1, [1.0, 2.0, 3.0])
    sym = separable_symbol(lambda lam: 1.0 / lam, 0.0, chi)
    assert isinstance(sym.limit_q, SimpleFunction)
    assert np.array_equal(sym.limit_q.values, chi.values)


def test_identity_symbol_gives_identity_matrix(level4):
    sel = selection_from_bundles(level4.bundles[:5])
    op = compress(constant_symbol(lambda lam: 1.0, limit=1.0), sel)
    assert op.remainder.shape == (0, 0)
    assert np.max(np.abs(operator_eigenvalues(op) - 1.0)) <= 1e-12


def test_constant_coefficient_on_one_bundle(level4):
    bundle = level4.family_bundle(6, 3)
    sym = riesz_symbol(1.0)
    op = compress(sym, selection_from_bundles([bundle]))
    expect = sym.p_lambda(bundle.record.value)
    assert op.remainder.shape == (0, 0)
    assert np.max(np.abs(operator_eigenvalues(op) - expect)) <= 1e-12


def test_indicator_block_structure(level4):
    # indicator of the first level-1 cell on a birth-3 eigenspace: the
    # localized vectors are exact eigenvectors, atoms at the cell values
    f = SimpleFunction(1, [1.0, 0.0, 0.0])
    bundle = level4.family_bundle(6, 3)
    sel = selection_from_bundles([bundle])
    op = compress(multiplication_symbol(f), sel)
    m_cell = decimation.localization_counts(6, 3, 1).m_j_N
    expected_atoms = [0.0] * (2 * m_cell) + [1.0] * m_cell
    assert np.array_equal(np.sort(op.atoms), expected_atoms)
    # in split order the dense product is diagonal on the localized columns
    # and block-diagonal with the trailing non-localized block
    columns, _ = split_columns(bundle, 1)
    dense = dense_compression(None, f, sel, columns)
    allowed = np.zeros((sel.dim, sel.dim), dtype=bool)
    allowed[np.diag_indices(3 * m_cell)] = True
    allowed[3 * m_cell :, 3 * m_cell :] = True
    assert np.max(np.abs(dense[~allowed])) <= 1e-12
    assert np.max(np.abs(np.diag(dense)[: 3 * m_cell]
                         - np.repeat(f.values, m_cell))) <= 1e-12
    assert np.max(np.abs(operator_eigenvalues(op)
                         - np.linalg.eigvalsh(dense))) <= 1e-12


def test_mixed_level_error(level4):
    other = eigenbasis.level_basis(3)
    with pytest.raises(StructuralError):
        selection_from_bundles([level4.bundles[0], other.bundles[0]])


def test_trace_f_examples(level4):
    bundle = level4.family_bundle(6, 3)
    sel = selection_from_bundles([bundle])
    c_op = compress(constant_symbol(lambda lam: 2.0, limit=2.0), sel)
    assert trace_F(c_op, lambda x: x) == pytest.approx(2.0 * bundle.dim, rel=1e-12)
    # nonnegative F gives a nonnegative trace
    assert trace_F(c_op, lambda x: x ** 2) >= 0.0


def test_trace_f_power_cross_check(level4):
    f = SimpleFunction(1, [0.5, 1.5, 2.5])
    bundle = level4.family_bundle(6, 4)
    sel = selection_from_bundles([bundle])
    op = compress(multiplication_symbol(f), sel)
    dense = dense_compression(None, f, sel)
    for k in range(0, 7):
        via_eigs = trace_F(op, lambda x, _k=k: x ** _k)
        via_power = trace_power(dense, k)
        assert via_eigs == pytest.approx(via_power, rel=1e-8, abs=1e-10)


def test_trace_f_linear_and_positive(level4):
    bundle = level4.family_bundle(5, 3)
    sel = selection_from_bundles([bundle])
    f = SimpleFunction(1, [0.3, 1.1, 2.2])
    op = compress(multiplication_symbol(f), sel)
    f1 = lambda x: x ** 2
    f2 = lambda x: 3.0 - x
    a, b = 2.5, -1.25
    combo = trace_F(op, lambda x: a * f1(x) + b * f2(x))
    parts = a * trace_F(op, f1) + b * trace_F(op, f2)
    assert combo == pytest.approx(parts, rel=1e-10, abs=1e-10)
    nonneg = trace_F(op, lambda x: max(0.0, x))
    assert nonneg >= 0.0


def test_log_det_examples(level4):
    bundle = level4.family_bundle(6, 3)
    sel = selection_from_bundles([bundle])
    c_op = compress(constant_symbol(lambda lam: 3.0, limit=3.0), sel)
    assert log_det(c_op) == pytest.approx(bundle.dim * math.log(3.0), rel=1e-12)
    tiny = operators.CompressedOperator(
        level=4,
        asymmetry=0.0,
        remainder=np.diag([2.0, 3.0]),
        remainder_lambdas=np.array([1.0, 1.0]),
    )
    assert log_det(tiny) == pytest.approx(math.log(6.0), rel=1e-14)
    bad = operators.CompressedOperator(
        level=4,
        asymmetry=0.0,
        remainder=np.diag([2.0, -1.0]),
        remainder_lambdas=np.array([1.0, 1.0]),
    )
    with pytest.raises(DomainError):
        log_det(bad)


def test_atom_only_operator():
    op = operators.CompressedOperator(
        level=4,
        asymmetry=0.0,
        atoms=np.array([2.0, 3.0, 5.0]),
        atom_lambdas=np.array([1.0, 2.0, 3.0]),
    )
    assert trace_F(op, lambda x: x) == 10.0
    assert log_det(op) == pytest.approx(math.log(30.0), rel=1e-14)
    head = op.up_to(2.0)
    assert head.dim == 2
    assert np.array_equal(head.atoms, [2.0, 3.0])
    assert head.remainder.shape == (0, 0)
    assert trace_F(head, lambda x: x) == 5.0
    # below the smallest eigenvalue nothing is left: both are empty sums
    empty = op.up_to(0.0)
    assert empty.dim == 0
    assert trace_F(empty, lambda x: x) == 0.0
    assert log_det(empty) == 0.0


def test_log_det_monotone(level4):
    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    bundle = level4.family_bundle(6, 3)
    sel = selection_from_bundles([bundle])
    lo = compress(multiplication_symbol(f.scaled(0.9)), sel)
    hi = compress(multiplication_symbol(f.scaled(1.1)), sel)
    gap_eigs = np.linalg.eigvalsh(
        dense_compression(None, f.scaled(1.1), sel)
        - dense_compression(None, f.scaled(0.9), sel)
    )
    assert gap_eigs[0] >= -1e-12  # quadratic-form order verified by eigenvalues
    # Weyl monotonicity carries the order to the compressions' spectra
    assert np.all(operator_eigenvalues(hi) - operator_eigenvalues(lo) >= -1e-12)
    assert log_det(lo) <= log_det(hi)


def test_operator_monotonicity_transfer(level4):
    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    bundle = level4.family_bundle(6, 3)
    sel = selection_from_bundles([bundle])
    lo = compress(multiplication_symbol(f.shifted(-0.25)), sel)
    hi = compress(multiplication_symbol(f.shifted(0.25)), sel)
    lo_eigs = operator_eigenvalues(lo)
    hi_eigs = operator_eigenvalues(hi)
    assert np.all(lo_eigs <= hi_eigs + 1e-10)


def test_spectral_bounds_constant(level4, level4_table):
    sym = constant_symbol(lambda lam: 2.0, limit=2.0)
    sel = selection_from_bundles(level4.bundles)
    bounds = spectral_bounds(sym, level4_table, 0.1, sel)
    assert bounds.A == pytest.approx(1.9, abs=1e-9)
    assert bounds.B == pytest.approx(2.1, abs=1e-9)


def test_spectral_bounds_riesz(level4, level4_table, monkeypatch):
    sym = riesz_symbol(1.0)
    sel = selection_from_bundles(level4.bundles)
    bounds = spectral_bounds(sym, level4_table, 0.1, sel)
    lam_min = level4_table.records[0].value
    head_top = 1.0 + 1.0 / lam_min
    assert bounds.A == pytest.approx(0.9, abs=1e-9)
    assert bounds.B == pytest.approx(max(1.1, head_top), rel=1e-9)
    # with epsilon below the head spread, the head supplies the top bound
    tight = spectral_bounds(sym, level4_table, 0.01, sel)
    assert tight.B == pytest.approx(head_top, rel=1e-9)
    # every compressed eigenvalue, at any cutoff, lies inside [A, B]
    for upto in (3, 7, len(level4.bundles)):
        op = compress(sym, selection_from_bundles(level4.bundles[:upto]))
        eigs = operator_eigenvalues(op)
        assert eigs[0] >= bounds.A - 1e-12
        assert eigs[-1] <= bounds.B + 1e-12
        assert eigs[0] >= tight.A - 1e-12
        assert eigs[-1] <= tight.B + 1e-12

    # q(lam) against a scalar limit samples one value at every vertex, so
    # the bounds come out the same with no vertex set built
    def refuse(m):
        raise AssertionError(f"built the level-{m} vertex set")

    monkeypatch.setattr(gasket, "_vertices", refuse)
    assert spectral_bounds(sym, level4_table, 0.1, sel) == bounds


def test_spectral_bounds_needs_limit(level4, level4_table):
    sym = constant_symbol(lambda lam: math.sin(lam))
    sel = selection_from_bundles(level4.bundles)
    with pytest.raises(DomainError):
        spectral_bounds(sym, level4_table, 0.1, sel)


def test_spectral_bounds_no_convergence(level4, level4_table):
    # declared limit far from the symbol: the declaration fails empirically
    sym = constant_symbol(lambda lam: math.sin(lam), limit=5.0)
    sel = selection_from_bundles(level4.bundles)
    with pytest.raises(ConvergenceError):
        spectral_bounds(sym, level4_table, 1e-3, sel)


def test_spectral_bounds_refuse_epsilon_zero(level4, level4_table):
    sel = selection_from_bundles(level4.bundles)
    with pytest.raises(DomainError, match="epsilon must be positive"):
        spectral_bounds(riesz_symbol(1.0), level4_table, 0.0, sel)


def test_spectral_bounds_distance_epsilon_at_the_top_fails(level4, level4_table):
    # a sup-distance of exactly epsilon is not within epsilon
    sel = selection_from_bundles(level4.bundles)
    flat = constant_symbol(lambda lam: 1.5, limit=1.0)
    with pytest.raises(ConvergenceError):
        spectral_bounds(flat, level4_table, 0.5, sel)


def test_spectral_bounds_cut_above_distance_epsilon(level4, level4_table):
    # distance exactly epsilon up to the eleventh eigenvalue, half of it
    # above: lambda-bar is the last eigenvalue at distance epsilon
    sel = selection_from_bundles(level4.bundles)
    edge = level4_table.value[10]
    step = constant_symbol(lambda lam: 1.5 if lam <= edge else 1.25, limit=1.0)
    assert spectral_bounds(step, level4_table, 0.5, sel).lambda_bar == edge


def test_up_to_rejects_a_descending_selection(level4):
    sel = selection_from_bundles(level4.bundles[4::-1])
    op = compress(riesz_symbol(1.0), sel)
    with pytest.raises(DomainError):
        op.up_to(level4.bundles[2].record.value)


def _tabulated_towards(base, table):
    # p(., lam) = base + 10/lam, one entry per eigenvalue of the table; a
    # shift keeps the dense compression symmetric across eigenspaces
    entries = [(r.value, base.shifted(10.0 / r.value)) for r in table.records]
    return tabulated_symbol(entries, limit_q=base)


@pytest.mark.parametrize("kind,epsilon", [
    ("riesz", 0.01), ("separable", 0.02), ("tabulated", 0.02),
])
def test_spectral_bounds_match_the_head_compression(
    level4, level4_table, kind, epsilon
):
    base = SimpleFunction(1, [1.0, 1.5, 2.0])
    sym = {
        "riesz": lambda: riesz_symbol(1.0),
        "separable": lambda: separable_symbol(lambda lam: 10.0 / lam, 0.0, base),
        "tabulated": lambda: _tabulated_towards(base, level4_table),
    }[kind]()
    sel = selection_from_bundles(level4.bundles)
    bounds = spectral_bounds(sym, level4_table, epsilon, sel)
    # the same bounds from a compression of the head eigenspaces alone
    head = [b for b in level4.bundles if b.record.value <= bounds.lambda_bar]
    sigma = operator_eigenvalues(
        compress(sym, selection_from_bundles(head))
    )
    qmin, qmax = operators.limit_range(sym.limit_q, level4.vertices)
    assert sigma[-1] > qmax + epsilon  # the head sets B
    assert bounds.A == pytest.approx(min(qmin - epsilon, sigma[0]), rel=1e-12)
    assert bounds.B == pytest.approx(sigma[-1], rel=1e-12)


def test_spectrum_map_identity_and_riesz(level4, level4_table):
    table = level4_table
    image = spectrum_map(lambda lam: lam, table)
    expanded = np.sort(
        np.concatenate([np.full(r.multiplicity, r.value) for r in table.records])
    )
    assert np.array_equal(image, expanded)
    riesz = spectrum_map(lambda lam: 1.0 + 1.0 / lam, table)
    assert np.all(riesz > 1.0)
    assert riesz[0] == pytest.approx(1.0, abs=1e-2)


def test_spectrum_map_matches_compression(level4):
    # constant-coefficient compressions are diagonal in the eigenbasis
    sym = riesz_symbol(1.0)
    sel = selection_from_bundles(level4.bundles)
    op = compress(sym, sel)
    eigs = operator_eigenvalues(op)
    mapped = np.sort([sym.p_lambda(lam) for lam in sel.lambdas])
    assert np.max(np.abs(eigs - mapped)) <= 1e-10


def test_spectrum_map_increasing_no_accumulation(level4, level4_table):
    image = spectrum_map(lambda lam: lam ** 2, level4_table)
    assert np.all(np.diff(np.unique(image)) > 1.0)


def test_completion_invariance(level4):
    # any orthonormal completion of the non-localized part gives the same
    # spectral functionals as the compression, which reads no columns
    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    bundle = level4.family_bundle(6, 4)
    sel = selection_from_bundles([bundle])
    columns, split = split_columns(bundle, 1)
    chi = f.shifted(0.5)
    op = compress(multiplication_symbol(chi), sel)

    rng = np.random.default_rng(7)
    alpha = split.nonlocalized.shape[1]
    q, _ = np.linalg.qr(rng.normal(size=(alpha, alpha)))
    rotated = np.hstack([columns[:, : sel.dim - alpha], split.nonlocalized @ q])
    for cols in (columns, rotated):
        sigma = np.linalg.eigvalsh(
            dense_compression(None, chi, sel, cols)
        )
        for F in (lambda x: x, lambda x: x ** 3, math.exp):
            assert trace_F(op, F) == pytest.approx(
                math.fsum(F(float(x)) for x in sigma), rel=1e-9, abs=1e-9
            )
        assert log_det(op) == pytest.approx(
            math.fsum(math.log(float(x)) for x in sigma), rel=1e-9
        )


def test_tabulated_symbol(level4):
    bundle = level4.family_bundle(6, 3)
    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    sym = tabulated_symbol([(bundle.record.value, f)], limit_q=f)
    assert sym.lower_bound == 1.0
    assert sym.on_eigenspace(bundle.record.value * (1 + 1e-12)) == (0.0, f)
    sel = selection_from_bundles([bundle])
    op = compress(sym, sel)
    direct = compress(multiplication_symbol(f), sel)
    assert np.array_equal(op.atoms, direct.atoms)
    assert np.array_equal(op.remainder, direct.remainder)
    with pytest.raises(DomainError):
        compress(sym, selection_from_bundles([level4.family_bundle(6, 4)]))
    with pytest.raises(DomainError, match="not a simple function"):
        tabulated_symbol([(bundle.record.value, lambda x, y: x)])
    # an empty table is refused when built, not at its first compression
    with pytest.raises(DomainError, match="no entries"):
        tabulated_symbol([], limit_q=f)


def test_tabulated_symbol_rejects_repeated_eigenvalues():
    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    lam = 1234.5
    with pytest.raises(DomainError, match="name one eigenvalue"):
        tabulated_symbol([(lam, f), (lam * (1 + 5e-10), f.shifted(1.0))])
    # entries just beyond the lookup tolerance are two eigenvalues
    sym = tabulated_symbol([(lam, f), (lam * (1 + 3e-9), f.shifted(1.0))])
    assert sym.on_eigenspace(lam)[1] is f


def _oracle_eigenvalues(sym, sel):
    """Ascending eigenvalues of the dense per-eigenspace product of `sym`."""
    parts = [sym.on_eigenspace(rec.value) for rec in sel.records]
    q = {rec.value: qi for rec, (qi, _) in zip(sel.records, parts)}
    mat = dense_compression(
        lambda lam: q[lam], [chi for _, chi in parts], sel
    )
    return np.linalg.eigvalsh(mat), mat


def test_tabulated_entries_at_mixed_levels(level5):
    # chi at level 1 and the same values written at level 2 alternate; the
    # shifts keep the table consistent across eigenspaces
    chi = SimpleFunction(1, [0.8, 1.0, 1.2])
    fine = SimpleFunction(2, np.repeat(chi.values, 3))
    sel = selection_from_bundles(
        [b for b in level5.bundles if b.record.value <= 80000.0]
    )
    entries = [
        (rec.value, (chi if i % 2 else fine).shifted(100.0 / rec.value))
        for i, rec in enumerate(sel.records)
    ]
    sym = tabulated_symbol(entries)
    op = compress(sym, sel)
    assert op.atoms.size > 0
    expected, _ = _oracle_eigenvalues(sym, sel)
    got = operator_eigenvalues(op)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_tabulated_cutoff_selection(level5):
    # shifted entries chi + q(lam) over a cutoff selection: the spectrum
    # against the dense oracle
    chi = SimpleFunction(2, [1.0, 1.5, 2.0, 0.5, 1.0, 1.5, 2.5, 3.0, 0.7])
    sel = selection_from_bundles(
        [b for b in level5.bundles if b.record.value <= 80000.0]
    )
    sym = tabulated_symbol(
        [(rec.value, chi.shifted(rec.value ** -1.0)) for rec in sel.records]
    )
    op = compress(sym, sel)
    expected, _ = _oracle_eigenvalues(sym, sel)
    got = operator_eigenvalues(op)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_asymmetric_table_raises(level5):
    # entries that differ by more than a constant do not commute with the
    # projection: the compression is not symmetric
    sel = selection_from_bundles(
        [b for b in level5.bundles if b.record.value <= 80000.0]
    )
    entries = [
        (rec.value, SimpleFunction(1, [1.0, 1.5, 2.0 + i]))
        for i, rec in enumerate(sel.records)
    ]
    sym = tabulated_symbol(entries)
    with pytest.raises(StructuralError, match="asymmetry"):
        compress(sym, sel)


ORACLE_SYMBOLS = {
    "riesz": riesz_symbol(1.0),
    "bessel": bessel_symbol(2.0),
    "constant": constant_symbol(lambda lam: 2.5, limit=2.5),
    "multiplication": multiplication_symbol(SimpleFunction(1, [0.8, 1.0, 1.2])),
    "separable": separable_symbol(
        lambda lam: lam ** -1.0,
        0.0,
        SimpleFunction(2, [1.0, 1.5, 2.0, 0.5, 1.0, 1.5, 2.5, 3.0, 0.7]),
    ),
    "callable-multiplication": multiplication_symbol(lambda x, y: 1.0 + x * y),
    "callable-separable": separable_symbol(
        lambda lam: lam ** -1.0, 0.0, lambda x, y: np.cos(3.0 * x) + y
    ),
}


def _oracle_selection(basis, kind):
    """The selection and the columns the oracle multiplies: the whole
    eigenspaces, or for "split" one eigenspace in its split's order."""
    bundle = basis.family_bundle(6, 4)
    if kind == "bundle":
        return selection_from_bundles([bundle]), None
    if kind == "split":
        return selection_from_bundles([bundle]), split_columns(bundle, 1)[0]
    return selection_from_bundles(
        [b for b in basis.bundles if b.record.value <= 80000.0]
    ), None


@pytest.mark.parametrize("selection", ["bundle", "cutoff", "split"])
@pytest.mark.parametrize("name", sorted(ORACLE_SYMBOLS))
def test_compress_matches_per_eigenspace_oracle(level5, name, selection):
    sym = ORACLE_SYMBOLS[name]
    sel, columns = _oracle_selection(level5, selection)
    oracle = dense_compression(sym.p_lambda, sym.chi, sel, columns)
    op = compress(sym, sel)
    assert op.dim == oracle.shape[0]
    if name.startswith("callable"):
        # nothing localizes at cell level m: the remainder is the whole
        # product over the eigenspaces' columns
        assert op.atoms.size == 0
        if columns is None:
            assert np.max(np.abs(op.remainder - oracle)) <= 1e-12
    expected = np.linalg.eigvalsh(oracle)
    got = operator_eigenvalues(op)
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_leading_selection_names_the_leading_eigenspaces(level4):
    cutoff = 3000.0
    leading = leading_selection(level4, cutoff)
    listed = selection_from_bundles(
        [b for b in level4.bundles if b.record.value <= cutoff]
    )
    assert leading == listed
    assert leading_selection(level4).dim == level4.vertices.n_interior
    with pytest.raises(DomainError):
        leading_selection(level4, 1.0)


def test_partial_eigenspace_is_refused(level4):
    # a selection names whole eigenspaces by their records, so no symbol,
    # simple, callable or lambda-only, ever compresses part of one
    bundle = level4.family_bundle(6, 3)
    part = dataclasses.replace(bundle, vectors=bundle.vectors[:, :2])
    for sym in (
        multiplication_symbol(SimpleFunction(1, [1.0, 2.0, 3.0])),
        multiplication_symbol(lambda x, y: 1.0 + x),
        riesz_symbol(1.0),
    ):
        with pytest.raises(StructuralError, match="2 of its"):
            compress(sym, selection_from_bundles([part]))


def test_lambda_only_compression_reads_no_vertex_set(monkeypatch):
    basis = eigenbasis.level_basis(5)
    sel = leading_selection(basis)

    def refuse(*args, **kwargs):
        raise AssertionError("read a vertex set")

    # every module that bound the builder by name
    for module in (gasket, eigenbasis, operators, szego):
        monkeypatch.setattr(module, "build_vertices", refuse)
    for sym in (riesz_symbol(1.0), bessel_symbol(0.5),
                constant_symbol(lambda lam: 2.0, limit=2.0)):
        op = compress(sym, sel)
        assert op.remainder.shape == (0, 0)
        assert np.array_equal(
            op.atoms, [sym.p_lambda(lam) for lam in sel.lambdas]
        )
    report = szego.szego_trace_single_series(
        riesz_symbol(1.0), szego.f_identity(), 6, [2, 3, 4, 5], 1, 5, basis=basis
    )
    assert [s.d for s in report.samples] == [
        basis.family_bundle(6, j).dim for j in (2, 3, 4, 5)
    ]


def test_diagonal_compression_skips_eigensolve(level5, monkeypatch):
    sel = leading_selection(level5)
    dense_eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting(a):
        calls.append(a.shape)
        return dense_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    # the whole basis, and its leading eigenspaces up to the 40th column
    cutoffs = (math.inf, float(sel.lambdas[39]))
    for sym in (riesz_symbol(1.0), bessel_symbol(0.5)):
        op = compress(sym, sel)
        oracle = dense_compression(sym.p_lambda, None, sel)
        for cutoff in cutoffs:
            sub = op.up_to(cutoff)
            d = sub.dim
            assert d >= 40
            assert np.array_equal(
                operator_eigenvalues(sub), dense_eigvalsh(oracle[:d, :d])
            )
    assert calls == []
    sym = ORACLE_SYMBOLS["separable"]
    sep = compress(sym, sel)
    eigs = operator_eigenvalues(sep)
    assert np.array_equal(
        eigs, np.sort(np.concatenate([sep.atoms, dense_eigvalsh(sep.remainder)]))
    )
    assert calls == [sep.remainder.shape]
    assert sep.remainder.shape[0] < sep.dim
    oracle = dense_eigvalsh(
        dense_compression(sym.p_lambda, sym.chi, sel)
    )
    assert np.max(np.abs(eigs - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_sup_distance_trend(level4, level4_table):
    sym = riesz_symbol(1.0)
    values = [r.value for r in level4_table.records]
    dists = [symbol_sup_distance(sym, v, level4.vertices) for v in values]
    assert all(b <= a for a, b in zip(dists, dists[1:]))


def test_operator_csv_dump(tmp_path, level4):
    bundle = level4.family_bundle(6, 3)
    csv_path = tmp_path / "op.csv"
    meta_path = tmp_path / "op.json"
    operator_to_csv(riesz_symbol(1.0), bundle, csv_path, meta_path)
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 1 + bundle.dim
    meta = json.loads(meta_path.read_text())
    assert meta["level"] == 4
    assert len(meta["lambda_assignment"]) == bundle.dim
    # a bundle of the level basis names its eigenspace but has no columns
    bare = eigenbasis.level_basis(4).family_bundle(6, 3)
    with pytest.raises(DomainError, match="carries no vectors"):
        operator_to_csv(riesz_symbol(1.0), bare, csv_path, meta_path)


@pytest.mark.parametrize("m", [4, 5])
def test_spectral_sums_evaluate_F_once_per_distinct_atom(m):
    # F once per distinct atom value and once per remainder eigenvalue, and
    # the sum exactly rounded as over every eigenvalue
    sel = leading_selection(eigenbasis.level_basis(m))
    chi = SimpleFunction(1, [1.0, 1.5, 2.0])
    op = compress(separable_symbol(lambda lam: lam ** -1.0, 0.0, chi), sel)
    sigma = operator_eigenvalues(op)
    calls = []

    def F(x):
        calls.append(x)
        return x * x

    assert trace_F(op, F) == math.fsum(float(s) ** 2 for s in sigma)
    assert len(calls) == np.unique(op.atoms).size + op.remainder.shape[0]
    assert len(calls) < sigma.size
    assert log_det(op) == math.fsum(math.log(float(s)) for s in sigma)
