"""The reduction of simple potentials to their non-localized remainder,
checked against the dense oracle, and the remainders built by decimation
lineage, checked against the junction SVD of whole eigenspaces."""
import dataclasses
import gc
import json
import math
import re
import weakref

import numpy as np
import pytest

from gasket_szego import cli, clusters, eigenbasis, operators
from gasket_szego.errors import (
    DomainError,
    MismatchError,
    StructuralError,
)
from gasket_szego.gasket import SimpleFunction

from dense_oracle import (
    dense_clusters,
    dense_compression,
    nonlocalized_remainder,
    selection_columns,
    whole_basis,
)

CHIS = {
    1: SimpleFunction(1, [0.8, 1.0, 1.2]),
    2: SimpleFunction(2, [1.0, 1.5, 2.0, 0.5, 1.0, 1.5, 2.5, 3.0, 0.7]),
}
OFFSETS = (0.0, 1e6, 1e8)


def _shifted_identity(offset):
    return lambda lam: lam + offset


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_reduced_spectrum_matches_dense_oracle(m, k, offset):
    basis = eigenbasis.level_basis(m)
    sel = operators.leading_selection(basis)
    p = _shifted_identity(offset)
    sym = operators.separable_symbol(p, 0.0, CHIS[k])
    op = operators.compress(sym, sel)
    dense = dense_compression(p, CHIS[k], sel)
    values = [rec.value for rec in sel.records]
    # cutoffs after a quarter, a half and three quarters of the
    # eigenspaces, and the whole basis
    for cutoff in (values[len(values) // 4], values[len(values) // 2],
                   values[3 * len(values) // 4], values[-1]):
        sub = op.up_to(cutoff)
        oracle = np.linalg.eigvalsh(dense[: sub.dim, : sub.dim])
        reduced = operators.operator_eigenvalues(sub)
        assert reduced.shape == oracle.shape
        assert np.max(np.abs(reduced - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m", [4, 5, 6])
def test_reduced_clusters_match_dense_oracle(m, k, offset):
    basis = eigenbasis.level_basis(m)
    p = _shifted_identity(offset)
    family = clusters.decimation_family(range(2, m + 1), basis)
    report = clusters.identify_clusters(
        clusters.build_schrodinger(p, CHIS[k], m, basis=basis), family
    )
    threshold, counts, positions = dense_clusters(p, CHIS[k], basis, family)
    assert report.threshold_j == threshold
    assert report.counts == counts
    assert [psi.j for psi in report.clusters] == [
        r.birth for r in family if r.birth >= threshold
    ]
    for psi in report.clusters:
        assert np.max(np.abs(psi.positions - positions[psi.j])) <= 1e-9


@pytest.mark.parametrize(
    "m, k, expected", [(5, 1, 117), (6, 1, 237), (5, 2, 174), (6, 2, 354)]
)
def test_remainder_dimensions(m, k, expected):
    basis = eigenbasis.level_basis(m)
    sel = operators.leading_selection(basis)
    rem = nonlocalized_remainder(selection_columns(sel), sel.records, m, k)
    assert rem.columns.shape == (basis.vertices.n_interior, expected)
    assert sum(rem.dims) == expected
    # the remainder columns are weighted-orthonormal
    w = eigenbasis.interior_weight(m)
    gram = rem.columns.T @ rem.columns * w
    assert np.max(np.abs(gram - np.eye(expected))) <= 1e-12


def test_eigensolves_see_only_the_remainder(level6, monkeypatch):
    sizes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, _original=original):
            sizes.append(a.shape[0])
            return _original(a)

        monkeypatch.setattr(np.linalg, name, recording)
    chi = CHIS[1]
    family = clusters.decimation_family([2, 3, 4, 5, 6], level6)
    h = clusters.build_schrodinger(lambda lam: lam, chi, 6, basis=level6)
    report = clusters.identify_clusters(h, family)
    for psi in report.clusters:
        clusters.cluster_moments(psi, 4)
    sym = operators.separable_symbol(lambda lam: lam ** -1.0, 0.0, chi)
    sel = operators.leading_selection(level6)
    operators.log_det(operators.compress(sym, sel))
    assert sizes and max(sizes) <= 237


def _four_neighbour_sums(functionals):
    """Junction functionals whose partial sums run over both k-cells."""

    def mutated(vertices, k):
        rows = functionals(vertices, k)
        n = vertices.n_interior
        rows_of = vertices.rows
        half = rows.shape[0] // 2
        out = np.full((rows.shape[0], 4), n)
        out[:half, :2] = rows[:half]
        for i, x in enumerate(vertices.interior[rows[:half, 0]]):
            cells = vertices.cells[np.any(vertices.cells == x, axis=1)]
            out[half + i] = rows_of[cells[cells != x]]
        return out

    return mutated


@pytest.mark.parametrize("mutation", ["no-partial-sums", "both-cells"])
def test_wrong_junction_functionals_mismatch(level5, monkeypatch, mutation):
    functionals = eigenbasis._junction_functionals

    def values_only(vertices, k):
        rows = functionals(vertices, k)
        return rows[: rows.shape[0] // 2]

    mutated = (
        values_only if mutation == "no-partial-sums"
        else _four_neighbour_sums(functionals)
    )
    monkeypatch.setattr(eigenbasis, "_junction_functionals", mutated)
    # a 5-series eigenspace vanishes on the older vertices, so neither set
    # of functionals tells its remainder from its localized vectors
    bundle = level5.family_bundle(5, 4)
    with pytest.raises(MismatchError):
        eigenbasis.eigenspace_remainder(bundle, 1)
    with pytest.raises(MismatchError):
        eigenbasis.localized_split(bundle, 1)


def _miscounted(rem):
    """`rem` claiming one localized vector too many per cell."""
    return dataclasses.replace(rem, per_cell=[c + 1 if c else c for c in rem.per_cell])


def _carried_through(monkeypatch, perturb):
    """Make validate's lineage walk hand each visit `perturb(bundle,
    remainder)` in place of the remainder it carried."""
    original = eigenbasis.walk_eigenspaces

    def walk(m, visit, k):
        return original(m, lambda bundle, rem: visit(bundle, perturb(bundle, rem)), k)

    monkeypatch.setattr(eigenbasis, "walk_eigenspaces", walk)


def _validate_m3(tmp_path):
    """validate at m = 3: its exit status and block-exactness row."""
    config = tmp_path / "validate.json"
    config.write_text(json.dumps({"m": 3}))
    out = tmp_path / "out"
    code = cli.main(["validate", "--config", str(config), "--out", str(out)])
    (row,) = [line for line in (out / "validate.csv").read_text().splitlines()
              if line.startswith("block-exactness")]
    return code, row


def test_localized_trace_is_checked(level5, monkeypatch, tmp_path):
    # a remainder that claims one localized vector too many per cell; the
    # compression never reads whole eigenspaces, so the localized-trace
    # check runs on its own, in validate's block-exactness row
    def margins(remainder):
        return [
            operators.localized_trace_margin(CHIS[1], bundle, remainder)
            for bundle in level5.bundles
        ]

    assert all(0.0 <= margin < 1.0 for margin in margins(
        eigenbasis.level_remainder(5, 1)))
    bare = eigenbasis.level_basis(5).bundles[0]
    with pytest.raises(DomainError, match="carries no vectors"):
        operators.localized_trace_margin(CHIS[1], bare, eigenbasis.level_remainder(5, 1))
    # every reader of a bundle's vectors names the eigenspace that has none
    bare = eigenbasis.level_basis(4).family_bundle(6, 3)
    missing = re.escape(f"eigenspace {bare.record.key} carries no vectors")
    for read in (
        lambda: eigenbasis.localized_split(bare, 1),
        lambda: eigenbasis.eigenspace_remainder(bare, 1),
        lambda: eigenbasis.save_bundle(bare, tmp_path / "bare.csv"),
    ):
        with pytest.raises(DomainError, match=missing):
            read()
    assert not (tmp_path / "bare.csv").exists()
    with pytest.raises(StructuralError):
        margins(_miscounted(eigenbasis.level_remainder(5, 1)))
    # validate checks the remainder its walk carries beside each eigenspace
    _carried_through(monkeypatch, lambda bundle, rem: _miscounted(rem))
    code, row = _validate_m3(tmp_path)
    assert code == 1
    assert ",FAIL," in row and "localized trace" in row


def test_a_remainder_turned_toward_the_kernel_fails_the_lineage_check(
    monkeypatch, tmp_path
):
    # one column of one carried remainder turned by 1e-9 toward a localized
    # vector of its eigenspace: its span moves past the 1e-12 angle
    # tolerance, and the row fails while the file is still written.  (A
    # column's sign flip leaves the span, and every compression, unchanged.)
    turned = []

    def turn(bundle, rem):
        if turned or not rem.per_cell[0] or not rem.dims[0]:
            return rem
        turned.append(bundle.record.key)
        u, q = bundle.require_vectors(), rem.columns
        w = eigenbasis.interior_weight(bundle.level)
        kernel = u - q @ (q.T @ u * w)
        v = kernel[:, np.argmax(np.linalg.norm(kernel, axis=0))]
        v = v / np.sqrt(w * (v @ v))
        columns = q.copy()
        columns[:, 0] = math.cos(1e-9) * q[:, 0] + math.sin(1e-9) * v
        return dataclasses.replace(rem, columns=columns)

    _carried_through(monkeypatch, turn)
    code, row = _validate_m3(tmp_path)
    assert code == 1 and turned
    fields = dict(item.split("=") for item in row.split(",", 2)[2].split(";"))
    assert row.split(",")[1] == "FAIL"
    assert float(fields["lineage_angle_over_tol"]) > 100.0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_the_walk_carries_each_remainder_bit_for_bit(m):
    # the remainder validate checks is the very block the compressions read
    rem = eigenbasis.walk_remainder(m, 1)
    keys = []

    def visit(bundle, carried):
        assert carried.records == [bundle.record]
        block = rem.select([bundle.record])
        assert (carried.dims, carried.per_cell) == (block.dims, block.per_cell)
        assert np.array_equal(carried.columns, block.columns)
        assert not carried.columns.flags.writeable
        keys.append(bundle.record.key)

    eigenbasis.walk_eigenspaces(m, visit, k=1)
    assert sorted(keys) == sorted(rec.key for rec in rem.records)
    for k in (0, m + 1):
        with pytest.raises(DomainError, match="cell level"):
            eigenbasis.walk_eigenspaces(m, visit, k=k)


def test_validate_assembles_no_level_remainder(monkeypatch, tmp_path):
    # the lineage check at m = 5 reads no level-5 remainder matrix; the
    # Lipschitz trials compress at level 4 and still read theirs
    for name in ("level_remainder", "walk_remainder"):
        original = getattr(eigenbasis, name)

        def refusing(m, k, _original=original, _name=name):
            if m == 5:
                raise AssertionError(f"validate called {_name}({m}, {k})")
            return _original(m, k)

        monkeypatch.setattr(eigenbasis, name, refusing)
    config = tmp_path / "validate.json"
    config.write_text(json.dumps({"m": 5}))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "validate.csv").read_text().splitlines()[1:]
    assert rows and all(",PASS," in row for row in rows)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_lineage_remainder_matches_whole_eigenspaces(m, k):
    # the remainders built by decimation lineage span the junction-SVD
    # remainders of the whole eigenspaces, eigenspace by eigenspace
    basis = eigenbasis.level_basis(m)
    sel = operators.leading_selection(basis)
    whole = nonlocalized_remainder(selection_columns(sel), sel.records, m, k)
    lineage = eigenbasis.level_remainder(m, k)
    assert lineage.records == whole.records
    assert lineage.dims == whole.dims
    assert lineage.per_cell == whole.per_cell
    assert eigenbasis.remainder_deviation(lineage, whole, m) <= 1e-12
    w = eigenbasis.interior_weight(m)
    gram = lineage.columns.T @ lineage.columns * w
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_lineage_carries_whole_eigenspaces_bit_exactly(m):
    # one decimation loop: an eigenspace carried whole (born at or below
    # the cell level, or of the 2-series) is built by the very operations
    # of the n x n basis, which at cell level m holds every eigenspace
    basis = whole_basis(m)
    full = eigenbasis.level_remainder(m, m)
    assert full.columns.shape == (basis.vertices.n_interior,) * 2
    assert full.dims == [b.dim for b in basis.bundles]
    assert full.per_cell == [0] * len(basis.bundles)
    for k in range(1, m):
        lineage = eigenbasis.level_remainder(m, k)
        starts = np.cumsum([0] + lineage.dims)
        whole = 0
        for b, start, r in zip(basis.bundles, starts, lineage.dims):
            if r == b.dim:
                whole += 1
                assert np.array_equal(lineage.columns[:, start : start + r], b.vectors)
        assert whole > 0


def test_lineage_columns_are_read_only():
    rem = eigenbasis.level_remainder(4, 1)
    with pytest.raises(ValueError):
        rem.columns[0, 0] = 1.0
    assert eigenbasis.level_remainder(4, 0).columns.shape == (120, 0)
    with pytest.raises(DomainError):
        eigenbasis.level_remainder(4, 5)


def test_selection_compresses_without_vectors(level5):
    # a selection names eigenspaces only: the level basis, whose bundles
    # carry no vectors, and bundles that carry them compress reduced
    # symbols, a table of simple functions among them, to the same operator
    basis = eigenbasis.level_basis(5)
    assert all(b.vectors is None for b in basis.bundles)
    assert [b.record for b in basis.bundles] == [b.record for b in level5.bundles]
    sym = operators.separable_symbol(lambda lam: lam ** -1.0, 0.0, CHIS[2])
    op = operators.compress(
        sym, operators.selection_from_bundles(level5.bundles)
    )
    sel = operators.leading_selection(basis)
    assert sel.dim == eigenbasis.level_remainder(5, 5).columns.shape[1]
    bare_op = operators.compress(sym, sel)
    assert np.array_equal(bare_op.atoms, op.atoms)
    assert np.array_equal(bare_op.remainder, op.remainder)
    f = CHIS[1]
    table = operators.tabulated_symbol(
        [(b.record.value, f.shifted(i / 64)) for i, b in enumerate(basis.bundles)]
    )
    table_op = operators.compress(
        table, operators.selection_from_bundles(level5.bundles)
    )
    bare_table_op = operators.compress(table, sel)
    assert np.array_equal(bare_table_op.atoms, table_op.atoms)
    assert np.array_equal(bare_table_op.remainder, table_op.remainder)


def test_constant_potential_is_all_atoms(level5):
    sel = operators.leading_selection(level5)
    sym = operators.multiplication_symbol(SimpleFunction(0, [2.5]))
    op = operators.compress(sym, sel)
    assert op.remainder.shape == (0, 0)
    assert np.array_equal(op.atoms, np.full(sel.dim, 2.5))
    assert operators.log_det(op) == pytest.approx(sel.dim * math.log(2.5), rel=1e-14)


def _gram_selections(basis):
    """Leading cutoffs after a quarter and a half of the eigenspaces and the
    whole basis, one eigenspace, and every other eigenspace."""
    values = [b.record.value for b in basis.bundles]
    return {
        "quarter": operators.leading_selection(basis, values[len(values) // 4]),
        "half": operators.leading_selection(basis, values[len(values) // 2]),
        "whole": operators.leading_selection(basis),
        "one": operators.selection_from_bundles([basis.family_bundle(6, 3)]),
        "every-other": operators.selection_from_bundles(basis.bundles[1::2]),
    }


def _gram_symbols(sel):
    table = [(rec.value, CHIS[1].shifted(i / 64)) for i, rec in enumerate(sel.records)]
    return {
        "multiplication": operators.multiplication_symbol(CHIS[1]),
        "separable": operators.separable_symbol(lambda lam: lam ** -1.0, 0.0, CHIS[1]),
        # one run of eigenspaces per entry
        "tabulated": operators.tabulated_symbol(table),
    }


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_gram_block_matches_product_block(m):
    # sum_C chi_C G_C over the level's cell Grams, sliced to the selection,
    # is Q^T [chi] Q; from m = 5 on it is what compress takes
    basis = eigenbasis.level_basis(m)
    rem = eigenbasis.level_remainder(m, 1)
    grams = operators.cell_grams(rem.columns, basis.vertices, 1)
    for sel in _gram_selections(basis).values():
        cols = np.arange(rem.columns.shape[1])[rem.column_index(sel.records)]
        picked = rem.select(sel.records)
        for sym in _gram_symbols(sel).values():
            q, runs = operators.eigenspace_runs(sym, sel.records)
            product, _ = operators._product_block(
                q, runs, picked.columns, picked.dims, m
            )
            gram, asym = operators._gram_block(
                q, runs, grams[:, cols[:, None], cols], picked.dims, 1
            )
            scale = np.max(np.abs(product))
            assert np.max(np.abs(gram - product)) <= 1e-12 * scale
            op = operators.compress(sym, sel)
            assert np.max(np.abs(op.remainder - product)) <= 1e-12 * scale
            if m >= 5:
                assert np.array_equal(op.remainder, gram)


def test_cell_grams_resolve_the_identity():
    # the cells' indicators sum to 1, and the columns are weighted-orthonormal
    rem = eigenbasis.level_remainder(5, 1)
    grams = operators.cell_grams(rem.columns, eigenbasis.level_basis(5).vertices, 1)
    assert grams.shape == (3, 117, 117)
    assert all(np.array_equal(g, g.T) for g in grams)
    assert np.max(np.abs(grams.sum(axis=0) - np.eye(117))) <= 1e-12
    with pytest.raises(ValueError):
        grams[0, 0, 0] = 1.0


def test_asymmetric_cell_gram_is_refused(monkeypatch):
    # each Gram is held to SYMMETRY_TOL when it is built
    original = operators._cell_gram

    def skewed(rows, g):
        gram = original(rows, g)
        gram[0, 1] += 1e-9
        return gram

    monkeypatch.setattr(operators, "_cell_gram", skewed)
    sel = operators.leading_selection(eigenbasis.level_basis(5))
    sym = operators.multiplication_symbol(CHIS[1])
    with pytest.raises(StructuralError, match="cell Gram asymmetry"):
        operators.compress(sym, sel)


def test_level_one_compression_caches_grams_not_columns():
    # the Grams are built at the first compression, never by level_basis,
    # from a walk whose columns are not kept
    eigenbasis.level_basis.cache_clear()
    eigenbasis.level_remainder.cache_clear()
    operators._level_grams.cache_clear()
    basis = eigenbasis.level_basis(6)
    assert operators._level_grams.cache_info().currsize == 0
    sel = operators.leading_selection(basis)
    for chi in (CHIS[1], CHIS[1].shifted(1.0)):
        operators.compress(operators.multiplication_symbol(chi), sel)
    info = eigenbasis.level_remainder.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    grams = operators._level_grams.cache_info()
    assert (grams.hits, grams.misses) == (1, 1)
    layout, cells = operators._level_grams(6, 1)
    assert layout.columns.shape == (0, 237) and layout.columns.base is None
    assert cells.nbytes < 1092 * 237 * 8


def test_wide_cell_levels_keep_the_product():
    # 3^k R > n: the Grams would outgrow the columns; so at every k at m = 4
    assert operators._level_grams(4, 1) is None
    assert operators._level_grams(6, 2) is None


def test_a_walk_holds_nothing_once_it_returns():
    # no reference cycle keeps the walk's columns alive until a garbage
    # collection, so a process holding the cell Grams holds no columns
    gc.disable()
    try:
        rem = eigenbasis.walk_remainder(5, 1)
        columns = weakref.ref(rem.columns)
        del rem
        assert columns() is None
    finally:
        gc.enable()
