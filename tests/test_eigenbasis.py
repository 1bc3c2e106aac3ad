import collections
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gasket_szego import cli, decimation, eigenbasis
from gasket_szego.eigenbasis import (
    group_eigenspaces,
    interior_weight,
    localized_split,
    save_bundle,
    solve_graph_spectrum,
)
from gasket_szego.errors import (
    DomainError,
    MismatchError,
    NumericError,
    ResourceLimitError,
    StructuralError,
)
from gasket_szego.gasket import build_dirichlet_laplacian, build_vertices

import dense_oracle
from dense_oracle import (
    cell_inside_rows,
    load_bundle,
    nonlocalized_remainder,
    reference_split,
    whole_basis,
)


def test_solve_level1():
    lap = build_dirichlet_laplacian(build_vertices(1))
    values, _ = solve_graph_spectrum(lap)
    assert [round(float(v), 10) for v in values] == [2.0, 5.0, 5.0]


def test_solve_level2_contains_decimated_two_series():
    lap = build_dirichlet_laplacian(build_vertices(2))
    values, _ = solve_graph_spectrum(lap)
    assert len(values) == 12
    lo, hi = decimation.decimation_preimages(2.0)
    for root in (lo, hi):
        assert np.sum(np.abs(values - root) < 1e-9) == 1


@pytest.mark.parametrize("m", range(1, 5))
def test_trace_identity(m):
    lap = build_dirichlet_laplacian(build_vertices(m))
    values, _ = solve_graph_spectrum(lap)
    total = math.fsum(float(v) for v in values)
    assert total == pytest.approx(float(np.trace(lap)), rel=1e-9)


def test_solve_rejects_asymmetric():
    lap = build_dirichlet_laplacian(build_vertices(1))
    lap[0, 1] = 7.0
    with pytest.raises(StructuralError):
        solve_graph_spectrum(lap)


def test_group_level1_dimensions():
    m = 1
    lap = build_dirichlet_laplacian(build_vertices(m))
    values, vectors = solve_graph_spectrum(lap)
    _, bundles = group_eigenspaces(values, vectors, m)
    dims = sorted(b.dim for b in bundles)
    assert dims == [1, 2]


@pytest.mark.parametrize("m", range(1, 5))
def test_group_completeness_and_orthonormality(m):
    basis = whole_basis(m)
    assert sum(b.dim for b in basis.bundles) == decimation.interior_dimension(m)
    w = interior_weight(m)
    for bundle in basis.bundles[:6]:
        gram = bundle.vectors.T @ bundle.vectors * w
        assert np.max(np.abs(gram - np.eye(bundle.dim))) <= 1e-10
        assert bundle.dim == bundle.record.multiplicity


def test_seed_bundle_dimension():
    basis = whole_basis(3)
    bundle = basis.family_bundle(6, 3)
    assert bundle.dim == (3 ** 3 - 3) // 2
    assert bundle.graph_value == pytest.approx(6.0, abs=1e-9)


def test_projector_idempotent(level4):
    bundle = level4.family_bundle(6, 3)
    w = interior_weight(4)
    proj = bundle.vectors @ bundle.vectors.T * w
    assert np.max(np.abs(proj @ proj - proj)) <= 1e-9


def test_group_orphan_detection():
    m = 2
    lap = build_dirichlet_laplacian(build_vertices(m))
    values, vectors = solve_graph_spectrum(lap)
    values[0] += 0.01
    with pytest.raises(MismatchError):
        group_eigenspaces(values, vectors, m)


def test_group_dimension_mismatch():
    m = 2
    lap = build_dirichlet_laplacian(build_vertices(m))
    values, vectors = solve_graph_spectrum(lap)
    with pytest.raises(MismatchError):
        group_eigenspaces(values[:-1], vectors[:, :-1], m)


@pytest.mark.parametrize(
    "series,birth",
    [(6, 3), (6, 4), (5, 3), (5, 4)],
)
def test_localized_split_counts(level4, series, birth):
    bundle = level4.family_bundle(series, birth)
    for n_level in range(1, birth):
        counts = decimation.localization_counts(series, birth, n_level)
        split = localized_split(bundle, n_level)
        assert [v.shape[1] for v in split.per_cell] == [counts.m_j_N] * 3**n_level
        assert split.localized_total == counts.d_j_N
        assert split.nonlocalized.shape[1] == counts.alpha_N


def test_localized_vectors_exactly_zero_outside(level4):
    bundle = level4.family_bundle(6, 3)
    split = localized_split(bundle, 1)
    vertices = level4.vertices
    n = bundle.vectors.shape[0]
    for c, vecs in enumerate(split.per_cell):
        inside = cell_inside_rows(vertices, 1, c)
        mask = np.ones(n, dtype=bool)
        mask[inside] = False
        assert np.all(vecs[mask, :] == 0.0)


def test_localized_split_gram_identity(level4):
    bundle = level4.family_bundle(6, 4)
    split = localized_split(bundle, 2)
    blocks = [v for v in split.per_cell if v.shape[1]]
    blocks.append(split.nonlocalized)
    full = np.hstack(blocks)
    gram = full.T @ full * interior_weight(4)
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10


def test_localized_split_preconditions(level4):
    bundle = level4.family_bundle(6, 3)
    for n_level in (0, 3, 4):
        with pytest.raises(DomainError, match="1 <= N < birth"):
            localized_split(bundle, n_level)
    two_series = next(b for b in level4.bundles if b.record.series == 2)
    with pytest.raises(DomainError):
        localized_split(two_series, 1)


def test_split_deterministic(level4):
    bundle = level4.family_bundle(6, 3)
    a = localized_split(bundle, 1)
    b = localized_split(bundle, 1)
    for vecs_a, vecs_b in zip(a.per_cell, b.per_cell, strict=True):
        assert np.array_equal(vecs_a, vecs_b)
    assert np.array_equal(a.nonlocalized, b.nonlocalized)


def _validate_splits(basis):
    """The (bundle, N) pairs `validate` splits at the basis level."""
    for series in (6, 5):
        for birth in range(2, min(basis.level, 5) + 1):
            bundle = basis.family_bundle(series, birth)
            for n_level in range(1, birth):
                yield bundle, n_level


def _projector_gap(a, b, w):
    """Spectral norm of w a a^T - w b b^T, a bound on every entry, for
    weighted-orthonormal a and b of equal width: that of (I - w a a^T) b
    in the weighted norm, with no n x n product."""
    return float(np.linalg.norm(b - a @ (w * (a.T @ b)), 2) * np.sqrt(w))


@pytest.mark.parametrize("m", [4, 5, 6])
def test_split_matches_outside_row_svd(request, m):
    basis = request.getfixturevalue(f"level{m}")
    w = interior_weight(m)
    for bundle, n_level in _validate_splits(basis):
        split = localized_split(bundle, n_level)
        per_cell, nonlocalized = reference_split(bundle, n_level)
        assert [v.shape[1] for v in split.per_cell] == [v.shape[1] for v in per_cell]
        for vecs, ref in zip(split.per_cell, per_cell):
            if ref.shape[1]:
                assert _projector_gap(vecs, ref, w) <= 1e-12
        assert _projector_gap(split.nonlocalized, nonlocalized, w) <= 1e-12
        # the kernel margins: below 1, and 0 when no cell drops a value; a
        # dropped value may be exactly 0, as translated localized vectors
        # vanish exactly on the junction vertices
        assert 0.0 < split.tol_over_kept < 1.0
        if split.localized_total:
            assert 0.0 <= split.dropped_over_tol < 1.0
        else:
            assert split.dropped_over_tol == 0.0


@pytest.mark.parametrize("m", range(2, 9))
def test_cells_are_translates_in_row_order(m):
    # each N-cell's ascending interior rows are cell 0's plus one constant
    # barycentric offset, in the same order: the rows a split writes cell
    # 0's vectors into
    vertices = build_vertices(m)
    for n_level in range(1, m):
        cells = vertices.cell_rows(n_level)
        inside = np.flatnonzero(cells >= 0)
        sizes = np.bincount(cells[inside], minlength=3**n_level)
        assert np.all(sizes == sizes[0])
        rows = inside[np.argsort(cells[inside], kind="stable")]
        triples = vertices.bary[vertices.interior[rows]].reshape(3**n_level, -1, 3)
        offsets = triples - triples[0]
        assert np.all(offsets == offsets[:, :1])


@pytest.mark.parametrize("m", [4, 5, 6])
def test_every_cell_holds_cell_0s_block(request, m):
    basis = request.getfixturevalue(f"level{m}")
    for bundle, n_level in _validate_splits(basis):
        split = localized_split(bundle, n_level)
        cells = basis.vertices.cell_rows(n_level)
        template = split.per_cell[0][cells == 0]
        for c, vecs in enumerate(split.per_cell):
            assert np.array_equal(vecs[cells == c], template)
            assert np.all(vecs[cells != c] == 0.0)


def test_split_svds_stay_short(level6, monkeypatch):
    # a split runs one SVD, of the junction values: at most 2 n_N rows and
    # d columns, never one of the n rows of the eigenspace or of a cell's
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    for bundle, n_level in _validate_splits(level6):
        shapes.clear()
        localized_split(bundle, n_level)
        (rows, cols), = shapes
        assert rows <= 2 * decimation.interior_dimension(n_level)
        assert cols <= bundle.dim


def _layout_columns(bundle, n_level):
    """N-cell 0's localized columns in the walk's layout, from the closed
    form: for N' = N, ..., birth - 2 the first (alpha_(N'+1) - alpha_N') / 3^N
    columns from alpha_N', where the pieces of the N'-cells begin."""
    rec = bundle.record

    def alpha(n):
        if n == rec.birth - 1:
            return bundle.dim
        return decimation.localization_counts(rec.series, rec.birth, n).alpha_N

    return [
        c
        for n in range(n_level, rec.birth - 1)
        for c in range(alpha(n), alpha(n) + (alpha(n + 1) - alpha(n)) // 3**n_level)
    ]


@pytest.mark.parametrize("m", [5, 6])
def test_split_is_the_bundles_own_bits(request, m):
    # the split reads the columns the walk laid out: the remainder is the
    # leading alpha_N columns, and cell 0's block is the bundle's own values
    basis = request.getfixturevalue(f"level{m}")
    for bundle, n_level in _validate_splits(basis):
        split = localized_split(bundle, n_level)
        u = bundle.vectors
        alpha = decimation.localization_counts(
            bundle.record.series, bundle.record.birth, n_level
        ).alpha_N
        assert np.array_equal(split.nonlocalized, u[:, :alpha])
        inside = cell_inside_rows(basis.vertices, n_level, 0)
        cols = _layout_columns(bundle, n_level)
        assert np.array_equal(split.per_cell[0][inside], u[np.ix_(inside, cols)])


def test_a_bundle_in_another_layout_is_refused(level5):
    # the walk's span with its columns mixed, and the dense oracle's
    # eigenvectors: the localized vectors are no longer the layout's
    # columns, and their cell-0 rows placed in every cell miss the
    # eigen-equation at the junctions
    bundle = level5.family_bundle(6, 4)
    turn, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((bundle.dim,) * 2))
    mixed = dataclasses.replace(bundle, vectors=bundle.vectors @ turn)
    values, vectors = solve_graph_spectrum(build_dirichlet_laplacian(build_vertices(4)))
    _, bundles = group_eigenspaces(values, vectors, 4)
    oracle = min(
        (b for b in bundles if (b.record.series, b.record.birth) == (6, 4)),
        key=lambda b: b.record.value,
    )
    for refused in (mixed, oracle):
        key = re.escape(refused.record.key)
        with pytest.raises(NumericError, match=f"eigenspace {key}: stencil residual"):
            localized_split(refused, 1)


@pytest.mark.parametrize("m", [5, 6])
def test_split_remainder_matches_nonlocalized_remainder(request, m):
    basis = request.getfixturevalue(f"level{m}")
    w = interior_weight(m)
    for bundle, n_level in _validate_splits(basis):
        split = localized_split(bundle, n_level)
        rem = nonlocalized_remainder(
            bundle.vectors, [bundle.record], m, n_level
        )
        assert rem.columns.shape == split.nonlocalized.shape
        assert _projector_gap(split.nonlocalized, rem.columns, w) <= 1e-12


@pytest.mark.parametrize("m", range(1, 6))
def test_junction_partners_lie_in_the_first_cell(m):
    # the partial-sum rows of each junction vertex x are x's two neighbours
    # in the first cell, in cell order, that contains x
    vertices = build_vertices(m)
    first = {}
    for c, cell in enumerate(vertices.cells.tolist()):
        for v in cell:
            first.setdefault(v, c)
    rows = vertices.rows
    for k in range(1, m + 1):
        functionals = eigenbasis._junction_functionals(vertices, k)
        half = functionals.shape[0] // 2
        for x_row, partners in zip(functionals[:half, 0], functionals[half:]):
            x = int(vertices.interior[x_row])
            cell = vertices.cells[first[x]]
            assert sorted(partners.tolist()) == sorted(rows[cell[cell != x]].tolist())


@pytest.mark.parametrize("m", range(1, 5))
def test_junction_matrix_reads_values_and_partner_sums(m):
    # J u holds u at each level-k junction vertex, then the sum of u over
    # its two partners (`_junction_functionals`): one 0/1 entry per row read
    vertices = build_vertices(m)
    u = np.random.default_rng(m).standard_normal(vertices.n_interior)
    for k in range(1, m + 1):
        rows = eigenbasis._junction_functionals(vertices, k)
        expected = np.append(u, 0.0)[rows].sum(axis=1)
        assert np.array_equal(eigenbasis._junction_matrix(vertices, k) @ u, expected)


def test_split_off_the_eigen_equation_fails_the_stencil(level5):
    # a localized vector moved by 1e-6 inside its cell no longer solves the
    # eigen-equation: the stencil check every eigenvector passes refuses it,
    # naming the eigenspace, before its Gram check.  The entry is off the
    # junction rows, so the junction SVD still finds the closed-form rank
    bundle = level5.family_bundle(6, 4)
    vertices = level5.vertices
    alpha = decimation.localization_counts(6, 4, 1).alpha_N
    u = bundle.vectors.copy()
    read = eigenbasis._junction_functionals(vertices, 1)
    inside = np.setdiff1d(cell_inside_rows(vertices, 1, 0), read)
    row = inside[np.argmax(np.abs(u[inside, alpha]))]
    u[row, alpha] += 1e-6
    moved = dataclasses.replace(bundle, vectors=u)
    message = f"^level 5, eigenspace {re.escape(bundle.record.key)}: stencil residual"
    with pytest.raises(NumericError, match=message):
        localized_split(moved, 1)


def test_split_without_partial_sums_fails(level4, monkeypatch):
    # 5-series vectors vanish on every older vertex, the junctions
    # included: only the partial sums there tell the localized vectors from
    # the others
    functionals = eigenbasis._junction_functionals

    def values_only(vertices, k):
        rows = functionals(vertices, k)
        return rows[: rows.shape[0] // 2]

    monkeypatch.setattr(eigenbasis, "_junction_functionals", values_only)
    for birth, n_level in ((3, 1), (3, 2), (4, 1), (4, 3)):
        with pytest.raises(StructuralError):
            localized_split(level4.family_bundle(5, birth), n_level)


def test_bundle_save_load_bit_exact(tmp_path, level4):
    bundle = level4.family_bundle(6, 3)
    path = tmp_path / "bundle.csv"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert np.array_equal(loaded.vectors, bundle.vectors)
    assert loaded.record.key == bundle.record.key
    assert loaded.graph_value == bundle.graph_value


def test_level_basis_sorted_by_value(level4):
    values = [b.record.value for b in level4.bundles]
    assert values == sorted(values)


def test_whole_basis_is_read_only(level4):
    whole = eigenbasis.level_remainder(4, 4)
    vectors = whole.select([level4.family_bundle(6, 3).record]).columns
    assert np.shares_memory(vectors, whole.columns)
    with pytest.raises(ValueError):
        vectors[0, 0] = 1.0
    with pytest.raises(ValueError):
        whole.columns[0, 0] = 1.0


@pytest.mark.parametrize("m", range(1, 7))
def test_decimation_basis_matches_dense_oracle(m):
    basis = whole_basis(m)
    lap = build_dirichlet_laplacian(basis.vertices)
    values, vectors = solve_graph_spectrum(lap)
    _, oracle = group_eigenspaces(values, vectors, m)
    labels = [(b.record.key, b.graph_value, b.dim) for b in basis.bundles]
    assert labels == [(b.record.key, b.graph_value, b.dim) for b in oracle]
    w = interior_weight(m)
    for built, dense in zip(basis.bundles, oracle):
        proj = built.vectors @ built.vectors.T * w
        proj_dense = dense.vectors @ dense.vectors.T * w
        assert np.max(np.abs(proj - proj_dense)) <= 1e-12, built.record.key
    whole = eigenbasis.level_remainder(m, m).columns
    gram = whole.T @ whole * w
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12


def _extend_at_the_other_preimage(monkeypatch, level=None, unless=()):
    """Make every extension to `level` (to any level if None) take the other
    preimage of its parent's graph value, 5 - lam in place of lam, except at
    the graph values `unless`."""
    original = eigenbasis._extended

    def swapped(ref, values, lam, key, out):
        if level in (None, ref.level) and lam not in unless:
            lam = 5.0 - lam
        original(ref, values, lam, key, out)

    monkeypatch.setattr(eigenbasis, "_extended", swapped)


def test_extension_with_swapped_preimages_fails(monkeypatch):
    _extend_at_the_other_preimage(monkeypatch)
    with pytest.raises(NumericError):
        eigenbasis.level_remainder(3, 3)


def test_level_basis_needs_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the level basis called np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    whole = eigenbasis.level_remainder(5, 5)
    assert whole.columns.shape == (363, 363)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("m", range(1, 7))
def test_eigenspace_equals_level_basis_bit_for_bit(m):
    # each eigenspace built alone by its lineage takes the very steps of the
    # level basis, column for column
    for bundle in whole_basis(m).bundles:
        own = eigenbasis.eigenspace(m, bundle.record.key)
        assert (own.level, own.record, own.graph_value) == (
            m, bundle.record, bundle.graph_value
        )
        assert own.vertices is bundle.vertices is eigenbasis.level_basis(m).vertices
        assert _bits(own.vectors) == _bits(bundle.vectors), bundle.record.key
        with pytest.raises(ValueError):
            own.vectors[0, 0] = 1.0


def test_eigenspace_unknown_key():
    with pytest.raises(DomainError, match=r"record key 6:9:\+ at level 4"):
        eigenbasis.eigenspace(4, "6:9:+")
    with pytest.raises(DomainError):
        eigenbasis.eigenspace(0, "2:1:")


def test_eigenspace_checks_every_step(monkeypatch):
    _extend_at_the_other_preimage(monkeypatch)
    with pytest.raises(NumericError):
        eigenbasis.eigenspace(3, "5:2:+")


def _written_out(pieces, n):
    """The eigenspace whose pieces are `pieces`, each block's translates
    written cell by cell into their columns, zero elsewhere."""
    width = sum(rows.shape[0] * block.shape[1] for rows, block, _ in pieces)
    out = np.zeros((n, width))
    for rows, block, start in pieces:
        w = block.shape[1]
        for c, cell in enumerate(rows):
            out[cell, start + c * w : start + (c + 1) * w] = block
    return out


@pytest.mark.parametrize("m", [1, 3, 5, 6])
def test_walk_visits_every_eigenspace_once(m):
    # each eigenspace arrives as its pieces, no whole block: its remainder at
    # cell level 1 over every row, then each template in its cells' rows,
    # which written out are its columns of the n x n basis bit for bit
    expected = {b.record.key: b.vectors for b in whole_basis(m).bundles}
    n = eigenbasis.level_basis(m).vertices.n_interior

    def visit(bundle, _remainder):
        assert bundle.level == m and bundle.vectors is None
        pieces = bundle.require_pieces()
        assert np.array_equal(pieces[0][0], np.arange(n)[None])
        assert pieces[0][1] is _remainder.columns
        assert all(not block.flags.writeable for _, block, _ in pieces)
        whole = _written_out(pieces, n)
        assert _bits(whole) == _bits(expected[bundle.record.key])
        return bundle.record.key

    keys = eigenbasis.walk_eigenspaces(m, visit, k=1)
    assert sorted(keys) == sorted(expected)


def _drop_child(entries):
    child = next(g for g in entries if g.prefix)
    return tuple(g for g in entries if g is not child)


def _add_forbidden_child(entries):
    # the newborn 6-eigenspace has no contracting child: it would take the
    # graph value 2, where the 2-series already lives
    six = next(g for g in entries if g.series == 6 and g.prefix == ("+",))
    return entries + (dataclasses.replace(six, prefix=("-",), graph_value=2.0),)


def _widen_child(entries):
    child = next(g for g in entries if g.prefix)
    wide = dataclasses.replace(child, multiplicity=child.multiplicity + 1)
    return tuple(wide if g is child else g for g in entries)


BUILDERS = {
    "level_remainder_whole": lambda: eigenbasis.level_remainder(4, 4),
    "level_remainder": lambda: eigenbasis.level_remainder(4, 1),
    "walk_eigenspaces": lambda: eigenbasis.walk_eigenspaces(4, lambda b, _: None, k=1),
    "eigenspace": lambda: eigenbasis.eigenspace(4, "2:1:"),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("change, message", [
    (_drop_child, "eigenspace .* is built but not predicted by decimation"),
    (_add_forbidden_child, "eigenspace .* is predicted but not built by decimation"),
    (_widen_child, "decimation predicts dimension"),
])
@pytest.mark.parametrize("j", [3, 4])
def test_every_builder_checks_the_decimation_tree(
    monkeypatch, builder, change, message, j
):
    # a prediction that lacks a child, has one that decimation never
    # builds, or miscounts one is refused before any vector is built,
    # naming the level
    original = decimation.truncated_graph_spectrum

    def patched(level):
        return change(original(level)) if level == j else original(level)

    monkeypatch.setattr(decimation, "truncated_graph_spectrum", patched)
    monkeypatch.setattr(eigenbasis, "_grown", None)
    with pytest.raises(MismatchError, match=f"^level {j}: {message}"):
        BUILDERS[builder]()


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_every_builder_checks_the_stencil_of_the_last_level(monkeypatch, builder):
    # extension through the other preimage keeps the Gram matrix a multiple
    # of the identity, so only the stencil of level 4 shows it; the child 3
    # of 6 keeps its value, as the other root 2 is forbidden
    _extend_at_the_other_preimage(monkeypatch, level=4, unless=(3.0,))
    with pytest.raises(NumericError, match=r"^level 4, eigenspace .*: stencil residual"):
        BUILDERS[builder]()


@pytest.mark.parametrize("lam", [-6.0, -0.5])
@pytest.mark.parametrize("level", range(1, 7))
def test_solve_matches_a_dense_solve(level, lam):
    # the Schur complement recursion against np.linalg.solve of the dense
    # L - lam I (2.2e-16 to 6.7e-16 relative, measured)
    lap = build_dirichlet_laplacian(build_vertices(level))
    rhs = np.random.default_rng(level).standard_normal((lap.shape[0], 3))
    exact = np.linalg.solve(lap - lam * np.eye(lap.shape[0]), rhs)
    got = eigenbasis._solve(level, lam, rhs)
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("level", range(2, 6))
def test_extension_is_a_schur_complement(level):
    # identity (1): E^T (L - lam I) E = (6 - lam) / ((2 - lam)(5 - lam))
    # (L' - lam (5 - lam) I), E the extension at lam as a dense matrix, on
    # both sides of the poles 2, 5 and 6 (1.3e-15 relative, measured)
    ref = eigenbasis._refinement(level)
    lap = build_dirichlet_laplacian(build_vertices(level))
    coarse = build_dirichlet_laplacian(build_vertices(level - 1))
    for lam in (-6.0, -0.5, 0.7, 3.0, 6.5):
        e = np.empty((ref.n, ref.n_prev))
        eigenbasis._extend(ref, np.eye(ref.n_prev), lam, e)
        schur = e.T @ (lap - lam * np.eye(ref.n)) @ e
        factor = (6.0 - lam) / ((2.0 - lam) * (5.0 - lam))
        expected = factor * (coarse - lam * (5.0 - lam) * np.eye(ref.n_prev))
        assert np.max(np.abs(schur - expected)) <= 1e-13 * np.max(np.abs(expected)), lam


@pytest.mark.parametrize("m", range(2, 6))
def test_newborn_six_gram_is_the_parent_laplacian(monkeypatch, m):
    # the Gram matrix of the extended unit vectors, which the oracle's
    # newborn 6-series block factors, is (L + 6 I) / 4, L the level-(m-1)
    # Dirichlet Laplacian
    grams = []
    inverse_cholesky = dense_oracle._inverse_cholesky

    def recording(gram):
        grams.append(gram.copy())
        inverse_cholesky(gram)

    monkeypatch.setattr(dense_oracle, "_inverse_cholesky", recording)
    dense_oracle.newborn_block(m, 6)
    lap = build_dirichlet_laplacian(build_vertices(m - 1))
    assert len(grams) == 1
    assert grams[0].tobytes() == ((lap + 6.0 * np.eye(lap.shape[0])) / 4.0).tobytes()


def test_every_builder_checks_the_level():
    for build in (
        eigenbasis.level_basis,
        lambda m: eigenbasis.level_remainder(m, m),
        lambda m: eigenbasis.eigenspace(m, "2:1:"),
        lambda m: eigenbasis.walk_eigenspaces(m, lambda b, _: None, k=1),
        lambda m: eigenbasis.level_remainder(m, 1),
        lambda m: eigenbasis.level_remainder(m, 0),
    ):
        for m in (9, 12):
            with pytest.raises(ResourceLimitError, match=f"level {m} exceeds cap 8"):
                build(m)
        with pytest.raises(DomainError, match="no interior vertices at level 0"):
            build(0)


def _newborn_cut(g, k):
    """The remainder at cell level k of the newborn eigenspace of entry g, by
    the walk's steps: its remainder at cell level 1 beside its templates."""
    rem1 = eigenbasis._grown(g)
    out = np.empty((rem1.shape[0], eigenbasis._remainder_rank(g.record, k)))
    eigenbasis._assemble(g, rem1, out, k)
    return out


def _newborn_five_entry(m):
    return next(g for g in eigenbasis._predicted(m) if (g.series, g.birth) == (5, m))


@pytest.mark.parametrize("k", [1, 2, "m-1"])
@pytest.mark.parametrize("m", range(3, 8))
def test_newborn_five_remainder_spans_the_whole_block_cut(m, k):
    # the cell-graph solve and the whole newborn block, both against the
    # junction SVD of the oracle's block from a cycle basis, an independent
    # derivation of the same spans, at k = 1, 2 and the finest cell level
    # below birth, m - 1 (at m = 3 and k = 2 nothing localizes, and the cut
    # is the whole block)
    k = m - 1 if k == "m-1" else k
    g = _newborn_five_entry(m)
    oracle = eigenbasis._bundle(m, g, dense_oracle.newborn_block(m, 5))
    for level in (k, m):
        expected = eigenbasis.eigenspace_remainder(oracle, level)
        cut = _newborn_cut(g, level)
        assert cut.shape == expected.columns.shape
        got = eigenbasis.Remainder(cut, expected.dims, expected.per_cell, expected.records)
        assert eigenbasis.remainder_deviation(got, expected, m) <= 1e-12


def test_a_junction_paired_to_the_wrong_corner_is_refused(monkeypatch):
    # cell 1's corner 2 read at the junction of cells 0 and 1, which is its
    # corner 0: the birth-2 remainder then fails the eigen-equation there,
    # and every later birth, whose recursion reads birth 2's corner sums
    # first, names it
    monkeypatch.setattr(eigenbasis, "_JUNCTIONS", ((0, 1, 1, 2), (0, 2, 2, 0), (1, 2, 2, 1)))
    key = re.escape(_newborn_five_entry(2).record.key)
    with pytest.raises(NumericError, match=f"^level 2, eigenspace {key}: stencil residual"):
        eigenbasis._grown(_newborn_five_entry(2))
    for m in (3, 5):
        eigenbasis._newborn_remainder.cache_clear()
        with pytest.raises(MismatchError, match=f"^eigenspace {key}: the corner sums"):
            eigenbasis._grown(_newborn_five_entry(m))


@pytest.mark.parametrize("series", [5, 6])
def test_a_newborn_remainder_of_the_wrong_width_is_refused(series):
    # two columns asked where the three junctions give three: each build
    # names its eigenspace
    g = _newborn_entry(series, 4)
    ref = eigenbasis._refinement(4)
    build = {5: eigenbasis._newborn_five_remainder, 6: eigenbasis._newborn_six_remainder}[series]
    with pytest.raises(MismatchError, match=f"^eigenspace {re.escape(g.record.key)}: "):
        build(ref, interior_weight(4), g, np.empty((ref.n, 2)))


def test_newborn_five_remainder_forms_no_whole_block():
    # at m = 7 and k = 1 the cut keeps 3 of 366 columns, and never holds
    # the 3279 x 366 block they would be cut from
    import tracemalloc

    g = _newborn_five_entry(7)
    eigenbasis._grown(g)  # the refinement, vertex set and neighbour table
    eigenbasis._newborn_remainder.cache_clear()  # built again, not a cache hit
    tracemalloc.start()
    try:
        eigenbasis._grown(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = decimation.interior_dimension(7)
    assert peak < n * g.multiplicity * 8 / 4


def _newborn_entry(series, m):
    return next(
        g for g in eigenbasis._predicted(m)
        if (g.series, g.birth, g.prefix) == (series, m, ())
    )


@pytest.mark.parametrize("series", [5, 6])
@pytest.mark.parametrize("m", range(3, 8))
def test_newborn_columns_lie_in_one_cell_each(series, m):
    # past the three columns of its remainder at cell level 1, the whole
    # newborn block holds, depth after depth from N = 1 to m - 2, cell after
    # cell, what birth m - N adds to each N-cell: three columns of the
    # 6-series or one of the 5-series, exactly zero off the cell, and the
    # same values in every cell
    g = _newborn_entry(series, m)
    block = _newborn_cut(g, m)
    vertices = build_vertices(m)
    width = 3 if series == 6 else 1
    cursor = 3
    for n_level in range(1, m - 1):
        template = None
        for c in range(3**n_level):
            inside = cell_inside_rows(vertices, n_level, c)
            columns = block[:, cursor : cursor + width]
            cursor += width
            outside = np.ones(block.shape[0], dtype=bool)
            outside[inside] = False
            assert np.all(columns[outside] == 0.0)
            if template is None:
                template = columns[inside]
            assert np.array_equal(columns[inside], template)
    assert cursor == g.multiplicity


@pytest.mark.parametrize("k", [1, 2, "m-1"])
@pytest.mark.parametrize("m", range(3, 8))
def test_newborn_six_block_and_cuts_span_the_oracle(m, k):
    # the whole newborn 6-series block and its cut at k against the
    # junction SVD of the oracle's block from the Cholesky factor of its
    # Gram matrix (L + 6 I) / 4
    k = m - 1 if k == "m-1" else k
    g = _newborn_entry(6, m)
    oracle = eigenbasis._bundle(m, g, dense_oracle.newborn_block(m, 6))
    for level in (k, m):
        expected = eigenbasis.eigenspace_remainder(oracle, level)
        cut = _newborn_cut(g, level)
        assert cut.shape == expected.columns.shape
        got = eigenbasis.Remainder(cut, expected.dims, expected.per_cell, expected.records)
        assert eigenbasis.remainder_deviation(got, expected, m) <= 1e-12


@pytest.mark.parametrize("series", [5, 6])
def test_newborn_cut_holds_little_beside_its_output(series):
    # the birth-7 newborn cut at cell level 5 writes every piece straight
    # into its columns: 3279 x 363 (6-series) or 3279 x 123 (5-series), and
    # little else at once
    import tracemalloc

    g = _newborn_entry(series, 7)
    _newborn_cut(g, 5)  # the refinements and vertex sets of levels <= 7
    tracemalloc.start()
    try:
        out = _newborn_cut(g, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (3279, 363 if series == 6 else 123)
    assert peak < 1.5 * out.shape[0] * out.shape[1] * 8


def test_a_corner_sum_from_the_wrong_neighbour_is_refused(monkeypatch):
    # at each corner of the level-j gasket the 5-series piece reads the sum
    # over the corner's two neighbours; one of them swapped for one of its
    # own neighbours, off the corner's cell, leaves no combination on which
    # all three sums vanish; the build of birth 5 reads birth 2's first, on
    # its way down from birth 4, and names it
    partners = eigenbasis._cell_partners

    def swapped(vertices, ids):
        rows = partners(vertices, ids)
        if sorted(ids.tolist()) == sorted(vertices.boundary):
            rows = rows.copy()
            rows[0, 1] = np.setdiff1d(vertices.neighbours[rows[0, 1]], rows[0])[0]
        return rows

    monkeypatch.setattr(eigenbasis, "_cell_partners", swapped)
    with pytest.raises(MismatchError, match=f"^eigenspace {_newborn_entry(5, 2).record.key}: "):
        _newborn_cut(_newborn_entry(5, 5), 5)


def test_newborn_block_is_the_same_at_one_and_two_threads():
    # the whole 5-series block born at level 8, and both newborn remainders
    # at cell level 1 of level 8, have the same bits at 1 and 2 BLAS
    # threads, each in its own process
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import hashlib, gasket_szego.cli as cli; cli._configure_threads(); "
        "from gasket_szego import eigenbasis; "
        "u = eigenbasis.eigenspace(8, '5:8:').vectors; "
        "print(u.shape, hashlib.sha256(u.tobytes()).hexdigest()); "
        "[print(s, hashlib.sha256(eigenbasis._newborn_remainder(s, 8).tobytes()).hexdigest()) "
        "for s in (5, 6)]"
    )
    hashes = []
    for threads in ("1", "2"):
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        }
        env["GASKET_SZEGO_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        hashes.append(result.stdout)
    assert hashes[0].startswith("(9840, 1095) ")
    assert [line[:2] for line in hashes[0].splitlines()[1:]] == ["5 ", "6 "]
    assert hashes[0] == hashes[1]


def test_ranked_svd_reports_its_margins():
    # singular values 1, 0.5 and 1e-9 against the tolerance 1e-7: rank 2,
    # the largest dropped value 1e-2 of the tolerance, which is 2e-7 of the
    # smallest kept
    left, vh, rank, (dropped, kept) = eigenbasis._ranked_svd(np.diag([1.0, 0.5, 1e-9]))
    assert rank == 2
    assert dropped == pytest.approx(1e-2, rel=1e-12)
    assert kept == pytest.approx(2e-7, rel=1e-12)
    # past 1 the tolerance scales with the largest value: 4e-7 at 4
    _, _, rank, (dropped, kept) = eigenbasis._ranked_svd(np.diag([4.0, 0.5, 1e-9]))
    assert rank == 2
    assert dropped == pytest.approx(2.5e-3, rel=1e-12)
    assert kept == pytest.approx(8e-7, rel=1e-12)


def test_gram_check_reads_every_pass():
    # 200 columns take two column passes (163 and 37): an orthonormal block
    # passes, and a deviation of 1e-6 is found off the diagonal across the
    # passes and on the diagonal of the second
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((400, 200)))
    assert len(eigenbasis._passes(200, 200, eigenbasis._GEMM_WIDTH)) == 2
    eigenbasis._check_gram(q, 1.0, "q")
    eigenbasis._check_gram(2.0 * q, 4.0, "q")
    across, diagonal = q.copy(), q.copy()
    across[:, 190] += 1e-6 * q[:, 5]
    diagonal[:, 190] *= 1.0 + 1e-6
    for block in (across, diagonal):
        with pytest.raises(NumericError, match="^eigenspace q: Gram matrix deviates"):
            eigenbasis._check_gram(block, 1.0, "q")


def test_remainder_at_cell_level_zero_is_empty(level4):
    # the one 0-cell holds every vector: nothing is left over
    bundle = level4.family_bundle(6, 3)
    rem = eigenbasis.eigenspace_remainder(bundle, 0)
    assert rem.columns.shape == (bundle.vectors.shape[0], 0)
    assert (rem.dims, rem.per_cell) == ([0], [bundle.dim])


def test_a_partial_eigenspace_is_refused(level4):
    # 10 of the 39 columns of the newborn 6-eigenspace of level 4: read as
    # the whole eigenspace they would give 2 localized vectors per 1-cell,
    # where the whole gives 12; the remainder and the split refuse them
    bundle = next(b for b in level4.bundles if b.record.key == "6:4:+")
    assert eigenbasis.eigenspace_remainder(bundle, 1).per_cell == [12]
    partial = dataclasses.replace(bundle, vectors=bundle.vectors[:, :10])
    for read in (eigenbasis.eigenspace_remainder, eigenbasis.localized_split):
        with pytest.raises(
            StructuralError, match="^bundle dimension 10 != predicted multiplicity 39$"
        ):
            read(partial, 1)


def test_dense_solve_names_its_residual_bound(monkeypatch):
    # an eigensolve off by 1e-6 fails with the bound it missed
    lap = build_dirichlet_laplacian(build_vertices(2))
    eigh = np.linalg.eigh

    def off(mat):
        values, vectors = eigh(mat)
        return values + 1e-6, vectors

    monkeypatch.setattr(eigenbasis.np.linalg, "eigh", off)
    scale = float(np.max(np.abs(lap)))
    bound = f"{eigenbasis.RESIDUAL_RTOL * scale:.3e}"
    with pytest.raises(NumericError, match=re.escape(f"* ||L|| = {bound}")):
        solve_graph_spectrum(lap)


def test_grouping_refuses_only_predictions_within_three_tolerances(monkeypatch):
    # two predicted values 1.2e-5 apart at 5 lie within 3 * GROUPING_RTOL *
    # 5 = 1.5e-5 and are refused; 2e-5 apart they are grouped
    from types import SimpleNamespace

    def prediction(gap):
        return [
            SimpleNamespace(graph_value=g, multiplicity=1,
                            record=SimpleNamespace(value=g, key=f"k{i}"))
            for i, g in enumerate((2.0, 5.0, 5.0 + gap))
        ]

    for gap, refused in ((1.2e-5, True), (2e-5, False)):
        entries = prediction(gap)
        monkeypatch.setattr(decimation, "truncated_graph_spectrum", lambda m: entries)
        values = np.array([g.graph_value for g in entries])
        if refused:
            with pytest.raises(StructuralError, match="too close to group"):
                group_eigenspaces(values, np.eye(3), 1)
        else:
            _, bundles = group_eigenspaces(values, np.eye(3), 1)
            assert [b.record.key for b in bundles] == ["k0", "k1", "k2"]


def _lineage_values(m):
    """Every graph value a level-m walk extends at, by its level."""
    return [(g.birth + len(g.prefix), g.graph_value)
            for g in eigenbasis._tree(m).values() if g.prefix]


def _norm_with_denominator(den):
    """c(lam) in the t, D form of its derivation, with D = den(lam)."""
    def norm(lam):
        t, parent = 4.0 - lam, lam * (5.0 - lam)
        return 1.0 + (2.0 * (2.0 * t * t + 4.0) + (t * t + 4.0 * t) * (4.0 - parent)) / den(lam) ** 2
    return norm


@pytest.mark.parametrize("m", range(2, 7))
def test_extension_norm_holds_at_every_lineage_step(monkeypatch, m):
    # every extension the walks take scales each column's squared norm by
    # c(lam), the closed form, to 1e-12 relative (5.2e-13 at m = 6), at
    # every graph value of the tree; the cancelled form equals the t, D form
    # of its derivation
    steps = []
    extended = eigenbasis._extended

    def measured(ref, values, lam, key, out):
        raw = np.empty_like(out)
        eigenbasis._extend(ref, values, lam, raw)
        ratio = np.einsum("ij,ij->j", raw, raw) / np.einsum("ij,ij->j", values, values)
        steps.append((lam, ratio))
        extended(ref, values, lam, key, out)

    monkeypatch.setattr(eigenbasis, "_extended", measured)
    eigenbasis.walk_remainder(m, 1)
    eigenbasis.walk_eigenspaces(m, lambda b, _: None, k=1)
    assert {lam for lam, _ in steps} == {lam for _, lam in _lineage_values(m)}
    t_d_form = _norm_with_denominator(lambda x: (2.0 - x) * (5.0 - x))
    for lam, ratio in steps:
        c = eigenbasis._extension_norm(lam)
        assert np.max(np.abs(ratio / c - 1.0)) <= 1e-12, lam
        assert abs(t_d_form(lam) / c - 1.0) <= 1e-11, lam


def test_a_wrong_extension_denominator_fails(monkeypatch):
    # D = (2 - lam)(4 - lam) in place of (2 - lam)(5 - lam): the measured
    # norm of the first extension misses the closed form, at level 2 in the
    # walk and at level 3 along the lineage of 5:2:+
    monkeypatch.setattr(
        eigenbasis, "_extension_norm", _norm_with_denominator(lambda x: (2.0 - x) * (4.0 - x))
    )
    for build in (lambda: eigenbasis.level_remainder(3, 1),
                  lambda: eigenbasis.eigenspace(3, "5:2:+")):
        with pytest.raises(NumericError, match=r"^level [23], eigenspace .*misses the closed form"):
            build()


@pytest.mark.parametrize("m", [4, 6, 7])
def test_the_whole_walk_extends_no_whole_block(monkeypatch, m):
    # whole eigenspaces are assembled at the leaves from their remainders
    # at cell level 1 and the templates, three columns at most; each node
    # above the leaves is extended at most twice, as a remainder and as a
    # template, so no template is built twice in one walk.  The templates
    # outlive the walk: a second walk extends each node once, as its
    # remainder, and one lineage extends only its own remainders
    extended = []
    original = eigenbasis._extended

    def recording(ref, values, lam, key, out):
        extended.append((ref.level, key, values.shape[1]))
        original(ref, values, lam, key, out)

    def steps():
        counts = collections.Counter((level, key) for level, key, _ in extended)
        extended.clear()
        return counts

    monkeypatch.setattr(eigenbasis, "_extended", recording)
    eigenbasis.walk_eigenspaces(m, lambda b, _: None, k=1)
    assert max(width for _, _, width in extended) == 3
    first = steps()
    assert max(first.values()) == 2
    assert len(first) == sum(1 for g in eigenbasis._tree(m).values() if g.prefix)
    eigenbasis.walk_eigenspaces(m, lambda b, _: None, k=1)
    assert steps() == collections.Counter(first.keys())
    # the 6-eigenspace of the latest birth with branches, which reads the
    # templates of every earlier birth along its branches
    g = max((g for g in eigenbasis._predicted(m) if g.series == 6 and g.prefix),
            key=lambda g: g.birth)
    eigenbasis.eigenspace(m, g.record.key)
    lineage = [eigenbasis._tree(m)[6, g.birth, g.prefix[:i]] for i in range(1, len(g.prefix) + 1)]
    assert steps() == collections.Counter(
        (g.birth + len(node.prefix), node.record.key) for node in lineage
    )


def _tamper_with_cell_block(monkeypatch, series, j, change):
    """`_cell_block(series, j)` passed through `change`, the birth-j template
    of every later birth of the series."""
    cell_block = eigenbasis._cell_block

    def tampered(s, birth):
        block = cell_block(s, birth)
        return change(block.copy()) if (s, birth) == (series, j) else block

    monkeypatch.setattr(eigenbasis, "_cell_block", tampered)


@pytest.mark.parametrize("series", [5, 6])
def test_a_template_in_reversed_rows_fails_the_stencil(monkeypatch, series):
    # reversed rows keep the Gram matrix, but no longer solve the
    # eigen-equation of level 3
    _tamper_with_cell_block(monkeypatch, series, 3, lambda block: block[::-1])
    key = _newborn_entry(series, 5).record.key
    with pytest.raises(NumericError, match=r"^level 3, eigenspace .*: stencil residual"):
        eigenbasis.eigenspace(5, key)


@pytest.mark.parametrize("series", [5, 6])
def test_a_template_whose_corner_sum_is_off_fails(monkeypatch, series):
    # 1e-9 (unit-norm columns) added at one neighbour of corner 0 moves the
    # stencil residual by at most 2e-9, inside its 4e-9, and the corner sum
    # by 1e-9, ten times SNAP_TOL: a translate of it would not be an
    # eigenvector at the corners of its cell
    vertices = build_vertices(3)
    row = eigenbasis._cell_partners(vertices, np.array(vertices.boundary))[0, 0]

    def nudged(block):
        block[row] += 1e-9 / np.sqrt(interior_weight(3))
        return block

    _tamper_with_cell_block(monkeypatch, series, 3, nudged)
    key = _newborn_entry(series, 5).record.key
    with pytest.raises(NumericError, match=r"^level 3, eigenspace .*: corner sum 1\.0"):
        eigenbasis.eigenspace(5, key)


@pytest.mark.parametrize("series", [5, 6])
def test_a_template_off_its_norm_fails_at_birth(monkeypatch, series):
    # scaled by 1 + 1e-6 the template still solves its eigen-equation and
    # its corner sums still vanish; only its Gram check at birth sees it
    _tamper_with_cell_block(monkeypatch, series, 3, lambda block: block * (1.0 + 1e-6))
    key = re.escape(_newborn_entry(series, 3).record.key)
    with pytest.raises(NumericError, match=f"^eigenspace {key}: Gram matrix deviates"):
        eigenbasis.eigenspace(5, _newborn_entry(series, 5).record.key)


def test_a_template_not_orthogonal_to_its_finest_templates_fails(monkeypatch):
    # the birth-4 6-series template turned a tenth of the way toward the
    # translate of the birth-2 template into 2-cell 0: still orthonormal
    # eigenvectors with vanishing corner sums, and orthogonal to the
    # birth-3 translates, but not to those of birth 2, the last cell level
    # its cross Gram reads
    def turned(block):
        translate = np.zeros(block.shape[0])
        rows = eigenbasis._translates(build_vertices(4), 2)[0]
        translate[rows] = eigenbasis._cell_block(6, 2)[:, 0] * 3.0
        block[:, 0] = np.sqrt(0.99) * block[:, 0] + 0.1 * translate
        return block

    _tamper_with_cell_block(monkeypatch, 6, 4, turned)
    key = re.escape(_newborn_entry(6, 4).record.key)
    with pytest.raises(NumericError, match=f"^eigenspace {key}: .*cross Gram entry 1\\.0"):
        eigenbasis.eigenspace(5, _newborn_entry(6, 5).record.key)


def test_a_remainder_not_orthogonal_to_its_templates_fails(monkeypatch):
    # the newborn 6-series remainder of level 5 turned a tenth of the way
    # toward the translate of the birth-4 template into 1-cell 0: still
    # orthonormal eigenvectors, but no longer orthogonal to the localized
    # vectors it is assembled with
    remainder = eigenbasis._newborn_remainder

    def turned(series, level):
        rem = remainder(series, level)
        if (series, level) != (6, 5):
            return rem
        translate = np.zeros(rem.shape[0])
        rows = eigenbasis._translates(build_vertices(5), 1)[0]
        translate[rows] = eigenbasis._cell_block(6, 4)[:, 0] * np.sqrt(3.0)
        rem = rem.copy()
        rem[:, 0] = np.sqrt(0.99) * rem[:, 0] + 0.1 * translate
        return rem

    monkeypatch.setattr(eigenbasis, "_newborn_remainder", turned)
    with pytest.raises(NumericError, match=r"^eigenspace 6:5:\+: .*cross Gram entry 1\.0"):
        eigenbasis.eigenspace(5, _newborn_entry(6, 5).record.key)


def test_validate_solves_each_newborn_remainder_once(monkeypatch, tmp_path):
    # one m = 7 validate reads the newborn remainders through many lineages
    # and walks, and solves each (series, level) once: the 5-series at
    # levels 1 to 7, the 6-series at 2 to 7
    calls = []
    for name in ("_newborn_five_remainder", "_newborn_six_remainder"):
        solve = getattr(eigenbasis, name)

        def counted(ref, w, g, out, _solve=solve):
            calls.append((g.series, ref.level))
            _solve(ref, w, g, out)

        monkeypatch.setattr(eigenbasis, name, counted)
    config = tmp_path / "validate.json"
    config.write_text('{"m": 7}')
    assert cli.main(["validate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == len(set(calls))
    assert sorted(calls) == [(5, level) for level in range(1, 8)] + [
        (6, level) for level in range(2, 8)
    ]


def test_validate_certifies_each_template_once(monkeypatch, tmp_path):
    # one m = 7 validate reads the cell-0 templates through many
    # eigenspaces, lineages and walks, and certifies each once: every
    # template (series, j, prefix) of births j >= 2 below level 7, and only
    # a template's certification checks corner sums
    calls = collections.Counter()
    check = eigenbasis._check_corners

    def counted(level, block, key):
        calls[level, key] += 1
        check(level, block, key)

    monkeypatch.setattr(eigenbasis, "_check_corners", counted)
    config = tmp_path / "validate.json"
    config.write_text('{"m": 7}')
    assert cli.main(["validate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    templates = {
        (g.birth + len(g.prefix), g.record.key)
        for g in eigenbasis._tree(6).values() if g.series in (5, 6) and g.birth >= 2
    }
    assert len(templates) == 88
    assert calls == collections.Counter(templates)
