import dataclasses
import importlib
import itertools
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasket_szego
from gasket_szego import gasket
from gasket_szego.decimation import (
    interior_dimension,
    renormalization_factor,
    truncated_graph_spectrum,
)
from gasket_szego.errors import DomainError, ResourceLimitError
from gasket_szego.gasket import (
    SimpleFunction,
    build_dirichlet_laplacian,
    build_measure,
    build_vertices,
    constant_function,
    effective_multiplier,
    inertia_counts,
    integrate_simple,
    vertex_values,
    vertices_to_csv,
)

from dense_oracle import cell_inside_rows, reference_edges


@pytest.mark.parametrize("m", range(0, 7))
def test_cell_corners_follow_the_words(m):
    # cell c's base-3 digits d_1..d_m name the cell F_d1 o ... o F_dm of the
    # triangle, F_d(x) = (x + p_d) / 2; its corner i is the image of p_i
    vs = build_vertices(m)
    for c, word in enumerate(itertools.product(range(3), repeat=m)):
        for i in range(3):
            num, den = [0, 0, 0], 1
            num[i] = 1
            for d in reversed(word):
                num[d] += den
                den *= 2
            assert vs.bary[vs.cells[c, i]].tolist() == num, (word, i)


@pytest.mark.parametrize("m", range(0, 9))
def test_cell_rows_partition(m):
    # each k-cell holds the interior rows inside it, as many as a level-(m-k)
    # gasket has, and the -1 rows are the interior level-k vertices
    vs = build_vertices(m)
    for k in range(m + 1):
        rows = vs.cell_rows(k)
        assert rows.flags.writeable and not np.shares_memory(rows, vs.first_cell)
        assert np.sum(rows == -1) == np.sum(rows < 0) == interior_dimension(k)
        counts = np.bincount(rows[rows >= 0], minlength=3**k)
        assert counts.tolist() == [interior_dimension(m - k)] * 3**k
        order = np.argsort(rows, kind="stable")[interior_dimension(k):]
        for c, inside in enumerate(np.split(order, np.cumsum(counts)[:-1])):
            assert np.array_equal(inside, cell_inside_rows(vs, k, c)), (k, c)


def test_only_the_vertex_set_holds_a_vertex_set():
    # a level's vertex set is looked up by the level from build_vertices,
    # never stored in another object
    holders = []
    for info in pkgutil.iter_modules(gasket_szego.__path__):
        module = importlib.import_module(f"gasket_szego.{info.name}")
        for name, cls in vars(module).items():
            if (dataclasses.is_dataclass(cls) and cls is not gasket.VertexSet
                    and cls.__module__ == module.__name__):
                holders += [f"{name}.{f.name}" for f in dataclasses.fields(cls)
                            if "VertexSet" in str(f.type)]
    assert holders == []


def test_level0_is_the_outer_triangle():
    vs = build_vertices(0)
    assert vs.n_vertices == 3
    assert vs.n_cells == 1
    assert vs.n_interior == 0


def test_level1_counts():
    # enumerate words of length 1 and merge coincident midpoints by hand:
    # 3 corners + 3 midpoints, and the 3 midpoints are interior
    vs = build_vertices(1)
    assert vs.n_vertices == 6
    assert vs.n_cells == 3
    assert vs.n_interior == 3


def test_level2_brute_force_dedup():
    # brute-force union of 9 cell-vertex triples with coordinate dedup
    vs = build_vertices(2)
    seen = set()
    for cell in vs.cells:
        for vid in cell:
            seen.add(tuple(vs.bary[vid]))
    assert len(seen) == 15
    assert vs.n_vertices == (3 ** 3 + 3) // 2 == 15


@pytest.mark.parametrize("m", range(0, 6))
def test_vertex_count_formulas(m):
    vs = build_vertices(m)
    assert vs.n_vertices == (3 ** (m + 1) + 3) // 2
    assert vs.n_interior == (3 ** (m + 1) - 3) // 2
    # construction-independent recount through cell incidence
    counts = np.bincount(vs.cells.ravel(), minlength=vs.n_vertices)
    ones = int(np.sum(counts == 1))
    twos = int(np.sum(counts == 2))
    assert ones == 3 or m == 0
    assert ones + twos == vs.n_vertices


def test_boundary_vertices_in_exactly_one_cell():
    vs = build_vertices(3)
    counts = np.bincount(vs.cells.ravel(), minlength=vs.n_vertices)
    for v in vs.boundary:
        assert counts[v] == 1
    for v in range(vs.n_vertices):
        if v not in vs.boundary:
            assert counts[v] == 2
    for cell in vs.cells:
        assert len(set(int(x) for x in cell)) == 3


def test_level_cap():
    with pytest.raises(ResourceLimitError):
        build_vertices(9)
    with pytest.raises(DomainError):
        build_vertices(-1)


def test_vertex_sets_are_shared_and_read_only(monkeypatch):
    vs = build_vertices(3)
    assert build_vertices(3) is vs
    for array in (vs.bary, vs.coords, vs.cells, vs.first_cell, vs.interior, vs.rows,
                  vs.neighbours):
        with pytest.raises(ValueError):
            array[0] = 0
    # the cap and sign checks come before the cached build
    def no_build(m):
        raise AssertionError(f"built level {m}")

    monkeypatch.setattr(gasket, "_vertices", no_build)
    with pytest.raises(ResourceLimitError):
        build_vertices(9)
    with pytest.raises(DomainError):
        build_vertices(-1)


@pytest.mark.parametrize("m", range(0, 9))
def test_vertex_ids_find_every_vertex(m):
    # the triples are sorted by key, so each finds its own index, the
    # largest (corner (2^m, 0, 0)) too; a triple off the gasket, with a key
    # past either end of theirs or between two of them, is no vertex
    vs = build_vertices(m)
    assert np.array_equal(vs.vertex_ids(vs.bary), np.arange(vs.n_vertices))
    assert vs.bary[-1].tolist() == [2**m, 0, 0]
    others = [[2**m + 1, 0, 0], [0, 0, 0], [1, 2**m, 0]]
    assert vs.vertex_ids(np.array(others)).tolist() == [-1, -1, -1]


def test_deterministic_vertex_ids():
    a = build_vertices(3)
    b = build_vertices(3)
    assert np.array_equal(a.bary, b.bary)
    assert np.array_equal(a.cells, b.cells)


def test_measure_level1_weights():
    vs = build_vertices(1)
    weights = build_measure(vs)
    for v in range(vs.n_vertices):
        expect = 2 / 9 if v not in vs.boundary else 1 / 9
        assert weights[v] == pytest.approx(expect, abs=1e-15)


def test_measure_level0_uniform():
    assert np.allclose(build_measure(build_vertices(0)), 1.0 / 3.0)


@pytest.mark.parametrize("m", range(0, 6))
def test_measure_total_mass(m):
    assert abs(math.fsum(build_measure(build_vertices(m))) - 1.0) <= 1e-14


def test_integrate_simple_examples():
    indicator = SimpleFunction(1, [1.0, 0.0, 0.0])
    assert integrate_simple(indicator, 1) == pytest.approx(1 / 3, abs=1e-15)
    const = constant_function(2.5)
    for k in range(4):
        assert integrate_simple(const, k) == pytest.approx(2.5 ** k, rel=1e-15)
    f = SimpleFunction(2, np.arange(1.0, 10.0))
    for k in (1, 2, 3):
        expect = sum(a ** k for a in range(1, 10)) / 9
        assert integrate_simple(f, k) == pytest.approx(expect, rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.lists(st.floats(-10, 10), min_size=9, max_size=9),
)
def test_discrete_integral_exact_for_simple(n_level, raw):
    # the weighted vertex sum reproduces the closed-form integral exactly
    values = raw[: 3 ** n_level]
    f = SimpleFunction(n_level, values)
    vs = build_vertices(3)
    g = effective_multiplier(f, vs)
    assert math.fsum(g) == pytest.approx(integrate_simple(f, 1), abs=1e-13)


def test_effective_multiplier_shared_vertex_attribution():
    # a vertex shared by two cells takes each cell's value with weight 3^-(m+1)
    vs = build_vertices(1)
    f = SimpleFunction(1, [6.0, 3.0, 0.0])
    g = effective_multiplier(f, vs)
    shared = set(vs.cells[0]) & set(vs.cells[1])
    assert len(shared) == 1
    v = shared.pop()
    assert g[v] == pytest.approx((6.0 + 3.0) / 9.0, abs=1e-15)


def test_vertex_values_cell_average():
    vs = build_vertices(1)
    f = SimpleFunction(1, [6.0, 3.0, 0.0])
    vals = vertex_values(f, vs)
    shared = (set(vs.cells[0]) & set(vs.cells[1])).pop()
    assert vals[shared] == pytest.approx(4.5, abs=1e-15)


def test_laplacian_level1_eigenvalues():
    # hand diagonalization of 4I - (triangle adjacency)
    hand_matrix = np.array([[4, -1, -1], [-1, 4, -1], [-1, -1, 4.0]])
    hand = np.linalg.eigvalsh(hand_matrix)
    lap = build_dirichlet_laplacian(build_vertices(1))
    assert np.array_equal(lap, hand_matrix)
    assert np.allclose(np.linalg.eigvalsh(lap), hand, atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(lap), [2.0, 5.0, 5.0], atol=1e-12)
    assert renormalization_factor(1) == 7.5


@pytest.mark.parametrize("m", range(1, 6))
def test_laplacian_symmetric_and_positive_definite(m):
    lap = build_dirichlet_laplacian(build_vertices(m))
    assert np.array_equal(lap, lap.T)
    assert lap.shape == ((3 ** (m + 1) - 3) // 2,) * 2
    assert np.linalg.eigvalsh(lap)[0] > 0
    diag = np.diag(lap)
    assert np.all(diag == 4.0)


@pytest.mark.parametrize("m", range(1, 6))
def test_laplacian_matches_full_adjacency_construction(m):
    # 4I minus the adjacency of every vertex, cut down to the interior
    vs = build_vertices(m)
    adj = np.zeros((vs.n_vertices, vs.n_vertices))
    for a, b, c in vs.cells.tolist():
        adj[a, b] = adj[b, a] = adj[a, c] = adj[c, a] = adj[b, c] = adj[c, b] = 1.0
    full = 4.0 * np.eye(vs.n_vertices) - adj
    expected = full[np.ix_(vs.interior, vs.interior)]
    lap = build_dirichlet_laplacian(vs)
    assert lap.dtype == expected.dtype
    assert lap.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", range(0, 9))
def test_neighbour_table_is_the_cell_adjacency(m):
    # row r lists its four neighbours, one per side of each of its two
    # cells, a boundary neighbour as n_interior: the interior entries are the
    # cells' sides in both directions, and each boundary vertex has two
    # interior neighbours in its one cell
    vs = build_vertices(m)
    n, table = vs.n_interior, vs.neighbours
    assert table.shape == (n, 4) and table.dtype == np.int64
    assert not table.flags.writeable
    x, y = np.repeat(np.arange(n), 4), table.ravel()
    inside = y < n
    edges = np.sort(x[inside] * n + y[inside])
    rx, ry = reference_edges(vs)
    assert np.array_equal(edges, np.sort(rx * n + ry))
    assert np.array_equal(edges, np.sort(y[inside] * n + x[inside]))
    assert np.all(y[~inside] == n)
    assert (~inside).sum() == (6 if m else 0)


@pytest.mark.parametrize("m", range(1, 8))
def test_laplacian_is_filled_from_the_cell_sides(m):
    vs = build_vertices(m)
    x, y = reference_edges(vs)
    expected = 4.0 * np.eye(vs.n_interior)
    expected[x, y] = -1.0
    assert build_dirichlet_laplacian(vs).tobytes() == expected.tobytes()


def test_laplacian_level0_error():
    with pytest.raises(DomainError):
        build_dirichlet_laplacian(build_vertices(0))
    with pytest.raises(DomainError):
        inertia_counts(0, [1.0])
    with pytest.raises(ResourceLimitError, match="level 9 exceeds cap 8"):
        inertia_counts(9, [1.0])


@pytest.mark.parametrize("m", range(1, 7))
def test_inertia_counts_match_the_dense_eigensolve(m):
    # random probes and the midpoint of every gap between distinct
    # eigenvalues, each compared with the count below it of the dense solve
    values = np.linalg.eigvalsh(build_dirichlet_laplacian(build_vertices(m)))
    gaps = np.flatnonzero(np.diff(values) > 1e-9)
    probes = np.concatenate([
        np.random.default_rng(m).uniform(-1.0, 9.0, 2000),
        (values[gaps] + values[gaps + 1]) / 2,
    ])
    probes = probes[np.min(np.abs(probes[:, None] - values), axis=1) > 1e-9]
    dense = np.searchsorted(values, probes)
    assert np.array_equal(inertia_counts(m, probes), dense)


def test_inertia_counts_at_the_level1_poles():
    # the level-1 spectrum is {2, 5, 5}; at a pole a zero pivot is taken as
    # negative, so the count there includes the eigenvalue itself
    probes = [-1.0, 1.5, 2.0, 3.0, 5.0, 6.0]
    assert inertia_counts(1, probes).tolist() == [0, 0, 1, 1, 3, 3]


def _windows_hold(m, values, multiplicities):
    """validate's oracle rule: each multiplicity fills the window 1e-8 wide,
    relative, around its value, and the windows all eigenvalues below 8."""
    g, mu = np.asarray(values), np.asarray(multiplicities)
    delta = 1e-8 * np.maximum(1.0, np.abs(g))
    counts = inertia_counts(m, np.concatenate([g - delta, g + delta, [8.0]]))
    below, above, total = counts[:g.size], counts[g.size:-1], counts[-1]
    return np.array_equal(above - below, mu) and mu.sum() == total


@pytest.mark.parametrize("m", range(1, 9))
def test_windows_hold_every_predicted_multiplicity(m):
    predicted = truncated_graph_spectrum(m)
    g = [e.graph_value for e in predicted]
    mu = [e.multiplicity for e in predicted]
    assert inertia_counts(m, 8.0) == interior_dimension(m)
    assert _windows_hold(m, g, mu)
    if m in (5, 8):
        # a value moved by twice the window's half width leaves its window
        # empty, and a dropped eigenspace leaves its eigenvalues uncounted
        for i in np.linspace(0, len(g) - 1, 4).astype(int):
            moved = list(g)
            moved[i] += 2e-8 * max(1.0, abs(g[i]))
            assert not _windows_hold(m, moved, mu)
        assert not _windows_hold(m, g[1:], mu[1:])


def test_inertia_counts_build_no_vertex_set(monkeypatch):
    def no_vertices(m):
        raise AssertionError(f"built the level-{m} vertex set")

    monkeypatch.setattr(gasket, "_vertices", no_vertices)
    assert inertia_counts(8, [8.0]).tolist() == [interior_dimension(8)]


def test_simple_function_validation():
    with pytest.raises(DomainError):
        SimpleFunction(1, [1.0, 2.0])
    with pytest.raises(DomainError):
        integrate_simple(constant_function(1.0), -1)
    # refinement repeats each cell's value over its subcells, never coarsens
    f = SimpleFunction(1, [1.0, 2.0, 3.0])
    assert f.refined(1).tolist() == [1.0, 2.0, 3.0]
    assert f.refined(2).tolist() == [1.0] * 3 + [2.0] * 3 + [3.0] * 3
    with pytest.raises(DomainError, match="finer than level 0"):
        f.refined(0)


def test_vertices_csv(tmp_path):
    vs = build_vertices(1)
    path = tmp_path / "vertices.csv"
    vertices_to_csv(vs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "vertex_id,x,y,weight,is_boundary"
    assert len(lines) == 1 + vs.n_vertices
