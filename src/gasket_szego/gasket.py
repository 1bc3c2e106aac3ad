"""Sierpinski gasket geometry: cells, vertices, self-similar measure, graph Laplacians.

The gasket is the attractor of the three midpoint contractions of a triangle.
A level-m cell is named by its index in word order: its base-3 digits, each
plus one, are its word over {1,2,3}.  Vertices are exact integer barycentric
triples over 2^m, so the construction is deterministic and free of
floating-point dedup issues.  `build_vertices(m)` owns the level-m vertex
set: it is built once per process, and every other object looks it up by
its level; none stores it.  Its `rows` is the one map from vertex ids to
Dirichlet rows, its `neighbours` the level graph's one adjacency table, and
its `cell_rows(k)` the one map from interior rows to their k-cells.  The
self-similar measure is its array of vertex weights.  The corner
coordinates serve only plots and user-supplied continuous functions.  The
Dirichlet spectrum, `validate`'s oracle, comes from three real blocks by the
gasket's symmetry group D_3; the dense matrix `build_dirichlet_laplacian` is
kept for the tests.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError, StructuralError
from .serialize import write_csv

LEVEL_CAP = 8

#: default corner embedding; nothing numeric depends on this choice
CORNER_COORDS = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


@dataclass
class VertexSet:
    """Level-m vertex complex with exact combinatorics.

    ``bary`` holds integer barycentric triples over 2^m (rows sum to 2^m),
    ``cells[c]`` the three vertex ids of cell c (corner order 1,2,3) and
    ``first_cell[v]`` the first cell, in word order, containing vertex v.
    ``rows[v]`` is the Dirichlet row of vertex v, ``n_interior`` for a
    boundary vertex, and ``neighbours[r]`` the rows of interior row r's four
    neighbours, one per side of each of its two cells: the level graph's one
    adjacency.  Both follow ``interior``, so a replaced set stays consistent.
    """

    level: int
    bary: np.ndarray
    coords: np.ndarray
    boundary: tuple[int, int, int]
    cells: np.ndarray
    first_cell: np.ndarray = field(repr=False)
    interior: np.ndarray = field(repr=False)
    rows: np.ndarray = field(init=False, repr=False)
    neighbours: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.rows = np.full(self.n_vertices, self.n_interior, dtype=np.int64)
        self.rows[self.interior] = np.arange(self.n_interior)
        # the directed sides (0,1), (1,0), (1,2), (2,1), (2,0), (0,2), each
        # over the cells in cell order, stably sorted by their source row:
        # a gather of the four columns sums in the order of that side list
        corners = self.rows[self.cells]
        src = corners[:, [0, 1, 1, 2, 2, 0]].T.ravel()
        dst = corners[:, [1, 0, 2, 1, 0, 2]].T.ravel()
        inside = src < self.n_interior
        order = np.argsort(src[inside], kind="stable")
        self.neighbours = dst[inside][order].reshape(self.n_interior, 4)
        for array in (self.rows, self.neighbours):
            array.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return self.bary.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior.shape[0]

    def vertex_ids(self, triples) -> np.ndarray:
        """The id of each barycentric triple, -1 for one that is no vertex,
        by one `searchsorted` on the sorted triples' keys."""
        triples, keys = np.asarray(triples), _keys(self.bary, self.level)
        ids = np.searchsorted(keys, _keys(triples, self.level))
        ids = np.minimum(ids, keys.size - 1)
        return np.where((self.bary[ids] == triples).all(axis=1), ids, -1)

    def cell_rows(self, k: int) -> np.ndarray:
        """Per interior row, the index of its k-cell, or -1 for a level-k
        vertex: k-cells meet only at their corners, so every other vertex
        lies in one k-cell, the one holding its first level-m cell."""
        inside = self.interior
        cells = self.first_cell[inside] // 3 ** (self.level - k)
        cells[(self.bary[inside] % 2 ** (self.level - k) == 0).all(axis=1)] = -1
        return cells


def check_level(m: int) -> None:
    """Raise unless 0 <= m <= LEVEL_CAP."""
    if m < 0:
        raise DomainError(f"level must be nonnegative, got {m}")
    if m > LEVEL_CAP:
        raise ResourceLimitError(f"level {m} exceeds cap {LEVEL_CAP}")


def build_vertices(m: int) -> VertexSet:
    """The level-m vertex set; ids are deterministic across runs.

    One set per level is built per process and shared, so its arrays are
    read-only.  A level above `LEVEL_CAP` raises before anything is built.
    """
    check_level(m)
    return _vertices(m)


def _keys(triples: np.ndarray, m: int) -> np.ndarray:
    """Base-2^(m+1) integer keys of level-m triples, in their lexicographic order."""
    return triples @ np.array([1 << 2 * (m + 1), 1 << m + 1, 1])


@functools.cache
def _vertices(m: int) -> VertexSet:
    # corner c of the cell whose base-3 digits d_1..d_m are its word has the
    # triple e_c + sum_j 2^(m-j) e_(d_j) over 2^m; d_(m-j) is cell // 3^j % 3
    cell = np.arange(3**m)
    base = np.zeros((cell.size, 3), dtype=np.int64)
    for j in range(m):
        base[cell, cell // 3**j % 3] += 1 << j
    corners = (base[:, None, :] + np.eye(3, dtype=np.int64)).reshape(-1, 3)
    keys, first, cells = np.unique(
        _keys(corners, m), return_index=True, return_inverse=True
    )
    bary = corners[first]
    n = bary.shape[0]
    coords = (bary.astype(float) @ np.array(CORNER_COORDS)) / float(1 << m)
    cells = cells.reshape(-1, 3)
    corner_keys = _keys(np.eye(3, dtype=np.int64) << m, m)
    boundary = tuple(np.searchsorted(keys, corner_keys).tolist())
    interior = np.delete(np.arange(n), boundary)

    vs = VertexSet(
        level=m,
        bary=bary,
        coords=coords,
        boundary=boundary,
        cells=cells,
        first_cell=first // 3,
        interior=interior,
    )
    expected = (3 ** (m + 1) + 3) // 2
    if vs.n_vertices != expected:
        raise ResourceLimitError(
            f"vertex count {vs.n_vertices} != {expected} at level {m}"
        )
    for array in (bary, coords, cells, vs.first_cell, interior):
        array.flags.writeable = False
    return vs


def _cell_sums(vertices: VertexSet, cell_values: np.ndarray | None = None) -> np.ndarray:
    """Per vertex, the sum of `cell_values` over the cells containing it, in
    cell order; without values, the number of those cells."""
    weights = None if cell_values is None else np.repeat(cell_values, 3)
    return np.bincount(
        vertices.cells.ravel(), weights=weights, minlength=vertices.n_vertices
    )


def build_measure(vertices: VertexSet) -> np.ndarray:
    """The balanced self-similar probability measure sampled on vertices.

    Each level-m cell contributes 3^-(m+1) to each of its three corners, so a
    vertex in k cells carries weight k * 3^-(m+1) and the weights sum to one.
    """
    return _cell_sums(vertices) * 3.0 ** (-(vertices.level + 1))


@dataclass
class SimpleFunction:
    """A function constant on level-N cells, one value per cell in word order."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (3 ** self.level,):
            raise DomainError(
                f"need {3 ** self.level} cell values, got {self.values.shape}"
            )

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def min_value(self) -> float:
        return float(np.min(self.values))

    @property
    def max_value(self) -> float:
        return float(np.max(self.values))

    def refined(self, level: int) -> np.ndarray:
        """The values on the level's cells, in word order."""
        if self.level > level:
            raise DomainError(
                f"simple function at level {self.level} finer than level {level}"
            )
        return np.repeat(self.values, 3 ** (level - self.level))

    def scaled(self, factor: float) -> "SimpleFunction":
        return SimpleFunction(self.level, self.values * factor)

    def shifted(self, offset: float) -> "SimpleFunction":
        return SimpleFunction(self.level, self.values + offset)


def constant_function(value: float, level: int = 0) -> SimpleFunction:
    return SimpleFunction(level, np.full(3 ** level, float(value)))


def integrate_simple(f: SimpleFunction, k: int = 1) -> float:
    """Integral of f^k against the measure, in closed form."""
    if k < 0:
        raise DomainError(f"power must be nonnegative, got {k}")
    return math.fsum(float(v) ** k for v in f.values) * 3.0 ** (-f.level)


def effective_multiplier(f, vertices: VertexSet) -> np.ndarray:
    """Per-vertex diagonal g with sum_x g(x) u(x) v(x) = integral of f*u*v.

    A vertex shared by two cells takes each cell's value with that cell's
    measure contribution 3^-(m+1); this makes the discrete integral of a
    simple function exact.
    """
    if isinstance(f, SimpleFunction):
        return _cell_sums(vertices, f.refined(vertices.level)) * 3.0 ** (
            -(vertices.level + 1)
        )
    x, y = vertices.coords.T
    return build_measure(vertices) * np.asarray(f(x, y))


def vertex_values(f, vertices: VertexSet) -> np.ndarray:
    """Pointwise samples of f at vertices (cell-averaged for simple f)."""
    if isinstance(f, SimpleFunction):
        return _cell_sums(vertices, f.refined(vertices.level)) / _cell_sums(vertices)
    return np.asarray(f(vertices.coords[:, 0], vertices.coords[:, 1]), dtype=float)


def _interior_edges(vertices: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges (x, y) between interior rows, read off the neighbour
    table; the one edge list both Laplacian builders read."""
    if vertices.level < 1:
        raise DomainError("no interior vertices at level 0, Dirichlet matrix empty")
    x = np.repeat(np.arange(vertices.n_interior), 4)
    y = vertices.neighbours.ravel()
    inside = y < vertices.n_interior
    return x[inside], y[inside]


def _rotated(bary: np.ndarray) -> np.ndarray:
    """The gasket's rotation on barycentric triples: (a, b, c) -> (b, c, a)."""
    return bary[:, [1, 2, 0]]


def _reflected(bary: np.ndarray) -> np.ndarray:
    """The gasket's reflection on barycentric triples: (a, b, c) -> (a, c, b)."""
    return bary[:, [0, 2, 1]]


def build_dirichlet_laplacian(vertices: VertexSet) -> np.ndarray:
    """The dense Dirichlet graph Laplacian on the interior rows: diagonal 4
    and -1 per edge, filled from the cells' edges."""
    x, y = _interior_edges(vertices)
    n = vertices.n_interior
    lap = np.zeros((n, n))
    lap[np.diag_indices(n)] = 4.0
    lap[x, y] = -1.0
    return lap


#: cos(2 pi t / 12) for t = 0..11, exact where the value is 0, 1/2 or 1
_COS12 = np.array([2, 3**0.5, 1, 0, -1, -3**0.5, -2, -3**0.5, -1, 0, 1, 3**0.5]) / 2


def _slot(k: int, *parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per orbit, a block column, a scale and a phase in twelfths of a turn,
    from (orbits, columns, scale, phase) parts; other orbits get scale 0."""
    col, scale, turn = np.zeros(k, dtype=int), np.zeros(k), np.zeros(k, dtype=int)
    for orbits, columns, s, t in parts:
        col[orbits], scale[orbits], turn[orbits] = columns, s, t
    return col, scale, turn


def _block(size: int, slots, ox, oy, phase) -> np.ndarray:
    """4I minus the adjacency on the vectors with the slots' coefficients
    s e^(2 pi i t / 12) on the orbit sector vectors: each edge (x, y) adds
    Re(conj(a) b e^(2 pi i phase / 12)) / 3 over the slots' a at o(x) and b
    at o(y), which sums to all of it, as the block is real."""
    block = np.zeros((size, size))
    for col_a, s_a, t_a in slots:
        for col_b, s_b, t_b in slots:
            w = s_a[ox] * s_b[oy]
            keep = w != 0.0
            t = (t_b[oy] - t_a[ox] + phase)[keep] % 12
            np.add.at(block, (col_a[ox][keep], col_b[oy][keep]),
                      -w[keep] * _COS12[t] / 3.0)
    block[np.diag_indices(size)] += 4.0
    return block


def symmetry_blocks(vertices: VertexSet):
    """The Dirichlet Laplacian block-diagonalized by D_3 = <rho, sigma>.

    On the sector vectors sum_e w^(k e) / sqrt(3) at rho^e r_o of each orbit
    o (r_o its first row, w = e^(2 pi i / 3)) it splits into H_0, H_1 and
    conj H_1.  With sigma(r_o) = rho^f(o) r_tau(o), yields (copies, block):
    H_0 on the sigma-even vectors (e_o if tau o = o, else (e_o + e_tau o) /
    sqrt(2)) and on the odd ones ((e_o - e_tau o) / sqrt(2)), once each, of
    sizes (n/3 + m) / 2 and (n/3 - m) / 2; then H_1, twice, on the vectors
    that sigma composed with conjugation fixes, where it is real: w^f e_o if
    tau o = o, else (e_o + w^(2f) e_tau o) / sqrt(2) and
    i (e_o - w^(2f) e_tau o) / sqrt(2).  Each block is summed from the
    interior edges when asked for.  Exact integer checks of the group and of
    the edge list raise `StructuralError` naming the level.
    """
    m = vertices.level
    x, y = _interior_edges(vertices)
    n = vertices.n_interior
    rows = np.arange(n)
    # boundary vertices and non-vertices (id -1, the appended entry) map to -1,
    # which indexes where n would raise, so every check below runs first
    pos = np.append(np.where(vertices.rows < n, vertices.rows, -1), -1)
    interior = vertices.bary[vertices.interior]
    rho, sigma = (pos[vertices.vertex_ids(g(interior))] for g in (_rotated, _reflected))
    rho2 = rho[rho]
    first = np.flatnonzero((rows < rho) & (rows < rho2))
    edges = np.unique(x * n + y)

    def permutes(perm):
        return (perm >= 0).all() and np.unique(perm).size == n

    def invariant(perm):
        return np.array_equal(np.sort(perm[x] * n + perm[y]), edges)

    # every check is evaluated before one raises: a non-permutation's -1 indexes
    for ok, failure in (
        (permutes(rho), "the rotation does not permute the interior rows"),
        (permutes(sigma), "the reflection does not permute the interior rows"),
        (np.array_equal(rho[rho2], rows), "the rotation cubed is not the identity"),
        (np.array_equal(sigma[sigma], rows),
         "the reflection squared is not the identity"),
        (np.array_equal(sigma[rho[sigma]], rho2),
         "the reflection does not conjugate the rotation to its square"),
        (3 * first.size == n, "a rotation orbit does not have 3 rows"),
        (edges.size == x.size, "the interior edge list has duplicates"),
        (np.array_equal(np.sort(y * n + x), edges) and invariant(rho),
         "the interior edge set is not symmetric and rotation invariant"),
        (invariant(sigma), "the interior edge set is not reflection invariant"),
    ):
        if not ok:
            raise StructuralError(f"level {m}: {failure}")
    orbit, exponent = np.empty((2, n), dtype=np.int64)
    for e, members in enumerate((first, rho[first], rho2[first])):
        orbit[members], exponent[members] = np.arange(first.size), e

    k = first.size
    tau, f = orbit[sigma[first]], exponent[sigma[first]]
    fixed = np.flatnonzero(tau == np.arange(k))
    low = np.flatnonzero(np.arange(k) < tau)
    high = tau[low]
    n_fixed, n_pairs = fixed.size, low.size
    single, pairs, h = np.arange(n_fixed), n_fixed + np.arange(n_pairs), 0.5**0.5
    even = _slot(k, (fixed, single, 1.0, 0), (low, pairs, h, 0), (high, pairs, h, 0))
    odd = _slot(k, (low, pairs - n_fixed, h, 0), (high, pairs - n_fixed, -h, 0))
    plus = _slot(k, (fixed, single, 1.0, 4 * f[fixed]), (low, pairs, h, 0),
                 (high, pairs, h, 8 * f[high]))
    minus = _slot(k, (low, pairs + n_pairs, h, 3),
                  (high, pairs + n_pairs, h, 9 + 8 * f[high]))
    ox, oy = orbit[x], orbit[y]
    yield 1, _block(n_fixed + n_pairs, [even], ox, oy, 0)
    yield 1, _block(n_pairs, [odd], ox, oy, 0)
    yield 2, _block(k, [plus, minus], ox, oy, 4 * (exponent[y] - exponent[x]))


def dirichlet_spectrum(vertices: VertexSet) -> np.ndarray:
    """Ascending eigenvalues of the Dirichlet graph Laplacian, those of each
    D_3 block as often as it occurs; no n x n and no complex array is formed."""
    return np.sort(np.concatenate([
        np.repeat(np.linalg.eigvalsh(block), copies)
        for copies, block in symmetry_blocks(vertices)
    ]))


def vertices_to_csv(vertices: VertexSet, path) -> None:
    """Debug dump: vertex_id,x,y,weight,is_boundary."""
    boundary = set(vertices.boundary)
    rows = [
        (v, float(x), float(y), float(w), int(v in boundary))
        for v, ((x, y), w) in enumerate(zip(vertices.coords, build_measure(vertices)))
    ]
    write_csv(path, ("vertex_id", "x", "y", "weight", "is_boundary"), rows)
