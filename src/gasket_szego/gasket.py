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
coordinates serve only plots and user-supplied continuous functions.
`inertia_counts`, `validate`'s oracle, counts the Dirichlet eigenvalues
below any lambda cell by cell, from the cells' self-similarity alone; the
dense matrix `build_dirichlet_laplacian` is kept for the tests.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError
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


def build_dirichlet_laplacian(vertices: VertexSet) -> np.ndarray:
    """The dense Dirichlet graph Laplacian on the interior rows: diagonal 4
    and -1 per edge, filled from the neighbour table."""
    if vertices.level < 1:
        raise DomainError("no interior vertices at level 0, Dirichlet matrix empty")
    n = vertices.n_interior
    x = np.repeat(np.arange(n), 4)
    y = vertices.neighbours.ravel()
    inside = y < n
    lap = np.zeros((n, n))
    lap[np.diag_indices(n)] = 4.0
    lap[x[inside], y[inside]] = -1.0
    return lap


def inertia_counts(m: int, lambdas) -> np.ndarray:
    """Per lambda, the number of eigenvalues of the level-m Dirichlet graph
    Laplacian below lambda, by Sylvester's law of inertia; no vertex set and
    no matrix is built.

    L - lambda I is a sum over the m-cells of a I + b (J - I) on each cell's
    corners, a = 2 - lambda/2 and b = -1.  The three midpoints of a j-cell,
    j = m-1, ..., 0, lie in it alone: their block 2a I + b (J - I) has the
    pivots p1 = 2a + 2b once and p2 = 2a - b twice, whose negatives add to
    the count, and eliminating them leaves a I + b (J - I) on the j-cell's
    corners with eigenvalues a - 4b^2/p1 once and a - b^2/p2 twice.  The
    last corner block, on the boundary, is dropped.  A pivot below eps in
    magnitude is taken as -eps, as in Sturm bisection, so at a pole lambda
    itself is counted.
    """
    check_level(m)
    if m < 1:
        raise DomainError("no interior vertices at level 0, no eigenvalues")
    a = 2.0 - np.asarray(lambdas, dtype=float) / 2.0
    b = np.full_like(a, -1.0)
    counts = np.zeros(a.shape, dtype=np.int64)
    eps = np.finfo(float).eps
    for j in range(m - 1, -1, -1):
        p1, p2 = (np.where(np.abs(p) < eps, -eps, p) for p in (2 * a + 2 * b, 2 * a - b))
        counts += 3**j * ((p1 < 0) + 2 * (p2 < 0))
        s1, s2 = a - 4 * b**2 / p1, a - b**2 / p2
        a, b = (s1 + 2 * s2) / 3, (s1 - s2) / 3
    return counts


def vertices_to_csv(vertices: VertexSet, path) -> None:
    """Debug dump: vertex_id,x,y,weight,is_boundary."""
    boundary = set(vertices.boundary)
    rows = [
        (v, float(x), float(y), float(w), int(v in boundary))
        for v, ((x, y), w) in enumerate(zip(vertices.coords, build_measure(vertices)))
    ]
    write_csv(path, ("vertex_id", "x", "y", "weight", "is_boundary"), rows)
