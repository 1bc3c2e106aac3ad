"""Sierpinski gasket geometry: cells, vertices, self-similar measure, graph Laplacians.

The gasket is the attractor of the three midpoint contractions of a triangle.
Level-m cells are indexed by words over {1,2,3} in lexicographic order, and
vertices are identified by exact integer barycentric triples over 2^m, so the
whole construction is deterministic and free of floating-point dedup issues.
The planar embedding (corner coordinates) is only used for plotting and for
evaluating user-supplied continuous functions.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError, StructuralError
from .serialize import write_csv

LETTERS = (1, 2, 3)
DEFAULT_LEVEL_CAP = 8

#: default corner embedding; nothing numeric depends on this choice
CORNER_COORDS = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))

Word = tuple[int, ...]


def cell_words(level: int) -> list[Word]:
    """All level-`level` cell words in canonical (lexicographic) order."""
    return list(itertools.product(LETTERS, repeat=level))


def word_index(word: Word) -> int:
    """Lexicographic rank of a word among words of its length."""
    rank = 0
    for letter in word:
        rank = rank * 3 + (letter - 1)
    return rank


@dataclass(frozen=True)
class CellAddress:
    """Address of an N-cell; the empty word addresses the whole gasket."""

    word: Word

    def __post_init__(self):
        if any(letter not in LETTERS for letter in self.word):
            raise DomainError(f"cell word letters must be in {LETTERS}: {self.word}")

    @property
    def level(self) -> int:
        return len(self.word)

    def ancestor(self, n: int) -> "CellAddress":
        if n > self.level:
            raise DomainError(f"no level-{n} ancestor of a level-{self.level} cell")
        return CellAddress(self.word[:n])


def _corner_triple(word: Word, corner: int, level: int) -> tuple[int, int, int]:
    # barycentric numerator of F_word(corner) over denominator 2^level
    num = [0, 0, 0]
    num[corner - 1] = 1
    k = 0
    for letter in reversed(word):
        num[letter - 1] += 1 << k
        k += 1
    scale = 1 << (level - len(word))
    return (num[0] * scale, num[1] * scale, num[2] * scale)


@dataclass
class VertexSet:
    """Level-m vertex complex with exact combinatorics.

    ``bary`` holds integer barycentric triples over 2^m (rows sum to 2^m)
    and ``cells[c]`` the three vertex ids of cell c (corner order 1,2,3).
    """

    level: int
    bary: np.ndarray
    coords: np.ndarray
    boundary: tuple[int, int, int]
    cells: np.ndarray
    interior: np.ndarray = field(repr=False)
    _triple_ids: dict = field(repr=False, default_factory=dict)
    _interior_pos: np.ndarray = field(repr=False, default=None)

    @property
    def n_vertices(self) -> int:
        return self.bary.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior.shape[0]

    def vertex_id(self, triple) -> int:
        return self._triple_ids[tuple(triple)]

    def cell_range(self, word: Word) -> tuple[int, int]:
        """Contiguous range of level-m cell indices under the N-cell `word`."""
        n = len(word)
        if n > self.level:
            raise DomainError("cell level exceeds vertex-set level")
        width = 3 ** (self.level - n)
        start = word_index(word) * width
        return start, start + width

    def cell_corner_ids(self, word: Word) -> tuple[int, int, int]:
        return tuple(
            self.vertex_id(_corner_triple(word, c, self.level)) for c in LETTERS
        )

    def closed_cell_vertex_ids(self, word: Word) -> np.ndarray:
        start, stop = self.cell_range(word)
        return np.unique(self.cells[start:stop].ravel())

    def cell_interior_positions(self, word: Word) -> np.ndarray:
        """Dirichlet rows of vertices strictly inside the closed cell `word`.

        The three cell corners are excluded: an eigenvector supported on the
        closed cell vanishes there, and excluding them makes the supports of
        vectors localized in adjacent cells exactly disjoint.
        """
        closed = self.closed_cell_vertex_ids(word)
        corners = set(self.cell_corner_ids(word))
        pos = self._interior_pos[[v for v in closed if v not in corners]]
        return np.sort(pos[pos >= 0])


def check_level(m: int, cap: int = DEFAULT_LEVEL_CAP) -> None:
    """Raise unless 0 <= m <= cap."""
    if m < 0:
        raise DomainError(f"level must be nonnegative, got {m}")
    if m > cap:
        raise ResourceLimitError(f"level {m} exceeds cap {cap}")


def build_vertices(m: int, cap: int = DEFAULT_LEVEL_CAP) -> VertexSet:
    """The level-m vertex set; ids are deterministic across runs.

    One set per level is built per process and shared, so its arrays are
    read-only.  A level above `cap` raises before anything is built.
    """
    check_level(m, cap)
    return _vertices(m)


@functools.cache
def _vertices(m: int) -> VertexSet:
    words = cell_words(m)
    corner_triples = [
        tuple(_corner_triple(w, c, m) for c in LETTERS) for w in words
    ]
    triples = sorted({t for cell in corner_triples for t in cell})
    ids = {t: i for i, t in enumerate(triples)}

    n = len(triples)
    bary = np.array(triples, dtype=np.int64)
    a = np.array(CORNER_COORDS)
    coords = (bary.astype(float) @ a) / float(1 << m)
    cells = np.array(
        [[ids[t] for t in cell] for cell in corner_triples], dtype=np.int64
    )
    boundary = tuple(
        ids[tuple((1 << m) * int(t == i) for t in range(3))] for i in range(3)
    )
    interior = np.array([v for v in range(n) if v not in boundary], dtype=np.int64)
    interior_pos = np.full(n, -1, dtype=np.int64)
    interior_pos[interior] = np.arange(interior.size)

    vs = VertexSet(
        level=m,
        bary=bary,
        coords=coords,
        boundary=boundary,
        cells=cells,
        interior=interior,
        _triple_ids=ids,
        _interior_pos=interior_pos,
    )
    expected = (3 ** (m + 1) + 3) // 2
    if vs.n_vertices != expected:
        raise ResourceLimitError(
            f"vertex count {vs.n_vertices} != {expected} at level {m}"
        )
    for array in (bary, coords, cells, interior, interior_pos):
        array.flags.writeable = False
    return vs


@dataclass
class SelfSimilarMeasure:
    """The balanced self-similar probability measure sampled on vertices.

    Each level-m cell contributes 3^-(m+1) to each of its three corners, so a
    vertex in k cells carries weight k * 3^-(m+1) and the weights sum to one.
    """

    level: int
    weights: np.ndarray
    vertices: VertexSet

    def cell_mass(self, word: Word) -> float:
        start, stop = self.vertices.cell_range(word)
        return (stop - start) * 3.0 ** (-self.level)


def _cell_sums(vertices: VertexSet, cell_values: np.ndarray | None = None) -> np.ndarray:
    """Per vertex, the sum of `cell_values` over the cells containing it, in
    cell order; without values, the number of those cells."""
    weights = None if cell_values is None else np.repeat(cell_values, 3)
    return np.bincount(
        vertices.cells.ravel(), weights=weights, minlength=vertices.n_vertices
    )


def build_measure(vertices: VertexSet) -> SelfSimilarMeasure:
    weights = _cell_sums(vertices) * 3.0 ** (-(vertices.level + 1))
    return SelfSimilarMeasure(level=vertices.level, weights=weights, vertices=vertices)


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

    def value_on_word(self, word: Word) -> float:
        if len(word) < self.level:
            raise DomainError("cell coarser than the function's level")
        return float(self.values[word_index(word[: self.level])])

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
    weights = build_measure(vertices).weights
    return weights * np.asarray(f(vertices.coords[:, 0], vertices.coords[:, 1]))


def vertex_values(f, vertices: VertexSet) -> np.ndarray:
    """Pointwise samples of f at vertices (cell-averaged for simple f)."""
    if isinstance(f, SimpleFunction):
        return _cell_sums(vertices, f.refined(vertices.level)) / _cell_sums(vertices)
    return np.asarray(f(vertices.coords[:, 0], vertices.coords[:, 1]), dtype=float)


@dataclass
class GraphLaplacian:
    """Dirichlet graph Laplacian on interior vertices (diagonal 4, -1 per edge)."""

    level: int
    matrix: np.ndarray
    vertices: VertexSet


def _interior_edges(vertices: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges (x, y) between interior rows, each side of every cell
    in both directions; the one edge list both Laplacian builders read."""
    if vertices.level < 1:
        raise DomainError("no interior vertices at level 0, Dirichlet matrix empty")
    corners = vertices._interior_pos[vertices.cells]
    sides = corners[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    sides = np.concatenate([sides, sides[:, ::-1]])
    sides = sides[(sides >= 0).all(axis=1)]
    return sides[:, 0], sides[:, 1]


def _rotated(bary: np.ndarray) -> np.ndarray:
    """The gasket's rotation on barycentric triples: (a, b, c) -> (b, c, a)."""
    return bary[:, [1, 2, 0]]


def build_dirichlet_laplacian(vertices: VertexSet) -> GraphLaplacian:
    """Diagonal 4 and -1 per edge, filled from the cells' edges on interior rows."""
    x, y = _interior_edges(vertices)
    n = vertices.n_interior
    lap = np.zeros((n, n))
    lap[np.diag_indices(n)] = 4.0
    lap[x, y] = -1.0
    return GraphLaplacian(level=vertices.level, matrix=lap, vertices=vertices)


#: e^(2 pi i d / 3) for d = 0, 1, 2; the last two are exact conjugates
_OMEGA = np.array([1.0, complex(-0.5, math.sqrt(3.0) / 2.0),
                   complex(-0.5, -math.sqrt(3.0) / 2.0)])


def rotation_sectors(vertices: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """The Dirichlet Laplacian block-diagonalized by the rotation rho.

    Each interior row x is rho^e(x) applied to the first row r of its orbit
    o(x).  On the vectors sum_e w^(k e) / sqrt(3) at rho^e r of each orbit
    (w = e^(2 pi i / 3)) the Laplacian is H_k = 4I - A_k, with A_0 summing
    1/3 and A_1 summing w^(e(y)-e(x)) / 3 over the edges (x, y); H_2 is the
    conjugate of H_1.  Returns the real symmetric H_0 and the Hermitian H_1,
    each n/3 square.  rho permuting the interior rows with rho^3 = id and no
    fixed row, and the edge list being duplicate-free, symmetric and mapped
    onto itself by rho, are checked exactly; a failure raises
    `StructuralError`.
    """
    m = vertices.level
    x, y = _interior_edges(vertices)
    n = vertices.n_interior
    rows = np.arange(n)
    # a triple that is no vertex maps to the appended -1, as boundary ones do
    ids = [vertices._triple_ids.get(tuple(t), vertices.n_vertices)
           for t in _rotated(vertices.bary[vertices.interior]).tolist()]
    rho = np.append(vertices._interior_pos, -1)[ids]
    if (rho < 0).any() or np.unique(rho).size != n:
        raise StructuralError(
            f"level {m}: the rotation does not permute the interior rows"
        )
    rho2 = rho[rho]
    if not np.array_equal(rho[rho2], rows):
        raise StructuralError(f"level {m}: the rotation cubed is not the identity")
    first = np.flatnonzero((rows < rho) & (rows < rho2))
    if 3 * first.size != n:
        raise StructuralError(f"level {m}: a rotation orbit does not have 3 rows")
    orbit = np.empty(n, dtype=np.int64)
    exponent = np.empty(n, dtype=np.int64)
    for e, members in enumerate((first, rho[first], rho2[first])):
        orbit[members] = np.arange(first.size)
        exponent[members] = e

    edges = np.unique(x * n + y)
    if edges.size != x.size:
        raise StructuralError(f"level {m}: the interior edge list has duplicates")
    if not (np.array_equal(np.sort(y * n + x), edges)
            and np.array_equal(np.sort(rho[x] * n + rho[y]), edges)):
        raise StructuralError(
            f"level {m}: the interior edge set is not symmetric and rotation invariant"
        )

    k = first.size
    h0 = np.zeros((k, k))
    h1 = np.zeros((k, k), dtype=complex)
    np.add.at(h0, (orbit[x], orbit[y]), -1.0 / 3.0)
    np.add.at(
        h1, (orbit[x], orbit[y]), -_OMEGA[(exponent[y] - exponent[x]) % 3] / 3.0
    )
    h0[np.diag_indices(k)] += 4.0
    h1[np.diag_indices(k)] += 4.0
    return h0, h1


def dirichlet_spectrum(vertices: VertexSet) -> np.ndarray:
    """Ascending eigenvalues of the Dirichlet graph Laplacian from its
    rotation sectors: those of H_0, and those of H_1 twice (H_2 = conj H_1).
    No n x n matrix is formed."""
    h0, h1 = rotation_sectors(vertices)
    h1_values = np.linalg.eigvalsh(h1)
    return np.sort(np.concatenate([np.linalg.eigvalsh(h0), h1_values, h1_values]))


def vertices_to_csv(vertices: VertexSet, measure: SelfSimilarMeasure, path) -> None:
    """Debug dump: vertex_id,x,y,weight,is_boundary."""
    rows = []
    boundary = set(vertices.boundary)
    for v in range(vertices.n_vertices):
        rows.append(
            (
                v,
                float(vertices.coords[v, 0]),
                float(vertices.coords[v, 1]),
                float(measure.weights[v]),
                int(v in boundary),
            )
        )
    write_csv(path, ("vertex_id", "x", "y", "weight", "is_boundary"), rows)
