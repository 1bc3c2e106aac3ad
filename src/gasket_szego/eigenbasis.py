"""Level eigenbases by spectral decimation, the dense oracle, and localized splits.

Every graph eigenvector comes from one depth-first walk down the decimation
tree, with no eigensolve: each eigenspace is born at its birth level and
extends one level at a time by the local eigenfunction-extension formula,
through one preimage of its graph value per branch, each step checked
against the closed-form norm of the extension.  A newborn 5- or
6-eigenspace is its remainder at cell level 1, built once per process with
no iteration (the 6-series from the Green's function of its Gram matrix,
which decimation gives as a Schur complement, `_solve`; the 5-series as
three translates of the one born a level earlier) beside the
eigenfunctions localized in cells: what each earlier birth's
eigenspace adds to a cell, taken from its own remainder at cell level 1 and
placed by translation in every cell of its size; the 2-series is born as
one level-1 vector.  Every localized piece is a cell-0 template translated,
and the contractions have no rotation, so the walk extends and certifies
each template once, on its own level, and shares it with every eigenspace
of its series and branches: the walk carries an eigenspace as its
remainder at cell level 1 and reads its templates, and writes the whole
n x d block only for a caller that asks for vectors.  Each eigenspace
arrives labelled with its entry of the decimation prediction, orthonormal
in the measure-weighted inner product, its remainder and templates each
passing the stencil check of their level's eigen-equation over the vertex
set's neighbour table (a template's corner sums too) and a Gram check, and
the cross Gram of remainder against templates; a localized split passes
the stencil check whole.  Every cell level k reads the same walk: an
eigenspace's remainder at k is its remainder at cell level 1 beside its
templates of cells coarser than k, the leading columns of its whole block,
so no whole block is formed for k < m.  `walk_remainder(m, k)` writes
every level-m eigenspace's remainder into its column range of one
read-only matrix in record-value order, and `level_remainder(m, k)` caches
it; at k = m that is the n x n basis, the only one formed.
`walk_eigenspaces` hands each whole eigenspace to a visitor and drops it,
with a cell level k beside its remainder there, the very block
`walk_remainder` writes; and `eigenspace(m, key)` follows one lineage.  `level_basis(m)` is the
cached level workspace: the eigenspaces labelled by their records, with no
vectors and no vertex set, so a sweep whose symbol depends only on lam builds
none.  A bundle or workspace looks its vertex set up by its level from
`build_vertices`, which alone holds it.
The dense eigensolve `solve_graph_spectrum` and its labelling
`group_eigenspaces` stay as the independent oracle.  Remainders at a cell
level rest on the junction functionals at the level's interior vertices,
which vanish exactly on the sums of vectors localized in cells: the row
space of the functionals applied to an eigenspace is its non-localized
remainder (`eigenspace_remainder`, the independent check of the carried
remainders, newborns among them).  A localized split reads the walk's
column layout (`_cell_runs`): the remainder is the leading columns, and
cell 0's localized vectors are the first columns of each run of cell
pieces, which every other N-cell, a translate of cell 0, holds unchanged in
its rows.  The rank of the functionals is checked against the closed-form
counts, which is the decisive structural test, and a split reports how far
its singular values sit from the rank tolerance.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import decimation
from .decimation import (
    CONTRACTING,
    EXPANDING,
    EigenvalueRecord,
    GraphEigenvalue,
    localization_counts,
)
from .errors import (
    DomainError,
    MismatchError,
    NumericError,
    StructuralError,
)
from .gasket import VertexSet, build_vertices, check_level
from .serialize import fmt

GROUPING_RTOL = 1e-6
RESIDUAL_RTOL = 1e-9
KERNEL_RTOL = 1e-7
SNAP_TOL = 1e-10
ORTHO_TOL = 1e-10


def solve_graph_spectrum(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and the matrix of their orthonormal eigenvectors
    of the dense graph Laplacian `mat`."""
    if not np.array_equal(mat, mat.T):
        raise StructuralError("graph Laplacian matrix is not symmetric")
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"dense eigensolver failed: {exc}") from exc
    scale = np.max(np.abs(mat))
    residual = np.max(np.abs(mat @ vectors - vectors * values))
    if residual > RESIDUAL_RTOL * scale:
        raise NumericError(
            f"eigensolve residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * ||L|| = {RESIDUAL_RTOL * scale:.3e}"
        )
    return values, vectors


@dataclass
class EigenspaceBundle:
    """An eigenspace at graph level m, orthonormal in the weighted inner
    product; the bundles of a level basis leave `vectors` None."""

    level: int
    record: EigenvalueRecord
    graph_value: float
    vectors: np.ndarray | None

    @property
    def vertices(self) -> VertexSet:
        return build_vertices(self.level)

    def require_vectors(self) -> np.ndarray:
        """The vectors, which every reader of them takes from here: a bundle
        of the level basis has none and raises `DomainError`."""
        if self.vectors is None:
            raise DomainError(
                f"eigenspace {self.record.key} carries no vectors; build them "
                f"with eigenbasis.eigenspace"
            )
        return self.vectors

    @property
    def dim(self) -> int:
        if self.vectors is None:
            return self.record.multiplicity
        return self.vectors.shape[1]


def interior_weight(m: int) -> float:
    """Measure weight shared by all interior vertices at level m."""
    return 2.0 * 3.0 ** (-(m + 1))


def group_eigenspaces(
    values: np.ndarray,
    vectors: np.ndarray,
    m: int,
) -> tuple[np.ndarray, list[EigenspaceBundle]]:
    """Label ascending eigenpairs with the decimation prediction of level m.

    The truncated graph spectrum fixes every eigenvalue and multiplicity, so
    the sorted spectra are walked in lockstep; an eigenvalue farther than the
    relative grouping tolerance from its prediction is reported as an orphan.
    Returns the weighted-orthonormal eigenvectors permuted into record-value
    order as one read-only matrix, and one bundle per eigenspace whose
    vectors are a column view of it.
    """
    predicted = decimation.truncated_graph_spectrum(m)
    total = sum(g.multiplicity for g in predicted)
    if total != len(values):
        raise MismatchError(
            f"decimation predicts dimension {total} at level {m} but the "
            f"solve returned {len(values)} eigenpairs"
        )
    graph_values = [g.graph_value for g in predicted]
    for a, b in zip(graph_values, graph_values[1:]):
        if b - a <= 3.0 * GROUPING_RTOL * max(1.0, abs(b)):
            raise StructuralError(
                f"predicted graph values {a} and {b} too close to group at "
                f"relative tolerance {GROUPING_RTOL}"
            )
    blocks = []
    cursor = 0
    for g in predicted:
        cols = np.arange(cursor, cursor + g.multiplicity)
        cursor += g.multiplicity
        off = np.abs(values[cols] - g.graph_value) > GROUPING_RTOL * max(
            1.0, abs(g.graph_value)
        )
        if off.any():
            raise MismatchError(
                f"orphan eigenvalue {float(values[cols][off][0])!r}: nearest "
                f"record {g.record.key} predicts graph value {g.graph_value!r}"
            )
        blocks.append((g, cols))
    blocks.sort(key=lambda block: (block[0].record.value, block[0].record.key))
    matrix = vectors[:, np.concatenate([cols for _, cols in blocks])]
    matrix *= 1.0 / np.sqrt(interior_weight(m))
    matrix.flags.writeable = False
    starts = np.cumsum([0] + [cols.size for _, cols in blocks])
    bundles = [
        _bundle(m, g, matrix[:, a:b])
        for (g, _), a, b in zip(blocks, starts, starts[1:])
    ]
    return matrix, bundles


@dataclass
class LocalizedBasis:
    """Per-cell localized vectors, a block per N-cell in cell order, plus an
    orthonormal non-localized remainder; every block is cell 0's, translated.

    The kernel margins are those of the junction SVD: the largest singular
    value taken as zero over the kernel tolerance, and the tolerance over
    the smallest singular value kept; both are below 1, and 0 when the SVD
    drops (or keeps) no singular value.  A dropped value can be exactly 0
    too: the translated localized vectors of a newborn eigenspace, and
    their extensions, vanish exactly on the junction vertices.
    """

    bundle: EigenspaceBundle
    per_cell: list[np.ndarray]
    nonlocalized: np.ndarray
    dropped_over_tol: float = 0.0
    tol_over_kept: float = 0.0

    @property
    def localized_total(self) -> int:
        return sum(v.shape[1] for v in self.per_cell)


def _ranked_svd(mat: np.ndarray, full: bool = False):
    """SVD of `mat` with the kernel rank rule.

    Returns the left and right singular vectors, the number of singular
    values above `KERNEL_RTOL * max(1, largest)`, and the margins of that
    decision: the largest value dropped over the tolerance and the tolerance
    over the smallest value kept, each 0 when there is none.  With `full`,
    `vh` is square, so that its rows past the rank span the kernel of `mat`.
    """
    left, svals, vh = np.linalg.svd(mat, full_matrices=full)
    tol = KERNEL_RTOL * max(1.0, float(svals[0]))
    rank = int(np.sum(svals > tol))
    dropped = float(svals[rank]) / tol if rank < svals.size else 0.0
    kept = tol / float(svals[rank - 1]) if rank else 0.0
    return left, vh, rank, (dropped, kept)


def _junction_cut(
    values: np.ndarray, rank: int, key: str, k: int
) -> tuple[np.ndarray, tuple[float, float]]:
    """The top `rank` right singular vectors of the junction values of an
    orthonormal eigenspace basis, which span its remainder, and the kernel
    margins.  Their rank must be the closed-form count."""
    _, vh, found, margins = _ranked_svd(values)
    if found != rank:
        raise MismatchError(
            f"eigenspace {key}: the junction functionals of level {k} "
            f"have rank {found}, the closed form predicts {rank}"
        )
    return vh[:rank], margins


def localized_split(bundle: EigenspaceBundle, n_level: int) -> LocalizedBasis:
    """Split an eigenspace into per-N-cell localized vectors plus a remainder.

    The split is read off the column layout the walk writes (`_cell_runs`):
    the remainder at cell level N is the leading alpha_N columns, and for
    each N' = N, ..., birth - 2 N-cell 0's localized vectors are the first
    (alpha_(N'+1) - alpha_N') / 3^N columns from alpha_N', in cell 0's rows,
    which every N-cell's rows, cell 0's translated (`_translates`), hold in
    a zero block.  The junction functionals of level N vanish exactly on the
    sums of vectors localized in N-cells (`_junction_functionals`), so their
    rank, pinned to alpha_N (`MismatchError`), bounds the localized count by
    d - alpha_N and gives the kernel margins; the stencil and Gram checks of
    the whole split prove its 3^N m_(j,N) translated columns orthonormal
    eigenvectors localized in cells, which certifies the closed-form counts.
    A bundle in another layout, as from `group_eigenspaces`, fails the
    stencil check with a numeric error naming the eigenspace.
    """
    rec = bundle.record
    if rec.series not in (5, 6):
        raise DomainError("only 5- and 6-series eigenspaces localize")
    # refuses N outside 1 <= N < birth
    counts = localization_counts(rec.series, rec.birth, n_level)
    u = bundle.require_vectors()
    vertices = bundle.vertices
    n, d = u.shape
    if d != counts.d_j:
        raise StructuralError(
            f"bundle dimension {d} != predicted multiplicity {counts.d_j}"
        )

    rank = counts.alpha_N
    _, margins = _junction_cut(
        _junction_matrix(vertices, n_level) @ u, rank, rec.key, n_level
    )
    rows = _translates(vertices, n_level)
    # N-cell 0 holds the first 3^(N' - N) N'-cells of each run
    cols = [
        c
        for _, start, stop in _cell_runs(rec, d, n_level, bundle.level)
        for c in range(start, start + (stop - start) // 3**n_level)
    ]
    if len(cols) != counts.m_j_N:
        raise StructuralError(
            f"cell 0: the layout holds {len(cols)} localized vectors, closed "
            f"form predicts {counts.m_j_N} (series {rec.series}, birth "
            f"{rec.birth}, N={n_level})"
        )
    template = u[np.ix_(rows[0], cols)]
    per_cell = [np.zeros((n, counts.m_j_N)) for _ in range(3**n_level)]
    for cell, vecs in zip(rows, per_cell):
        vecs[cell] = template

    nonlocalized = u[:, :rank]
    split = np.hstack([*per_cell, nonlocalized])
    _check_stencil(bundle.level, split, [(bundle, 0, d)])
    _check_gram(split, 1.0 / interior_weight(bundle.level), rec.key)
    return LocalizedBasis(
        bundle=bundle,
        per_cell=per_cell,
        nonlocalized=nonlocalized,
        dropped_over_tol=margins[0],
        tol_over_kept=margins[1],
    )


@dataclass
class Remainder:
    """The non-localized remainder of a run of whole eigenspaces.

    Eigenspace i, of record `records[i]`, contributes `dims[i]`
    weighted-orthonormal columns, in the order of the run, spanning the
    orthogonal complement of its vectors localized in cells of level k; each
    of the 3^k cells holds `per_cell[i]` of those localized vectors.
    """

    columns: np.ndarray
    dims: list[int]
    per_cell: list[int]
    records: list[EigenvalueRecord]

    @functools.cached_property
    def _layout(self) -> tuple[dict[str, int], np.ndarray]:
        """The index of each record key, and each eigenspace's first column."""
        index = {rec.key: i for i, rec in enumerate(self.records)}
        return index, np.cumsum([0] + self.dims)

    def column_index(self, records: list[EigenvalueRecord]):
        """The columns of the eigenspaces `records`, in their order: a slice
        for a run of consecutive eigenspaces, else an index array."""
        index, starts = self._layout
        picks = [index[rec.key] for rec in records]
        if picks == list(range(picks[0], picks[0] + len(picks))):
            return slice(starts[picks[0]], starts[picks[-1] + 1])
        return np.concatenate([np.arange(starts[i], starts[i + 1]) for i in picks])

    def select(self, records: list[EigenvalueRecord]) -> "Remainder":
        """The remainder of the eigenspaces `records`, in their order; a run
        of consecutive eigenspaces is a column view, not a copy."""
        index, cols = self._layout[0], self.column_index(records)
        picks = [index[rec.key] for rec in records]
        return Remainder(
            columns=(
                self.columns[:, cols]
                if isinstance(cols, slice)
                else np.take(self.columns, cols, axis=1)
            ),
            dims=[self.dims[i] for i in picks],
            per_cell=[self.per_cell[i] for i in picks],
            records=list(records),
        )


def _junction_functionals(vertices: VertexSet, k: int) -> np.ndarray:
    """Interior rows summed by each junction functional at cell level k.

    For every interior level-k vertex x there are two: the value at x, and
    the sum of the values at x's two neighbours in the first level-m cell
    containing x, which lies in one of the two k-cells meeting at x.  A
    vector of an eigenspace is a sum of vectors localized in k-cells exactly
    when every functional vanishes on it (the eigen-equation at x then makes
    the other k-cell's sum vanish too).  Rows equal to n_interior stand for
    boundary vertices, where every vector vanishes.
    """
    rows = np.flatnonzero(vertices.cell_rows(k) < 0)
    ids = vertices.interior[rows]
    values = np.column_stack([rows, np.full(ids.size, vertices.n_interior)])
    return np.vstack([values, _cell_partners(vertices, ids)])


def _cell_partners(vertices: VertexSet, ids: np.ndarray) -> np.ndarray:
    """The rows of the two neighbours of each vertex of `ids` in the first
    level-m cell containing it, n_interior for a boundary vertex."""
    first = vertices.cells[vertices.first_cell[ids]]
    return vertices.rows[first[first != ids[:, None]].reshape(-1, 2)]


def _translates(vertices: VertexSet, k: int) -> np.ndarray:
    """The interior rows of every k-cell, a row per cell in cell order, each
    ascending: every k-cell is cell 0 plus one barycentric offset, and
    vertex keys are linear in the triple, so its rows are cell 0's
    translated, in the same order."""
    cells = vertices.cell_rows(k)
    inside = np.flatnonzero(cells >= 0)
    return inside[np.argsort(cells[inside], kind="stable")].reshape(3**k, -1)


def _junction_matrix(vertices: VertexSet, k: int) -> np.ndarray:
    """J, (2 n_k) x n: the junction functionals of cell level k as rows over
    the interior, so that J u holds their values on each column u."""
    rows = _junction_functionals(vertices, k)
    j = np.zeros((rows.shape[0], vertices.n_interior + 1))
    for col in rows.T:
        j[np.arange(rows.shape[0]), col] += 1.0
    return j[:, :-1]


def _remainder_rank(record: EigenvalueRecord, d: int, k: int) -> int:
    """Remainder dimension of a d-dimensional eigenspace at cell level k."""
    if k == 0:
        # the one 0-cell holds every vector: they all vanish on the boundary
        return 0
    if record.series == 2 or record.birth <= k:
        return d
    return localization_counts(record.series, record.birth, k).alpha_N


def eigenspace_remainder(bundle: EigenspaceBundle, k: int) -> Remainder:
    """The remainder at cell level k of one whole eigenspace, read off its
    vectors.

    It is the row space of the junction functionals applied to the
    eigenspace: the top right singular vectors of a (2 n_k) x d matrix,
    whose rank is pinned to the closed-form count.  An eigenspace in which
    nothing localizes is its own remainder.
    """
    u, rec = bundle.require_vectors(), bundle.record
    if not 0 <= k <= bundle.level:
        raise DomainError(f"need 0 <= cell level <= {bundle.level}, got {k}")
    d = u.shape[1]
    r = _remainder_rank(rec, d, k)
    if r == d:
        columns = u
    elif r == 0:
        columns = u[:, :0]
    else:
        values = _junction_matrix(bundle.vertices, k) @ u
        columns = u @ _junction_cut(values, r, rec.key, k)[0].T
    return Remainder(
        columns=columns, dims=[r], per_cell=[(d - r) // 3 ** k], records=[rec]
    )


@dataclass
class LevelBasis:
    """The workspace of one graph level: the bundles of every eigenspace,
    labelled with their decimation records and carrying no vectors."""

    level: int
    bundles: list[EigenspaceBundle]

    @property
    def vertices(self) -> VertexSet:
        return build_vertices(self.level)

    def family_bundle(self, series: int, birth: int) -> EigenspaceBundle:
        """The smallest eigenvalue of the given series and birth."""
        candidates = [
            b
            for b in self.bundles
            if b.record.series == series and b.record.birth == birth
        ]
        if not candidates:
            raise DomainError(
                f"no series-{series} eigenspace of birth {birth} at level "
                f"{self.level}"
            )
        return min(candidates, key=lambda b: b.record.value)


# the column-by-column passes keep each temporary under this size, so that
# building a level adds little more than its own matrix to the process
_PASS_BYTES = 1 << 18
# passes that multiply matrices are kept this wide, for efficient products
_GEMM_WIDTH = 32


def _passes(rows: int, cols: int, least: int = 8) -> list[slice]:
    """Column slices, at least `least` wide, whose rows x width float
    temporaries stay small."""
    step = max(least, _PASS_BYTES // (8 * max(rows, 1)))
    return [slice(c0, min(c0 + step, cols)) for c0 in range(0, cols, step)]


@dataclass
class _Refinement:
    """Where level-(m-1) values go at level m, in interior rows.

    A level-(m-1) vertex with triple t is the level-m vertex 2t; the midpoint
    of edge xy is t_x + t_y.  Midpoint k of a cell lies opposite its corner
    k.  Parent rows equal to `n_prev` and level-m rows equal to `n` stand for
    boundary vertices, where Dirichlet eigenvectors vanish.
    """

    level: int
    n_prev: int
    n: int
    old: np.ndarray  # (n_prev,) level-m rows of the level-(m-1) interior
    mid: np.ndarray  # (3^m,) level-m rows of the midpoints, cell-major
    ends: tuple[np.ndarray, np.ndarray]  # parent rows of each midpoint's edge
    opp: np.ndarray  # parent row of the corner opposite each midpoint


@functools.lru_cache(maxsize=16)
def _refinement(m: int) -> _Refinement:
    """The refinement from level m-1 to level m, cached: every lineage
    through level m reads it."""
    parent, vertices = build_vertices(m - 1), build_vertices(m)
    prow, row = parent.rows, vertices.rows
    n = vertices.n_interior

    def level_m_rows(triples: np.ndarray) -> np.ndarray:
        return row[vertices.vertex_ids(triples.reshape(-1, 3))]

    cells = parent.cells
    k1, k2 = cells[:, [1, 2, 0]], cells[:, [2, 0, 1]]
    return _Refinement(
        level=m,
        n_prev=parent.n_interior,
        n=n,
        old=level_m_rows(2 * parent.bary[parent.interior]),
        mid=level_m_rows(parent.bary[k1] + parent.bary[k2]),
        ends=(prow[k1].ravel(), prow[k2].ravel()),
        opp=prow[cells].ravel(),
    )


def _padded(values: np.ndarray) -> np.ndarray:
    """`values` with a zero row appended for the boundary row index."""
    pad = np.zeros((values.shape[0] + 1, values.shape[1]))
    pad[:-1] = values
    return pad


def _extend(ref: _Refinement, values: np.ndarray, lam: float, out: np.ndarray) -> None:
    """Write into `out` the level-m eigenvectors at `lam` that agree with
    `values` on the level-(m-1) vertices.

    A midpoint z of edge xy opposite w takes
    u(z) = ((4 - lam)(u(x) + u(y)) + 2 u(w)) / ((2 - lam)(5 - lam)).
    """
    den = (2.0 - lam) * (5.0 - lam)
    out[ref.old] = values
    for cols in _passes(ref.mid.size, values.shape[1]):
        pad = _padded(values[:, cols])
        z = pad[ref.ends[0]]
        z += pad[ref.ends[1]]
        z *= 4.0 - lam
        z += 2.0 * pad[ref.opp]
        z /= den
        out[ref.mid, cols] = z


def _check_gram(block: np.ndarray, scale: float, key: str) -> None:
    """The plain Gram matrix of `block` must be `scale` times the identity."""
    err = 0.0
    for cols in _passes(block.shape[1], block.shape[1], _GEMM_WIDTH):
        # the rows of the upper triangle, diagonal block first
        rows = block[:, cols].T @ block[:, cols.start :]
        rows *= 1.0 / scale
        rows[np.arange(rows.shape[0]), np.arange(rows.shape[0])] -= 1.0
        err = max(err, float(np.max(np.abs(rows))))
    if not err <= ORTHO_TOL:
        raise NumericError(
            f"eigenspace {key}: Gram matrix deviates from a multiple of the "
            f"identity by {err:.3e}, above {ORTHO_TOL:.0e}"
        )


def _extension_norm(lam: float) -> float:
    """c(lam), the factor by which extension at `lam` multiplies the squared
    norm of every Dirichlet eigenvector at lam' = lam (5 - lam) one level
    down, and so, by polarization, its Gram matrix (the extension formula of
    Fukushima and Shima).

    Per cell, the squared midpoint values of `_extend` are a quadratic form
    in the corner values; every interior vertex lies in two cells, and the
    sum of u(a) u(b) over the edges is (4 - lam') ||u||^2 / 2, so
    c = 1 + [2 (2 t^2 + 4) + (t^2 + 4 t)(4 - lam')] / D^2 with t = 4 - lam
    and D = (2 - lam)(5 - lam).  Both the bracket and D^2 vanish at lam = 5,
    next to which the expanding branch of a small lam' lies, so the common
    factor is cancelled: the bracket is (lam - 5)(lam^3 - 12 lam^2 + 40 lam - 40).
    """
    return 1.0 + (lam**3 - 12.0 * lam**2 + 40.0 * lam - 40.0) / (
        (lam - 2.0) ** 2 * (lam - 5.0)
    )


def _extended(
    ref: _Refinement, values: np.ndarray, lam: float, key: str, out: np.ndarray
) -> None:
    """One eigenspace's step from level m-1 to level m, into `out`: the
    extension of `values` (weighted-orthonormal at level m-1) at `lam`,
    whose plain Gram matrix must be a multiple of the identity, its mean
    diagonal c(lam) / w_(m-1) to ORTHO_TOL relative (`_extension_norm`),
    scaled to weighted-orthonormal columns."""
    _extend(ref, values, lam, out)
    scale = float(np.mean(np.einsum("ij,ij->j", out, out)))
    expected = _extension_norm(lam) / interior_weight(ref.level - 1)
    if not abs(scale - expected) <= ORTHO_TOL * expected:
        raise NumericError(
            f"level {ref.level}, eigenspace {key}: mean squared norm {scale:.6e} "
            f"of the extension misses the closed form c(lam) / w = "
            f"{expected:.6e} by more than {ORTHO_TOL:.0e} relative"
        )
    _check_gram(out, scale, key)
    out *= 1.0 / np.sqrt(scale * interior_weight(ref.level))


def _stencil_residual(m: int, vectors: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per column, max |4u - sum of the four neighbours - g u| at level m."""
    neighbours = build_vertices(m).neighbours
    worst = np.empty(vectors.shape[1])
    for cols in _passes(neighbours.shape[0] + 1, vectors.shape[1]):
        pad = _padded(vectors[:, cols])
        r = pad[:-1] * (4.0 - g[cols])
        for k in range(4):
            r -= pad[neighbours[:, k]]
        worst[cols] = np.max(np.abs(r), axis=0)
    return worst


def _check_stencil(m: int, vectors: np.ndarray, blocks: list) -> None:
    """Every column of `vectors[:, start:stop]`, for each (g, start, stop) in
    `blocks`, must solve the level-m eigen-equation at g's graph value; g is
    a prediction entry or a bundle, which both carry `graph_value` and
    `record`."""
    g_cols = np.concatenate(
        [np.full(stop - start, g.graph_value) for g, start, stop in blocks]
    )
    # residual of the unit-norm columns, the scale of RESIDUAL_RTOL
    residual = _stencil_residual(m, vectors, g_cols) * np.sqrt(interior_weight(m))
    worst = int(np.argmax(residual))
    if not residual[worst] <= RESIDUAL_RTOL * 4.0:
        key = next(g.record.key for g, start, stop in blocks if start <= worst < stop)
        raise NumericError(
            f"level {m}, eigenspace {key}: stencil residual "
            f"{residual[worst]:.3e} exceeds {RESIDUAL_RTOL:.0e} * 4"
        )


def _extension_adjoint(ref: _Refinement, values: np.ndarray, lam: float) -> np.ndarray:
    """E^T values, for E the extension at `lam` (see `_extend`) as an
    n x n_prev matrix: what level-m row functionals read from level m-1,
    the forward pass of `_solve`."""
    den = (2.0 - lam) * (5.0 - lam)
    out = np.zeros((ref.n_prev + 1, values.shape[1]))
    out[:-1] = values[ref.old]
    mid = values[ref.mid] / den
    for rows, coef in ((ref.ends[0], 4.0 - lam), (ref.ends[1], 4.0 - lam), (ref.opp, 2.0)):
        np.add.at(out, rows, coef * mid)
    return out[:-1]


def _solve(level: int, lam: float, rhs: np.ndarray) -> np.ndarray:
    """(L - lam I)^-1 rhs, L the level's Dirichlet Laplacian, for lam < 0,
    with no iteration: spectral decimation as a Schur complement.

    Each midpoint of a level-(level-1) cell lies in that cell alone, and
    the cell's block of L - lam I on its midpoints, (5 - lam) I - J, is
    inverted in closed form: 1 / (2 - lam) on the mean, 1 / (5 - lam) on
    the rest.  Eliminating the midpoints is the extension E at lam
    (`_extend`), and the Schur complement on the other vertices is

        E^T (L - lam I) E = (6 - lam) / ((2 - lam)(5 - lam)) (L' - lam (5 - lam) I),   (1)

    L' the Laplacian one level down (Fukushima and Shima), solved the same
    way at lam (5 - lam) < 0.  The forward pass is `_extension_adjoint`, the
    back pass `_extend`; at level 0 nothing is left.
    """
    if level == 0:
        return rhs
    ref = _refinement(level)
    coarse = _extension_adjoint(ref, rhs, lam) * ((2.0 - lam) * (5.0 - lam) / (6.0 - lam))
    out = np.empty_like(rhs)
    _extend(ref, _solve(level - 1, lam * (5.0 - lam), coarse), lam, out)
    mids = rhs[ref.mid].reshape(-1, 3, rhs.shape[1])
    mean = mids.mean(axis=1, keepdims=True)
    out[ref.mid] += ((mids - mean) / (5.0 - lam) + mean / (2.0 - lam)).reshape(ref.mid.size, -1)
    return out


def _newborn_six_remainder(
    ref: _Refinement, w: float, g: GraphEigenvalue, out: np.ndarray
) -> None:
    """The remainder at cell level 1 of the newborn 6-eigenspace, into `out`.

    Any values on the level-(m-1) interior extend at lam = 6, where
    u(z) = (u(w) - u(x) - u(y)) / 2, and the extensions E of the unit
    vectors span the eigenspace with the exact Gram matrix
    G = E^T E = (L' + 6 I) / 4, L' the level-(m-1) Dirichlet Laplacian.  The
    three junctions of the 1-cells are level-(m-1) vertices, where E z takes
    the values of z, and a vector localized in 1-cells vanishes on them; so
    the remainder, orthogonal to those, is spanned by Z = G^-1 V, V the unit
    vectors of the junctions, extended.  G^-1 = 4 (L' + 6 I)^-1 is `_solve`,
    and E Z is orthonormalized through the Cholesky factor of its Gram
    matrix Z^T G Z = V^T Z.
    """
    junctions = np.flatnonzero(build_vertices(ref.level - 1).cell_rows(1) < 0)
    if (g.multiplicity, out.shape[1]) != (ref.n_prev, junctions.size):
        raise MismatchError(
            f"eigenspace {g.record.key}: decimation predicts dimension "
            f"{g.multiplicity} and remainder width {out.shape[1]}, the "
            f"extensions give {ref.n_prev} and {junctions.size}"
        )
    unit = np.zeros((ref.n_prev, junctions.size))
    unit[junctions, np.arange(junctions.size)] = 1.0
    z = 4.0 * _solve(ref.level - 1, -6.0, unit)
    factor = np.linalg.cholesky(z[junctions])
    coeffs = np.linalg.solve(factor, z.T).T
    coeffs *= 1.0 / np.sqrt(w)
    _extend(ref, coeffs, 6.0, out)


# the junctions of the three 1-cells: (cell, corner, cell, corner), 1-cell i's
# corner k being 1-cell k's corner i
_JUNCTIONS = ((0, 1, 1, 0), (0, 2, 2, 0), (1, 2, 2, 1))


def _newborn_five_remainder(
    ref: _Refinement, w: float, g: GraphEigenvalue, out: np.ndarray
) -> None:
    """The remainder at cell level 1 of the newborn 5-eigenspace, into `out`.

    At level 1 it is the whole eigenspace: the pair of vectors on the
    triangle of midpoints that sum to zero.  Past level 1 a vector of the
    eigenspace vanishes on the level-(m-1) vertices, so in each 1-cell it is
    a translate of a vector born at m - 1, and it is orthogonal to the
    vectors localized in 1-cells exactly when each translate is one of the
    remainder R born at m - 1 orthogonal to R's combination whose corner
    sums vanish (`_corner_basis`), the one that `_cell_block` places in
    cells.  So the remainder is the span of the translates of R's other
    two combinations into the three 1-cells, scaled by sqrt(3) to
    weighted-orthonormal columns, combined so that at each junction, where
    the vector vanishes, the eigen-equation holds: cell i's corner-k sum
    plus cell k's corner-i sum is 0 (`_JUNCTIONS`).  The kernel of those
    three conditions on six coefficients is pinned to the closed-form width
    by `_ranked_svd`, and its orthonormal vectors give orthonormal columns.
    """
    if ref.level == 1:
        pair = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.sqrt([2.0, 6.0])
        out[:] = pair / np.sqrt(w)
        return
    prev = _newborn_remainder(5, ref.level - 1)
    pieces = np.einsum("ij,kj->ik", prev, _corner_basis(ref.level - 1)[:2])
    sums = _corner_sums(ref.level - 1, pieces)
    conditions = np.zeros((len(_JUNCTIONS), 3, pieces.shape[1]))
    for row, (i, corner_i, k, corner_k) in enumerate(_JUNCTIONS):
        conditions[row, i] = sums[corner_i]
        conditions[row, k] = sums[corner_k]
    _, vh, rank, _ = _ranked_svd(conditions.reshape(len(_JUNCTIONS), -1), full=True)
    if vh.shape[0] - rank != out.shape[1]:
        raise MismatchError(
            f"eigenspace {g.record.key}: the junction conditions on its 1-cells "
            f"leave {vh.shape[0] - rank} combinations, the closed form predicts "
            f"{out.shape[1]}"
        )
    coeffs = vh[rank:].reshape(out.shape[1], 3, -1) * np.sqrt(3.0)
    out[:] = 0.0
    for cell, rows in enumerate(_translates(build_vertices(ref.level), 1)):
        out[rows] = np.einsum("ij,rj->ir", pieces, coeffs[:, cell])


def _newborn_entry(series: int, level: int) -> GraphEigenvalue:
    """The prediction entry of the 5- or 6-eigenspace born at `level`."""
    return next(
        e for e in decimation.truncated_graph_spectrum(level)
        if (e.series, e.birth, e.prefix) == (series, level, ())
    )


@functools.cache
def _newborn_remainder(series: int, level: int) -> np.ndarray:
    """The remainder at cell level 1 of the 5- or 6-eigenspace born at
    `level` (`_newborn_five_remainder`, `_newborn_six_remainder`),
    weighted-orthonormal and read-only; cached, so that it is built once
    per process, however many walks and lineages read it."""
    g = _newborn_entry(series, level)
    ref, w = _refinement(level), interior_weight(level)
    block = np.empty((ref.n, _remainder_rank(g.record, g.multiplicity, 1)))
    (_newborn_five_remainder if series == 5 else _newborn_six_remainder)(ref, w, g, block)
    _check_gram(block, 1.0 / w, g.record.key)
    block.flags.writeable = False
    return block


def _cell_block(series: int, j: int) -> np.ndarray:
    """What the 5- or 6-eigenspace born at level j adds to any cell it is
    placed in: level-j columns, weighted-orthonormal at level j.

    Placed in a cell of a finer level, zero elsewhere, a vector of the
    eigenspace stays an eigenvector exactly when, at each of the cell's
    corners, the values at the corner's two neighbours inside the cell sum
    to zero.  The vectors placed in its subcells pass and span the
    eigenspace's vectors localized in 1-cells, so the new ones lie in its
    remainder at cell level 1: all three of its columns for the 6-series,
    and for the 5-series the one combination on which the three corner sums
    vanish (`_corner_basis`).
    """
    block = _newborn_remainder(series, j)
    if series == 6:
        return block
    return np.einsum("ij,kj->ik", block, _corner_basis(j)[2:])


def _corner_basis(j: int) -> np.ndarray:
    """The right singular vectors of the corner sums (`_corner_sums`) of the
    5-series remainder born at level j: two combinations whose corner sums
    are independent, then the kernel, one combination past level 1 and none
    at level 1, where the remainder has two columns; a rank other than 2
    raises `MismatchError`."""
    block = _newborn_remainder(5, j)
    _, vh, rank, _ = _ranked_svd(_corner_sums(j, block), full=True)
    if rank != 2:
        raise MismatchError(
            f"eigenspace {_newborn_entry(5, j).record.key}: the corner sums of "
            f"its remainder at cell level 1 have a kernel of dimension "
            f"{block.shape[1] - rank}, the closed form predicts {block.shape[1] - 2}"
        )
    return vh


def _corner_sums(level: int, block: np.ndarray) -> np.ndarray:
    """Per corner of the level gasket and column of `block`, the sum of the
    column's values at the corner's two neighbours."""
    vertices = build_vertices(level)
    return block[_cell_partners(vertices, np.array(vertices.boundary))].sum(axis=1)


def _check_corners(level: int, block: np.ndarray, key: str) -> None:
    """Every corner sum of `block` (`_corner_sums`) must vanish, to SNAP_TOL
    for unit-norm columns: translated into a cell, each column then solves
    the eigen-equation at the cell's corners too, where the neighbours in
    the other cell read zero."""
    sums = _corner_sums(level, block)
    worst = float(np.max(np.abs(sums), initial=0.0)) * np.sqrt(interior_weight(level))
    if not worst <= SNAP_TOL:
        raise NumericError(
            f"level {level}, eigenspace {key}: corner sum {worst:.3e} exceeds "
            f"{SNAP_TOL:.0e}, so its translates leak into the next cell"
        )


def _check_cross(level: int, block: np.ndarray, rows: np.ndarray,
                 piece: np.ndarray, key: str) -> None:
    """`block` and the translates of `piece` into the cells whose rows are
    `rows`, all weighted-orthonormal at `level`, must be orthogonal, to
    ORTHO_TOL, in every cell."""
    cross = np.einsum("cir,it->crt", block[rows], piece)
    err = float(np.max(np.abs(cross), initial=0.0)) * interior_weight(level)
    if not err <= ORTHO_TOL:
        raise NumericError(
            f"eigenspace {key}: its remainder and its localized vectors have "
            f"a cross Gram entry {err:.3e}, above {ORTHO_TOL:.0e}"
        )


class _Templates:
    """The cell-0 templates of one walk, each built and certified once.

    A 5- or 6-eigenspace of entry (series, birth, prefix) at level L holds,
    for each cell level N = 1, ..., birth - 2, the eigenfunctions localized
    in N-cells that the birth j = birth - N adds (`_cell_block`): in every
    N-cell, cell 0's block translated.  That block, the template
    (series, j, prefix), is a block of Dirichlet eigenvectors at level
    L - N = j + len(prefix), `_cell_block(series, j)` extended along the
    prefix, for the graph values along a prefix do not depend on the birth;
    so one template serves every eigenspace of its series and prefix born
    after j.  It is weighted-orthonormal at its own level.  When built it is
    certified as a block of the eigenspace (series, j, prefix): by the
    stencil of its level and its corner sums, so that each translate is an
    eigenvector; by its Gram matrix (in `_extended` past birth); and by its
    cross Gram against the translates of its own templates, which are
    those of every coarser template of a later birth.  Translates of one
    template have disjoint supports, so their cross Gram is exactly zero.
    """

    def __init__(self, nodes: dict[tuple, GraphEigenvalue]):
        self.nodes = nodes
        self.built: dict[tuple, np.ndarray] = {}

    def __call__(self, series: int, j: int, prefix: tuple) -> np.ndarray:
        key = (series, j, prefix)
        if key not in self.built:
            self.built[key] = self._certified(series, j, prefix)
        return self.built[key]

    def _certified(self, series: int, j: int, prefix: tuple) -> np.ndarray:
        g = self.nodes[series, j, prefix]
        level, key = j + len(prefix), g.record.key
        if prefix:
            parent = self(series, j, prefix[:-1])
            ref = _refinement(level)
            block = np.empty((ref.n, parent.shape[1]))
            _extended(ref, parent, g.graph_value, key, block)
        else:
            block = _cell_block(series, j)
        _check_stencil(level, block, [(g, 0, block.shape[1])])
        _check_corners(level, block, key)
        if not prefix:
            # past birth, `_extended` checked it
            _check_gram(block, 1.0 / interior_weight(level), key)
        vertices = build_vertices(level)
        for n_level in range(1, j - 1):
            piece = self(series, j - n_level, prefix) * np.sqrt(3.0**n_level)
            _check_cross(level, block, _translates(vertices, n_level), piece, key)
        block.flags.writeable = False
        return block


def _cell_runs(record: EigenvalueRecord, d: int, first: int, k: int) -> list:
    """The column layout of a d-dimensional eigenspace that `_assemble`
    writes, which a localized split reads: after its remainder at cell
    level 1, for each cell level N = first, ..., k - 1 below birth - 1,
    (N, alpha_N, alpha_(N+1)) (`_remainder_rank`), the pieces localized in
    N-cells filling those columns cell after cell, (alpha_(N+1) - alpha_N)
    / 3^N side by side in each N-cell."""
    alpha = functools.partial(_remainder_rank, record, d)
    return [(n, alpha(n), alpha(n + 1)) for n in range(first, min(k, record.birth - 1))]


def _assemble(g: GraphEigenvalue, rem1: np.ndarray, templates: _Templates,
              out: np.ndarray, k: int) -> None:
    """Entry g's remainder at cell level k, or at k = its level its whole
    eigenspace, weighted-orthonormal, into `out`.

    It is the orthogonal sum of `rem1`, its remainder at cell level 1, and,
    for N = 1, ..., k - 1, of what birth g.birth - N adds to every N-cell,
    the template (g.series, g.birth - N, g.prefix): vectors localized in
    cells, the eigenfunctions of Barlow and Kigami.  Every N-cell is cell 0
    translated, its rows cell 0's in order, and cell 0's rows are the
    template's level's interior in order, so each template is written
    straight into every cell's rows, scaled by 3^(N/2) to
    weighted-orthonormal columns, in the columns `_cell_runs` lays out,
    cell after cell, each checked orthogonal to `rem1`.
    """
    level = g.birth + len(g.prefix)
    vertices = build_vertices(level)
    out[:, : rem1.shape[1]] = rem1
    out[:, rem1.shape[1] :] = 0.0
    for n_level, start, stop in _cell_runs(g.record, g.multiplicity, 1, k):
        block = templates(g.series, g.birth - n_level, g.prefix) * np.sqrt(3.0**n_level)
        rows = _translates(vertices, n_level)
        _check_cross(level, rem1, rows, block, g.record.key)
        # cell c's rows and columns, the cells' columns side by side
        cols = np.arange(start, stop).reshape(rows.shape[0], 1, -1)
        out[rows[:, :, None], cols] = block


def _whole(g: GraphEigenvalue, rem1: np.ndarray, templates: _Templates) -> np.ndarray:
    """Entry g's whole eigenspace, read-only: its remainder at cell level 1
    when nothing in it localizes, else assembled (`_assemble`)."""
    if rem1.shape[1] == g.multiplicity:
        return rem1
    out = np.empty((rem1.shape[0], g.multiplicity))
    _assemble(g, rem1, templates, out, g.birth + len(g.prefix))
    out.flags.writeable = False
    return out


def _predicted(m: int) -> list[GraphEigenvalue]:
    """The level-m prediction in record-value order."""
    return sorted(
        decimation.truncated_graph_spectrum(m),
        key=lambda g: (g.record.value, g.record.key),
    )


def _branches(g: GraphEigenvalue) -> tuple[str, ...]:
    """The branches below entry g, in the order of their graph values: only
    the expanding one from 6."""
    return (EXPANDING,) if g.graph_value == 6.0 else (CONTRACTING, EXPANDING)


def _tree(m: int) -> dict[tuple, GraphEigenvalue]:
    """The decimation tree through level m: every `truncated_graph_spectrum`
    entry of levels 1 to m by (series, birth, prefix).

    It is checked to be exactly what decimation builds: the roots of level j
    are the newborn (5, j) and (6, j), or (5, 1) and (2, 1) at level 1; every
    other node of level j is a child of a level-(j-1) node through one of
    its `_branches`; and each level's multiplicities add up to its interior
    count.  A break raises `MismatchError` naming the level and the
    eigenspace.
    """
    nodes: dict[tuple, GraphEigenvalue] = {}
    below: tuple[GraphEigenvalue, ...] = ()
    for j in range(1, m + 1):
        level = decimation.truncated_graph_spectrum(j)
        parents = {(s, j, ()) for s in ((5, 2) if j == 1 else (5, 6))}
        parents.update(
            (g.series, g.birth, g.prefix + (sign,)) for g in below for sign in _branches(g)
        )
        found = {(g.series, g.birth, g.prefix): g for g in level}
        if found.keys() != parents:
            s, b, prefix = min(found.keys() ^ parents)
            raise MismatchError(
                f"level {j}: eigenspace {s}:{b}:{''.join(prefix)} is "
                + ("predicted but not built" if (s, b, prefix) in found
                   else "built but not predicted") + " by decimation"
            )
        total = sum(g.multiplicity for g in level)
        if total != decimation.interior_dimension(j):
            raise MismatchError(
                f"level {j}: decimation predicts dimension {total}, the graph "
                f"has {decimation.interior_dimension(j)} interior vertices"
            )
        nodes.update(found)
        below = level
    return nodes


def _grown(g: GraphEigenvalue, parent=None, out=None) -> np.ndarray:
    """Entry g's remainder at cell level 1: newborn (the cached 5- or
    6-series `_newborn_remainder`, or the level-1 2-series vector, constant
    on the one midpoint triangle), or with `parent`, the remainder of g's
    parent one level down, extended at g's graph value.  Extension keeps a
    vector's support inside its cells and scales the Gram matrix by one
    constant, so a parent's remainder extends to its child's.  The columns
    go into `out`, whose stencil the caller checks, or into a new read-only
    array checked here."""
    ref = _refinement(g.birth + len(g.prefix))
    width = _remainder_rank(g.record, g.multiplicity, 1)
    block = out
    if out is None:
        # a column block of a wider array, as each eigenspace is in a level
        # matrix: einsum sums a lone contiguous column in another order
        block = np.empty((ref.n, width + 1))[:, :-1]
    if parent is not None:
        _extended(ref, parent, g.graph_value, g.record.key, block)
    elif g.series == 2:
        block[:] = 1.0 / np.sqrt(ref.n * interior_weight(ref.level))
    else:
        block[:] = _newborn_remainder(g.series, ref.level)
    if out is None:
        _check_stencil(ref.level, block, [(g, 0, width)])
        block.flags.writeable = False
    return block


def _walk(m: int, leaf: Callable[[GraphEigenvalue, object, _Templates], None]) -> None:
    """Depth first down the decimation tree: `leaf(g, parent, templates)`
    for every level-m entry g, where `parent` is the remainder at cell level
    1 of g's parent one level down, or None for a newborn, and `templates`
    the walk's cell-0 templates.  Each node's remainder at cell level 1
    above level m is grown from its parent's (`_grown`) and held only while
    the walk is below it."""
    nodes = _tree(m)
    templates = _Templates(nodes)

    def descend(g: GraphEigenvalue, parent) -> None:
        if g.birth + len(g.prefix) == m:
            leaf(g, parent, templates)
            return
        rem1 = _grown(g, parent)
        for sign in _branches(g):
            descend(nodes[g.series, g.birth, g.prefix + (sign,)], rem1)

    for g in nodes.values():
        if not g.prefix:
            descend(g, None)
    # descend reaches itself through its closure; without this the cycle
    # would keep `leaf`, and any columns it writes, until a garbage collection
    del descend


def _bundle(m: int, g: GraphEigenvalue, vectors) -> EigenspaceBundle:
    return EigenspaceBundle(
        level=m, record=g.record, graph_value=g.graph_value, vectors=vectors
    )


def eigenspace(m: int, key: str) -> EigenspaceBundle:
    """The level-m eigenspace of record `key`, built by its own lineage.

    Its remainder at cell level 1 is born at its birth level (from the
    newborn 5- or 6-eigenspace, or the level-1 2-series vector) and extended
    through its branches one level at a time, and its templates along its
    prefix (`_Templates`); the whole is assembled from both at level m, by
    the steps and checks of `level_remainder(m, m)`, whose columns of `key`
    it equals bit for bit.  No other eigenspace is built.  Its vectors are
    read-only.
    """
    _check_level(m)
    nodes = _tree(m)
    entry = next((g for g in _predicted(m) if g.record.key == key), None)
    if entry is None:
        raise DomainError(f"no eigenspace with record key {key} at level {m}")
    rem1 = None
    for i in range(len(entry.prefix) + 1):
        rem1 = _grown(nodes[entry.series, entry.birth, entry.prefix[:i]], rem1)
    return _bundle(m, entry, _whole(entry, rem1, _Templates(nodes)))


def walk_eigenspaces(m: int, visit: Callable[..., object], k: int) -> list:
    """`visit(bundle, remainder)` applied to every level-m eigenspace, each
    built whole by its lineage, depth first down the decimation tree, in
    tree order, beside its remainder at cell level k.

    The walk carries each eigenspace's remainder at cell level 1 down its
    lineage, and builds each template once; a visited eigenspace is
    assembled from both (`_whole`) and dropped when `visit` returns, so the
    peak is the largest single eigenspace, not the n x n level basis.  The
    visited vectors are read-only.  The remainder at cell level k is the
    whole block's leading columns (`_assemble` writes it first), so that it
    equals that eigenspace's block of `walk_remainder(m, k)` bit for bit,
    and no level matrix is assembled.
    """
    _check_level(m)
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= cell level <= {m}, got {k}")
    results = []

    def leaf(g: GraphEigenvalue, parent, templates: _Templates) -> None:
        bundle = _bundle(m, g, _whole(g, _grown(g, parent), templates))
        columns = bundle.vectors[:, : _remainder_rank(g.record, g.multiplicity, k)]
        remainder = Remainder(
            columns=columns,
            dims=[columns.shape[1]],
            per_cell=[(g.multiplicity - columns.shape[1]) // 3**k],
            records=[g.record],
        )
        results.append(visit(bundle, remainder))

    _walk(m, leaf)
    return results


def _check_level(m: int) -> None:
    """Raise as `build_vertices` does for level m, and for level 0; build nothing."""
    check_level(m)
    if m < 1:
        raise DomainError("no interior vertices at level 0, no eigenvectors")


@functools.lru_cache(maxsize=8)
def level_basis(m: int) -> LevelBasis:
    """The level workspace, cached: the bundles of
    `truncated_graph_spectrum(m)` in record-value order, whose `vectors`
    are None, and no vertex set.  Compressions read only their eigenvalues
    and `level_remainder`; `eigenspace` builds one eigenspace's vectors."""
    _check_level(m)
    return LevelBasis(level=m, bundles=[_bundle(m, g, None) for g in _predicted(m)])


def remainder_width(m: int, k: int) -> int:
    """R(m, k), the number of columns of `level_remainder(m, k)`, from the
    prediction alone."""
    return sum(_remainder_rank(g.record, g.multiplicity, k) for g in _predicted(m))


@functools.lru_cache(maxsize=8)
def level_remainder(m: int, k: int) -> Remainder:
    """`walk_remainder(m, k)`, cached."""
    return walk_remainder(m, k)


def walk_remainder(m: int, k: int) -> Remainder:
    """The remainder at cell level k of every level-m eigenspace.

    Eigenspaces are in record-value order and the columns are read-only.
    They come from one walk down the decimation tree, which carries only
    remainders at cell level 1 and writes each level-m eigenspace's
    remainder straight into its column range, assembled from its remainder
    at cell level 1 and the templates of cells coarser than k
    (`_assemble`), so for k < m no n x n array is formed.  At k = m nothing
    localizes: the columns are every whole eigenspace, the one n x n basis,
    which only a callable potential or one simple at level m reads; at
    k = 0 every vector is localized, there are no columns, and no vertex
    set is read.
    """
    _check_level(m)
    if not 0 <= k <= m:
        raise DomainError(f"need 0 <= cell level <= {m}, got {k}")
    blocks, cursor = [], 0
    for g in _predicted(m):
        width = _remainder_rank(g.record, g.multiplicity, k)
        blocks.append((g, cursor, cursor + width))
        cursor += width
    columns = np.empty((decimation.interior_dimension(m), cursor))
    if k:
        views = {g: columns[:, start:stop] for g, start, stop in blocks}

        def leaf(g: GraphEigenvalue, parent, templates: _Templates) -> None:
            # the remainder at cell level 1 goes straight into the leading
            # columns, whose stencil is checked with the level's
            rem1 = views[g][:, : _remainder_rank(g.record, g.multiplicity, 1)]
            _grown(g, parent, rem1)
            _assemble(g, rem1, templates, views[g], k)

        _walk(m, leaf)
        # the stencil of the level is checked in one pass
        _check_stencil(m, columns, blocks)
    columns.flags.writeable = False
    return Remainder(
        columns=columns,
        dims=[stop - start for _, start, stop in blocks],
        per_cell=[(g.multiplicity - (stop - start)) // 3 ** k for g, start, stop in blocks],
        records=[g.record for g, _, _ in blocks],
    )


def remainder_deviation(a: Remainder, b: Remainder, m: int) -> float:
    """Sine of the largest principal angle between the spans of two
    remainders of the same level-m eigenspaces, eigenspace by eigenspace.

    Both must carry the same records and dimensions; the columns of each
    eigenspace of `a` less their weighted projection onto those of `b` have
    spectral norm sin(theta) in the weighted inner product.
    """
    if [r.key for r in a.records] != [r.key for r in b.records] or a.dims != b.dims:
        raise StructuralError("the remainders hold different eigenspaces")
    w = interior_weight(m)
    worst, cursor = 0.0, 0
    for d in a.dims:
        qa = a.columns[:, cursor : cursor + d]
        qb = b.columns[:, cursor : cursor + d]
        cursor += d
        if d:
            residual = qa - qb @ (qb.T @ qa * w)
            worst = max(worst, float(np.linalg.norm(residual, 2)) * np.sqrt(w))
    return worst


def save_bundle(bundle: EigenspaceBundle, path) -> None:
    """Dump a bundle so that re-loading reproduces the matrix bit-exactly."""
    vectors = bundle.require_vectors()
    lines = [
        f"# level,{bundle.level},record,{bundle.record.key},"
        f"graph_value,{fmt(bundle.graph_value)},dim,{bundle.dim}"
    ]
    for i in range(bundle.dim):
        lines.append(",".join(fmt(float(x)) for x in vectors[:, i]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
