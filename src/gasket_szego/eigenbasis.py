"""Dense eigensolver, eigenspace grouping, and localized/non-localized splits.

Graph eigenvectors are labelled by the level-m decimation prediction, rescaled
to be orthonormal in the measure-weighted inner product and held as one
read-only matrix, of which every eigenspace is a column view.  A
split at cell level N finds, per N-cell, the subspace of vectors supported
strictly inside that cell; the subspace is located purely by linear algebra
(kernel of the restriction-to-outside map) and its dimension is checked
against the closed-form counts, which is the decisive structural test.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import decimation
from .decimation import (
    EigenvalueRecord,
    localization_counts,
)
from .errors import (
    DomainError,
    MismatchError,
    NumericError,
    StructuralError,
)
from .gasket import (
    GraphLaplacian,
    SelfSimilarMeasure,
    VertexSet,
    Word,
    build_dirichlet_laplacian,
    build_measure,
    build_vertices,
    cell_words,
)
from .serialize import fmt

GROUPING_RTOL = 1e-6
RESIDUAL_RTOL = 1e-9
KERNEL_RTOL = 1e-7
SNAP_TOL = 1e-10
ORTHO_TOL = 1e-10


def solve_graph_spectrum(lap: GraphLaplacian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and the matrix of their orthonormal eigenvectors."""
    mat = lap.matrix
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
    """An eigenspace at graph level m, orthonormal in the weighted inner product."""

    level: int
    record: EigenvalueRecord
    graph_value: float
    vectors: np.ndarray
    vertices: VertexSet = field(repr=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def interior_weight(m: int) -> float:
    """Measure weight shared by all interior vertices at level m."""
    return 2.0 * 3.0 ** (-(m + 1))


def group_eigenspaces(
    values: np.ndarray,
    vectors: np.ndarray,
    m: int,
    vertices: VertexSet | None = None,
) -> tuple[np.ndarray, list[EigenspaceBundle]]:
    """Label ascending eigenpairs with the decimation prediction of level m.

    The truncated graph spectrum fixes every eigenvalue and multiplicity, so
    the sorted spectra are walked in lockstep; an eigenvalue farther than the
    relative grouping tolerance from its prediction is reported as an orphan.
    Returns the weighted-orthonormal eigenvectors permuted into record-value
    order as one read-only matrix, and one bundle per eigenspace whose
    vectors are a column view of it.
    """
    if vertices is None:
        vertices = build_vertices(m)
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
    bundles = []
    cursor = 0
    for g, cols in blocks:
        bundles.append(
            EigenspaceBundle(
                level=m,
                record=g.record,
                graph_value=g.graph_value,
                vectors=matrix[:, cursor : cursor + cols.size],
                vertices=vertices,
            )
        )
        cursor += cols.size
    return matrix, bundles


@dataclass
class LocalizedBasis:
    """Per-cell localized vectors plus an orthonormal non-localized remainder."""

    bundle: EigenspaceBundle
    cell_level: int
    per_cell: dict[Word, np.ndarray]
    nonlocalized: np.ndarray

    @property
    def localized_total(self) -> int:
        return sum(v.shape[1] for v in self.per_cell.values())


def _canonical_columns(vectors: np.ndarray) -> np.ndarray:
    """Deterministic column order and sign: pivot on the largest entry."""
    cols = []
    for i in range(vectors.shape[1]):
        v = vectors[:, i].copy()
        pivot = int(np.argmax(np.abs(v)))
        if v[pivot] < 0:
            v = -v
        cols.append((pivot, -abs(v[pivot]), tuple(np.round(v[:64], 9)), v))
    cols.sort(key=lambda item: item[:3])
    return np.column_stack([item[3] for item in cols]) if cols else vectors


def localized_split(bundle: EigenspaceBundle, n_level: int) -> LocalizedBasis:
    """Split an eigenspace into per-N-cell localized vectors plus a remainder.

    Localized vectors are snapped to exact zero off their cell (including the
    three cell corners, where true localized eigenfunctions vanish); pre-snap
    magnitudes above the snap tolerance or a count different from the
    closed-form prediction raise a structural error.
    """
    rec = bundle.record
    if rec.series not in (5, 6):
        raise DomainError("only 5- and 6-series eigenspaces localize")
    if not 1 <= n_level < rec.birth:
        raise DomainError(
            f"need 1 <= N < birth, got N={n_level}, birth={rec.birth}"
        )
    counts = localization_counts(rec.series, rec.birth, n_level)
    vertices = bundle.vertices
    u = bundle.vectors
    n, d = u.shape
    if d != counts.d_j:
        raise StructuralError(
            f"bundle dimension {d} != predicted multiplicity {counts.d_j}"
        )

    per_cell: dict[Word, np.ndarray] = {}
    coeff_blocks = []
    for word in cell_words(n_level):
        inside = vertices.cell_interior_positions(word)
        mask = np.ones(n, dtype=bool)
        mask[inside] = False
        outside_rows = u[mask, :]
        if outside_rows.shape[0] < d:
            raise StructuralError(
                f"cell {word}: fewer outside coordinates than bundle dimension"
            )
        _, svals, vh = np.linalg.svd(outside_rows, full_matrices=False)
        tol = max(float(svals[0]), 1.0) * KERNEL_RTOL if svals.size else KERNEL_RTOL
        rank = int(np.sum(svals > tol))
        kdim = d - rank
        if kdim != counts.m_j_N:
            raise StructuralError(
                f"cell {word}: found {kdim} localized vectors, closed form "
                f"predicts {counts.m_j_N} (series {rec.series}, birth "
                f"{rec.birth}, N={n_level})"
            )
        if kdim == 0:
            per_cell[word] = np.zeros((n, 0))
            continue
        coeffs = vh[rank:, :]
        vecs = u @ coeffs.T
        spill = np.max(np.abs(vecs[mask, :]))
        if spill > SNAP_TOL:
            raise StructuralError(
                f"cell {word}: localized vector leaks {spill:.3e} outside the "
                f"cell, above the snap tolerance {SNAP_TOL:.0e}"
            )
        vecs[mask, :] = 0.0
        vecs = _canonical_columns(vecs)
        _check_residual(bundle, vecs)
        per_cell[word] = vecs
        coeff_blocks.append(coeffs)

    if coeff_blocks:
        stacked = np.vstack(coeff_blocks)
        _, svals, vh = np.linalg.svd(stacked, full_matrices=True)
        rank = int(np.sum(svals > KERNEL_RTOL))
        if rank != stacked.shape[0]:
            raise StructuralError("localized coefficient blocks are degenerate")
        completion = vh[rank:, :]
    else:
        completion = np.eye(d)
    nonloc = _canonical_columns(u @ completion.T)
    if nonloc.shape[1] != counts.alpha_N:
        raise StructuralError(
            f"non-localized completion has {nonloc.shape[1]} vectors, "
            f"expected {counts.alpha_N}"
        )

    split = LocalizedBasis(
        bundle=bundle,
        cell_level=n_level,
        per_cell=per_cell,
        nonlocalized=nonloc,
    )
    _check_split_orthonormal(split)
    return split


def _check_residual(bundle: EigenspaceBundle, vectors: np.ndarray) -> None:
    if vectors.shape[1] == 0:
        return
    # snapped vectors must remain in the eigenspace span; this bounds the
    # eigen-residual without needing the Laplacian matrix here
    u = bundle.vectors
    coeffs = u.T @ vectors * interior_weight(bundle.level)
    recon = u @ coeffs
    err = np.max(np.abs(recon - vectors))
    if err > 10.0 * SNAP_TOL:
        raise StructuralError(
            f"snapped localized vectors left the eigenspace by {err:.3e}"
        )


def _check_split_orthonormal(split: LocalizedBasis) -> None:
    blocks = [v for v in split.per_cell.values() if v.shape[1]]
    blocks.append(split.nonlocalized)
    full = np.hstack(blocks)
    gram = full.T @ full * interior_weight(split.bundle.level)
    err = np.max(np.abs(gram - np.eye(gram.shape[0])))
    if err > ORTHO_TOL:
        raise StructuralError(
            f"split basis Gram deviates from identity by {err:.3e}"
        )


@dataclass
class LevelBasis:
    """Everything needed to run experiments at a fixed graph level."""

    level: int
    vertices: VertexSet
    measure: SelfSimilarMeasure
    graph_values: np.ndarray
    vectors: np.ndarray
    bundles: list[EigenspaceBundle]

    def bundle_for(self, key: str) -> EigenspaceBundle:
        for b in self.bundles:
            if b.record.key == key:
                return b
        raise DomainError(f"no eigenspace with record key {key} at level {self.level}")

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


def build_level_basis(m: int) -> LevelBasis:
    """Solve level m once; bundles and leading selections are column views
    of `vectors`, so its arrays are read-only."""
    vertices = build_vertices(m)
    values, raw = solve_graph_spectrum(build_dirichlet_laplacian(vertices))
    vectors, bundles = group_eigenspaces(values, raw, m, vertices)
    values.flags.writeable = False
    return LevelBasis(
        level=m,
        vertices=vertices,
        measure=build_measure(vertices),
        graph_values=values,
        vectors=vectors,
        bundles=bundles,
    )


@functools.lru_cache(maxsize=8)
def level_basis(m: int) -> LevelBasis:
    """Cached level workspace; its arrays are read-only and shared."""
    return build_level_basis(m)


def save_bundle(bundle: EigenspaceBundle, path) -> None:
    """Dump a bundle so that re-loading reproduces the matrix bit-exactly."""
    lines = [
        f"# level,{bundle.level},record,{bundle.record.key},"
        f"graph_value,{fmt(bundle.graph_value)},dim,{bundle.dim}"
    ]
    for i in range(bundle.dim):
        lines.append(",".join(fmt(float(x)) for x in bundle.vectors[:, i]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_bundle(path, vertices: VertexSet) -> EigenspaceBundle:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].lstrip("# ").split(",")
    level = int(header[1])
    key = header[3]
    graph_value = float(header[5])
    series, birth, branches = key.split(":")
    record = decimation.make_record(
        int(series), int(birth), tuple(branches)
    )
    vectors = np.column_stack(
        [np.array([float(x) for x in line.split(",")]) for line in lines[1:]]
    )
    return EigenspaceBundle(
        level=level,
        record=record,
        graph_value=graph_value,
        vectors=vectors,
        vertices=vertices,
    )
