"""Dense oracles for the reduced compressions, Schrodinger spectra and splits.

The library never forms diag(q) + U^T [chi] U over whole eigenspaces when chi
is simple: it solves only the non-localized remainder.  These helpers form
the full product over every selected column and solve it densely, the way
the library did before the reduction, as an independent reference;
`split_columns` orders an eigenspace's columns like its localized split,
so that the dense product shows the block structure the reduction relies
on.  `selection_columns` and `whole_basis` read whole eigenspaces out of
the n x n basis `level_remainder(m, m)`, which the library forms only for a
callable chi or a chi simple at level m.  Likewise `localized_split` reads every cell's localized
vectors off the columns the walk lays out, with the rank of the junction
functionals pinned; `reference_split` takes the SVD of every row outside the
cell, and so reads any basis of the eigenspace.
`reference_spectrum` searches the decimation tree depth-first, one scalar
record at a time, where `enumerate_spectrum` takes it level by level in numpy;
`reference_graph_spectrum` lists every level-m branch string recursively,
where `truncated_graph_spectrum` grows the same tree; `reference_limit`
steps one record at a time, where `_contracting_limits` steps them all; and
`reference_resolvable_window` takes the least of a hand-built list of
records, where `resolvable_window` reads the level-(m+1) tree.
`reference_spectrum_csv` and `reference_separated_sequence` read a spectrum
table's records one at a time, where `spectrum_to_csv` and
`separated_sequence` read its sorted arrays.  `nonlocalized_remainder` reads
the remainders of a run of eigenspaces off their whole vectors, where
`level_remainder` carries them by lineage; `trace_power` powers a dense
compressed matrix, where `trace_F` reads its eigenvalues; and `load_bundle`
reads back what `save_bundle` wrote.  `reference_edges` assembles the
interior edges side by side from the cells, where the library reads the
vertex set's neighbour table.  `newborn_block` builds a whole newborn 5- or
6-eigenspace from exact spanning sets (a cycle basis of the cell graph, the
lam = 6 extensions of the unit vectors) and the inverse Cholesky factor of
their Gram matrix, where `eigenbasis` places translated level-1 remainders
in cells, and builds those remainders with no solve of the cell graph and
no dense factor: the 5-series from translates of the previous birth's, the
6-series by decimation's Schur complement.
"""
import dataclasses
from pathlib import Path

import numpy as np

from gasket_szego import decimation, eigenbasis, operators
from gasket_szego.decimation import (
    CONTRACTING,
    DEFAULT_TOL,
    EXPANDING,
    MAX_STEPS,
    PRUNE_SAFETY,
    EigenvalueRecord,
    GraphEigenvalue,
    SeparatedFamily,
    _normalize_branches,
    decimation_preimages,
    enumerate_spectrum,
    eigenvalue_limit,
    renormalization_factor,
    series_multiplicity,
)
from gasket_szego.errors import (
    ConvergenceError,
    DomainError,
    MismatchError,
    NumericError,
)
from gasket_szego.eigenbasis import (
    KERNEL_RTOL,
    EigenspaceBundle,
    Remainder,
    eigenspace_remainder,
    localized_split,
)
from gasket_szego.gasket import build_vertices, effective_multiplier

ROUNDING_SLACK = 32.0


def selection_columns(selection) -> np.ndarray:
    """The selection's whole eigenspaces side by side, copied out of the
    n x n basis `level_remainder(m, m)`."""
    whole = eigenbasis.level_remainder(selection.level, selection.level)
    return np.hstack([whole.select([rec]).columns for rec in selection.records])


def whole_basis(m: int):
    """The level-m workspace whose bundles carry their vectors: column views
    of the n x n basis `level_remainder(m, m)`."""
    basis = eigenbasis.level_basis(m)
    whole = eigenbasis.level_remainder(m, m)
    bundles = [
        dataclasses.replace(b, vectors=whole.select([b.record]).columns)
        for b in basis.bundles
    ]
    return dataclasses.replace(basis, bundles=bundles)


def dense_compression(q, chi, selection, columns=None) -> np.ndarray:
    """diag(q(lam)) + U^T [chi] U over `columns`, by default the selection's
    whole eigenspaces (`selection_columns`), symmetrized.

    `q` may be None (no lam part).  `chi` is None (no potential), one
    function for every eigenspace, or a list with one function (or None)
    per eigenspace of the selection, which multiplies that eigenspace's
    columns."""
    cols = selection_columns(selection) if columns is None else columns
    vertices = selection.vertices
    interior = vertices.interior
    if isinstance(chi, list):
        raw = np.zeros((selection.dim, selection.dim))
        starts = np.cumsum([0] + selection.dims)
        for f, a, b in zip(chi, starts[:-1], starts[1:], strict=True):
            if f is not None:
                g = effective_multiplier(f, vertices)[interior]
                raw[:, a:b] = cols.T @ (g[:, None] * cols[:, a:b])
    elif chi is None:
        raw = np.zeros((selection.dim, selection.dim))
    else:
        g = effective_multiplier(chi, vertices)[interior]
        raw = cols.T @ (g[:, None] * cols)
    mat = 0.5 * (raw + raw.T)
    if q is not None:
        mat[np.diag_indices_from(mat)] += [q(float(lam)) for lam in selection.lambdas]
    return mat


def dense_schrodinger(p, chi, basis):
    """The full level-m matrix of p(-Delta) + [chi], its diagonal p(lam) and
    its potential part."""
    sel = operators.leading_selection(basis)
    potential = dense_compression(None, chi, sel)
    diagonal = np.array([p(float(lam)) for lam in sel.lambdas])
    return potential + np.diag(diagonal), diagonal, potential


def dense_clusters(p, chi, basis, family, tau=1e-9):
    """Threshold, counts and positions of the clusters by a dense eigh.

    Windows, padding and threshold follow `clusters.identify_clusters`;
    positions are the eigenvalues of V^T (H - center) V over the windowed
    eigenvectors, with the diagonal recentered before multiplying."""
    matrix, diagonal, potential = dense_schrodinger(p, chi, basis)
    nu, vectors = np.linalg.eigh(matrix)
    pad = tau + ROUNDING_SLACK * np.finfo(float).eps * float(np.max(np.abs(nu)))
    lo, hi = operators.limit_range(chi, basis.vertices)
    family = sorted(family, key=lambda r: r.value)
    counts, positions = {}, {}
    for rec in family:
        center = p(rec.value)
        idx = np.nonzero((nu >= center + lo - pad) & (nu <= center + hi + pad))[0]
        counts[rec.birth] = int(idx.size)
        v = vectors[:, idx]
        proj = v.T @ ((diagonal - center)[:, None] * v) + v.T @ (potential @ v)
        positions[rec.birth] = np.linalg.eigvalsh(0.5 * (proj + proj.T))
    threshold = next(
        rec.birth
        for start, rec in enumerate(family)
        if all(counts[r.birth] == r.multiplicity for r in family[start:])
    )
    return threshold, counts, positions


def cell_inside_rows(vertices, k, c):
    """The interior rows inside k-cell c, ascending: the vertices of its
    3^(m-k) level-m cells, which follow one another in word order, less its
    three corners; its corner i is corner i of its level-m cell whose last
    m - k digits are all i."""
    width = 3 ** (vertices.level - k)
    ids = np.unique(vertices.cells[c * width : (c + 1) * width])
    firsts = c * width + np.array([0, width // 2, width - 1])
    corners = vertices.cells[firsts, [0, 1, 2]]
    rows = vertices.rows[np.setdiff1d(ids, corners)]
    return np.sort(rows[rows < vertices.n_interior])


def reference_split(bundle, n_level):
    """Per-cell localized vectors and the non-localized remainder of a
    bundle, by an SVD of all n - |C| rows outside each N-cell C.

    Same rank rule as `localized_split`'s junction SVD, and the remainder
    completes the localized coefficients; the columns are
    weighted-orthonormal, so w V V^T are the projectors to compare."""
    u = bundle.vectors
    n = u.shape[0]
    per_cell, coeffs = [], []
    for c in range(3**n_level):
        mask = np.ones(n, dtype=bool)
        mask[cell_inside_rows(bundle.vertices, n_level, c)] = False
        _, svals, vh = np.linalg.svd(u[mask], full_matrices=False)
        rank = int(np.sum(svals > KERNEL_RTOL * max(1.0, float(svals[0]))))
        per_cell.append(u @ vh[rank:].T)
        coeffs.append(vh[rank:])
    stacked = np.vstack(coeffs)
    _, _, vh = np.linalg.svd(stacked, full_matrices=True)
    return per_cell, u @ vh[stacked.shape[0]:].T


def split_columns(bundle, n_level):
    """The columns of one eigenspace in the order of its localized split:
    each N-cell's localized vectors in cell order, then the non-localized
    remainder.  Returns the columns and the split."""
    split = localized_split(bundle, n_level)
    columns = np.hstack([*split.per_cell, split.nonlocalized])
    return columns, split


def _apply_branch(lam: float, sign: str, explicit: bool) -> float:
    lo, hi = decimation_preimages(lam)
    if sign == CONTRACTING:
        # the contracting preimage of 6 is the forbidden seed value 2
        if lam == 6.0:
            if explicit:
                raise DomainError(
                    "contracting branch from seed 6 lands on the forbidden "
                    "value 2; the first step after a 6 birth must expand"
                )
            return hi
        return lo
    if sign == EXPANDING:
        return hi
    raise DomainError(f"branch sign must be '+' or '-', got {sign!r}")


def reference_limit(
    series: int,
    birth: int,
    branches=(),
    tol: float = DEFAULT_TOL,
    with_trace: bool = False,
):
    """`eigenvalue_limit` one scalar step at a time.

    Explicit `branches` are applied after birth; past them the iteration takes
    the contracting root, along which the renormalized value increases to its
    limit.  Stops when successive values agree to `tol` relatively; with
    `with_trace` also returns the graph values up to the stop.
    """
    series_multiplicity(series, birth)  # validates the pair
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    branches = _normalize_branches(series, branches)
    lam = float(series)
    level = birth
    trace = [lam]
    prev = renormalization_factor(level) * lam
    for step in range(MAX_STEPS):
        explicit = step < len(branches)
        sign = branches[step] if explicit else CONTRACTING
        lam = _apply_branch(lam, sign, explicit)
        level += 1
        trace.append(lam)
        value = renormalization_factor(level) * lam
        if not explicit and abs(value - prev) < tol * abs(value):
            if with_trace:
                return value, tuple(trace)
            return value
        prev = value
    raise ConvergenceError(
        f"renormalized eigenvalue did not stabilize to {tol} within "
        f"{MAX_STEPS} steps (series {series}, birth {birth}, "
        f"{len(branches)} explicit branches)"
    )


def reference_record(series: int, birth: int, branches=()) -> EigenvalueRecord:
    """`make_record` with the scalar `reference_limit`."""
    branches = _normalize_branches(series, branches)
    return EigenvalueRecord(
        series=series,
        birth=birth,
        branches=branches,
        value=reference_limit(series, birth, branches),
        multiplicity=series_multiplicity(series, birth),
    )


def _sign_strings(length: int) -> list[tuple[str, ...]]:
    if length == 0:
        return [()]
    shorter = _sign_strings(length - 1)
    return [s + (EXPANDING,) for s in shorter] + [
        s + (CONTRACTING,) for s in shorter
    ]


def _canonical_from_prefix(series: int, prefix: tuple[str, ...]) -> tuple[str, ...]:
    trimmed = prefix
    while trimmed and trimmed[-1] == CONTRACTING:
        trimmed = trimmed[:-1]
    if series == 6 and not trimmed:
        trimmed = (EXPANDING,)
    return trimmed


def reference_graph_spectrum(m: int) -> list[GraphEigenvalue]:
    """`truncated_graph_spectrum(m)` by listing every level-m branch string
    of every (series, birth) recursively, applying it one scalar step at a
    time, and taking `reference_record` of its trimmed prefix."""
    if m < 1:
        raise DomainError(f"graph spectra start at level 1, got {m}")
    out: list[GraphEigenvalue] = []
    for series in (2, 5, 6):
        births = (
            (1,)
            if series == 2
            else range(1, m + 1)
            if series == 5
            else range(2, m + 1)
        )
        for birth in births:
            steps = m - birth
            if series == 6:
                prefixes = (
                    [()]
                    if steps == 0
                    else [
                        (EXPANDING,) + rest
                        for rest in _sign_strings(steps - 1)
                    ]
                )
            else:
                prefixes = _sign_strings(steps)
            for prefix in prefixes:
                lam = float(series)
                for step, sign in enumerate(prefix):
                    lam = _apply_branch(lam, sign, explicit=True)
                record = reference_record(
                    series, birth, _canonical_from_prefix(series, prefix)
                )
                out.append(
                    GraphEigenvalue(
                        graph_value=lam,
                        series=series,
                        birth=birth,
                        prefix=prefix,
                        multiplicity=record.multiplicity,
                        record=record,
                    )
                )
    out.sort(key=lambda g: (g.graph_value, g.series, g.birth, g.prefix))
    return out


def reference_resolvable_window(m: int) -> float:
    """`resolvable_window` from the hand-built list of the records that can
    attain it: the smallest birth-(m+1) record, and each record of birth
    <= m whose single expanding step sits one level beyond the truncation."""
    keys = [
        (5, m + 1, ()),
        (2, 1, (CONTRACTING,) * (m - 1) + (EXPANDING,)),
    ]
    keys += [
        (5, j, (CONTRACTING,) * (m - j) + (EXPANDING,)) for j in range(1, m + 1)
    ]
    keys += [
        (6, j, (EXPANDING,) + (CONTRACTING,) * (m - j - 1) + (EXPANDING,))
        for j in range(2, m + 1)
    ]
    return min(eigenvalue_limit(*key) for key in keys)


def reference_spectrum(cutoff):
    """Every decimation record with value <= cutoff, sorted like
    `enumerate_spectrum`: a recursive depth-first search over branch
    prefixes with the same PRUNE_SAFETY pruning, and `reference_record` (the
    scalar `reference_limit`) for each canonical node."""
    records = []

    def visit(series, birth, branches, lam, level):
        if not branches or branches[-1] == EXPANDING:
            record = reference_record(series, birth, branches)
            if record.value <= cutoff:
                records.append(record)
        lo, hi = decimation_preimages(lam)
        if lam == 6.0:
            lo = hi  # forced step, single child
        partial_plus = renormalization_factor(level + 1) * hi
        if partial_plus > PRUNE_SAFETY * cutoff:
            # every deeper record contains an expanding step at least this
            # large, so the whole subtree lies above the cutoff
            return
        visit(series, birth, branches + (EXPANDING,), hi, level + 1)
        if lam != 6.0:
            visit(series, birth, branches + (CONTRACTING,), lo, level + 1)

    for series in (2, 5, 6):
        birth = 1 if series in (2, 5) else 2
        while True:
            if reference_limit(series, birth) > cutoff:
                break
            if series == 6:
                # canonical root already contains the forced expanding step
                visit(series, birth, (EXPANDING,), 3.0, birth + 1)
            else:
                visit(series, birth, (), float(series), birth)
            if series == 2:
                break
            birth += 1
    records.sort(key=lambda r: (r.value, r.series, r.birth, r.branches))
    return records


def reference_spectrum_csv(table, path) -> None:
    """`spectrum_to_csv` one record at a time."""
    rows = "".join(
        "%.17g,%d,%d,%d,%s\n"
        % (r.value, r.series, r.birth, r.multiplicity, "".join(r.branches))
        for r in table.records
    )
    Path(path).write_text(
        "value,series,birth,multiplicity,branches\n" + rows
        + f"# d_lambda,{sum(r.multiplicity for r in table.records)}\n",
        encoding="utf-8",
    )


def reference_separated_sequence(j_max: int) -> SeparatedFamily:
    """`separated_sequence` by filtering the records and taking each
    member's gap as the least distance to every other record."""
    births = range(2, max(2, j_max) + 1)
    table = enumerate_spectrum(6.0 * eigenvalue_limit(6, births[-1]))
    records = [
        r for r in table.records
        if r.series == 6 and r.branches == (EXPANDING,) and r.birth in births
    ]
    gaps = []
    for rec in records:
        others = [
            abs(other.value - rec.value)
            for other in table.records
            if other.key != rec.key
        ]
        gaps.append(min(others))
    return SeparatedFamily(records=tuple(records), gaps=tuple(gaps))


def nonlocalized_remainder(vectors, records, m: int, k: int) -> Remainder:
    """The remainder at cell level k of each whole level-m eigenspace of
    `records`, whose vectors lie side by side in `vectors` in that order, read off its
    vectors by `eigenspace_remainder`, side by side in the same order."""
    starts = np.cumsum([0] + [rec.multiplicity for rec in records])
    parts = [
        eigenspace_remainder(
            EigenspaceBundle(m, rec, 0.0, vectors[:, a:b]), k
        )
        for rec, a, b in zip(records, starts, starts[1:])
    ]
    return Remainder(
        columns=np.hstack([p.columns for p in parts]),
        dims=[p.dims[0] for p in parts],
        per_cell=[p.per_cell[0] for p in parts],
        records=list(records),
    )


def trace_power(matrix, k: int) -> float:
    """Trace of the k-th power of a dense compressed matrix."""
    if k < 0:
        raise DomainError(f"power must be nonnegative, got {k}")
    dim = matrix.shape[0]
    if k == 0:
        return float(dim)
    acc = np.eye(dim)
    for _ in range(k):
        acc = acc @ matrix
    return float(np.trace(acc))


def load_bundle(path) -> EigenspaceBundle:
    """The bundle `eigenbasis.save_bundle` wrote to `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].lstrip("# ").split(",")
    series, birth, branches = header[3].split(":")
    return EigenspaceBundle(
        level=int(header[1]),
        record=decimation.make_record(int(series), int(birth), tuple(branches)),
        graph_value=float(header[5]),
        vectors=np.column_stack(
            [np.array([float(x) for x in line.split(",")]) for line in lines[1:]]
        ),
    )


def reference_edges(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges (x, y) between interior rows: each side of every cell
    in both directions, read from the cells array alone."""
    corners = vertices.rows[vertices.cells]
    sides = corners[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    sides = np.concatenate([sides, sides[:, ::-1]])
    sides = sides[(sides < vertices.n_interior).all(axis=1)]
    return sides[:, 0], sides[:, 1]


def newborn_block(m: int, series: int) -> np.ndarray:
    """The whole 5- or 6-eigenspace born at level m, weighted-orthonormal,
    from exact spanning sets and the inverse Cholesky factor of their Gram
    matrix (`_newborn_five`, `_newborn_six`)."""
    ref = eigenbasis._refinement(m)
    out = np.empty((ref.n, series_multiplicity(series, m)))
    build = _newborn_five if series == 5 else _newborn_six
    build(ref, eigenbasis.interior_weight(m), out)
    return out


def _inverse_cholesky(gram: np.ndarray) -> None:
    """Overwrite the positive definite `gram` with L^-1, where L L^T = gram.

    For vectors E with Gram matrix `gram`, the columns of E L^-T are
    orthonormal.  The Cholesky factor and its inverse are both formed block
    column by block column in place, so no other d x d array is made.
    """
    passes = eigenbasis._passes(gram.shape[0], gram.shape[0], eigenbasis._GEMM_WIDTH)
    for cols in passes:
        j0, j1 = cols.start, cols.stop
        panel = gram[j0:, cols]
        panel -= gram[j0:, :j0] @ gram[cols, :j0].T
        try:
            diag = np.linalg.cholesky(panel[: j1 - j0])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"spanning vectors are dependent: {exc}") from exc
        panel[j1 - j0 :] = panel[j1 - j0 :] @ np.linalg.inv(diag).T
        panel[: j1 - j0] = diag
        gram[cols, j1:] = 0.0
    for cols in reversed(passes):
        j1 = cols.stop
        diag_inv = np.linalg.inv(gram[cols, cols])
        gram[j1:, cols] = -(gram[j1:, j1:] @ gram[j1:, cols]) @ diag_inv
        gram[cols, cols] = diag_inv


def _newborn_six(ref, w: float, out: np.ndarray) -> None:
    """The 6-eigenspace born at level m, weighted-orthonormal, into `out`.

    Any values on the level-(m-1) interior extend at lam = 6, where
    u(z) = (u(w) - u(x) - u(y)) / 2.  The extensions of the unit vectors
    have the exact Gram matrix (L + 6 I) / 4, L the level-(m-1) Dirichlet
    Laplacian; the extensions of the columns of L^-T of its Cholesky factor
    are orthonormal.
    """
    d = ref.n_prev
    if d != out.shape[1]:
        raise MismatchError(
            f"the newborn 6-series eigenspace has dimension {d}, decimation "
            f"predicts {out.shape[1]}"
        )
    neighbours = build_vertices(ref.level - 1).neighbours
    rows, sides = np.nonzero(neighbours < d)
    gram = np.eye(d)
    gram *= 2.5
    gram[rows, neighbours[rows, sides]] = -0.25
    _inverse_cholesky(gram)
    gram *= 1.0 / np.sqrt(w)
    eigenbasis._extend(ref, gram.T, 6.0, out)


def _newborn_five(ref, w: float, out: np.ndarray) -> None:
    """The 5-eigenspace born at level m, weighted-orthonormal, into `out`.

    Its vectors vanish on the level-(m-1) vertices.  The eigen-equation at
    an interior old vertex x says that the two midpoints opposite x, one in
    each cell containing x, carry opposite values y_x; a boundary corner's
    opposite midpoint carries a free value.  At a midpoint it says that each
    cell's three midpoints sum to zero.  So y is a circulation on the cell
    graph (`_cell_graph`): one cycle per edge outside a breadth-first
    spanning tree is a basis, with entries -1, 0 and 1 and an exact Gram
    matrix.
    """
    n_cells, var, sign, tail, head, multiplicity = _cell_graph(ref)
    n_edges = tail.size
    ends = [[] for _ in range(n_cells + 1)]
    for e, (a, b) in enumerate(zip(tail.tolist(), head.tolist())):
        ends[a].append((e, b))
        ends[b].append((e, a))
    up = {n_cells: None}  # node -> edge to its parent in the tree
    order = [n_cells]
    for node in order:
        for e, other in ends[node]:
            if other not in up:
                up[other] = e
                order.append(other)
    in_tree = np.zeros(n_edges, dtype=bool)
    in_tree[[up[v] for v in order[1:]]] = True
    cycles = np.nonzero(~in_tree)[0]
    dim = cycles.size
    if len(order) != n_cells + 1 or dim != out.shape[1]:
        raise MismatchError(
            f"the newborn 5-series eigenspace has dimension {dim} on "
            f"{len(order) - 1} of {n_cells} cells, decimation predicts "
            f"{out.shape[1]}"
        )

    # unit flow on each cycle edge; tree edges cancel the net outflow of
    # every cell, leaves first
    y = np.zeros((n_edges, dim))
    y[cycles, np.arange(dim)] = 1.0
    net = np.zeros((n_cells + 1, dim))
    net[tail[cycles], np.arange(dim)] += 1.0
    net[head[cycles], np.arange(dim)] -= 1.0
    for node in reversed(order[1:]):
        e = up[node]
        if tail[e] == node:
            y[e] = -net[node]
            net[head[e]] += net[node]
        else:
            y[e] = net[node]
            net[tail[e]] += net[node]

    gram = y.T @ (multiplicity[:, None] * y)
    _inverse_cholesky(gram)
    gram *= 1.0 / np.sqrt(w)
    out[ref.old] = 0.0
    out[ref.mid] = sign[:, None] * (y @ gram.T)[var]


def _cell_graph(ref):
    """The graph whose circulations are the 5-eigenspace born at level
    `ref.level`: (n_cells, var, sign, tail, head, multiplicity).

    Its nodes are the level-(m-1) cells plus a ground node, `n_cells`; its
    edges are the interior old vertices, then one per boundary corner, each
    joining the cells that contain it (a boundary corner joins its cell to
    the ground).  Midpoint i, cell-major like `_Refinement.mid`, lies in
    cell i // 3 opposite the corner of edge `var[i]`, and carries `sign[i]`
    times that edge's flow: +1 in the edge's first cell, its `tail`, and -1
    in its other, its `head`.  `multiplicity` counts the midpoints of each
    edge, so that it is the plain Gram matrix of the map from flows to
    midpoint values.
    """
    n_cells = ref.mid.size // 3
    var = ref.opp.copy()
    corners = np.nonzero(var == ref.n_prev)[0]
    var[corners] = ref.n_prev + np.arange(corners.size)
    n_edges = ref.n_prev + corners.size
    first = np.zeros(var.size, dtype=bool)
    first[np.unique(var, return_index=True)[1]] = True
    tail = np.empty(n_edges, dtype=np.int64)
    head = np.full(n_edges, n_cells)  # the ground node
    tail[var[first]] = np.nonzero(first)[0] // 3
    head[var[~first]] = np.nonzero(~first)[0] // 3
    multiplicity = np.bincount(var, minlength=n_edges).astype(float)
    return n_cells, var, np.where(first, 1.0, -1.0), tail, head, multiplicity
