"""Symbols, compressed operators, matrix functional calculus, spectrum maps.

A symbol is its fields, q(lam), a potential chi or a table of potentials,
and acts on the eigenspace of lam_n as multiplication by q(lam_n) + chi_n
(`SymbolSpec.on_eigenspace`), so in an eigenbasis the compressed operator
P p(x, -Delta) P has column blocks assembled per eigenspace, then
symmetrized.  Integrals against the measure are weighted vertex sums, which
are exact for products of simple functions with vectors localized at the
same cell level; so every localized vector is an exact eigenvector, and
only the non-localized remainder is assembled, taken from
`eigenbasis.level_remainder`, or for a chi simple at a cell level k < m
from the level's cached cell Grams as sum_C chi_C G_C.  A selection is its
level and the records of its whole eigenspaces, with no columns and no
measure; the vertex set is read only for a chi, or by `spectral_bounds`
for a function limit.  A callable chi, and a chi simple at level m, compress at cell level m, where
nothing localizes: the remainder is the whole n x n basis.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import decimation, eigenbasis
from .decimation import EigenvalueRecord, SpectrumTable
from .errors import ConvergenceError, DomainError, StructuralError
from .eigenbasis import EigenspaceBundle, LevelBasis
from .gasket import (
    SimpleFunction,
    VertexSet,
    build_vertices,
    effective_multiplier,
    vertex_values,
)
from .serialize import write_csv, write_json

SYMMETRY_TOL = 1e-12
BLOCK_TOL = 1e-10
LOOKUP_RTOL = 1e-9


@dataclass
class SymbolSpec:
    """A symbol p(x, lam) with optional declared limit and lower bound.

    Its shape is its fields: q(lam) = `p_lambda` (0 when None) plus the
    potential `chi` (none when None), or, when `entries` is non-empty, a
    table of one simple function per eigenvalue.  limit_q, when declared,
    may be a scalar, a SimpleFunction, or a callable on planar coordinates.
    """

    name: str
    p_lambda: Callable[[float], float] | None = None
    chi: object = None
    entries: tuple = ()
    limit_q: object = None
    lower_bound: float | None = None

    def on_eigenspace(self, lam: float) -> tuple[float, object]:
        """(q(lam), chi_lam): on the eigenspace of lam the symbol is
        multiplication by q(lam) + chi_lam, with chi_lam None when absent.
        A tabulated symbol is its entry for lam, with q = 0."""
        if self.entries:
            i = bisect.bisect_left(self.entries, lam, key=lambda e: e[0])
            for elam, f in self.entries[max(i - 1, 0) : i + 1]:
                if _same_eigenvalue(elam, lam):
                    return 0.0, f
            raise DomainError(f"tabulated symbol has no entry for eigenvalue {lam}")
        return (self.p_lambda(lam) if self.p_lambda else 0.0), self.chi


def _same_eigenvalue(entry: float, lam: float) -> bool:
    return abs(entry - lam) <= LOOKUP_RTOL * max(1.0, abs(lam))


def _decaying_symbol(name: str, beta: float, p) -> SymbolSpec:
    """p(lam), decaying to its limit and lower bound 1."""
    if beta <= 0:
        raise DomainError(f"{name} exponent must be positive, got {beta}")
    return SymbolSpec(
        name=f"{name}(beta={beta:g})", p_lambda=p, limit_q=1.0, lower_bound=1.0
    )


def riesz_symbol(beta: float) -> SymbolSpec:
    return _decaying_symbol("riesz", beta, lambda lam: 1.0 + lam ** (-beta))


def bessel_symbol(beta: float) -> SymbolSpec:
    return _decaying_symbol("bessel", beta, lambda lam: 1.0 + (1.0 + lam) ** (-beta))


def constant_symbol(
    p: Callable[[float], float],
    limit: float | None = None,
    lower_bound: float | None = None,
    name: str = "constant",
) -> SymbolSpec:
    return SymbolSpec(name=name, p_lambda=p, limit_q=limit, lower_bound=lower_bound)


def multiplication_symbol(f) -> SymbolSpec:
    lower = f.min_value if isinstance(f, SimpleFunction) else None
    return SymbolSpec(
        name="multiplication",
        chi=f,
        limit_q=f,
        lower_bound=lower,
    )


def separable_symbol(
    q_lambda: Callable[[float], float],
    limit: float,
    chi,
    lower_bound: float | None = None,
    name: str = "separable",
) -> SymbolSpec:
    if isinstance(chi, SimpleFunction):
        limit_q = chi.shifted(limit)
    elif limit == 0.0:
        limit_q = chi
    else:
        limit_q = lambda x, y, _chi=chi, _l=limit: _l + np.asarray(_chi(x, y))
    return SymbolSpec(
        name=name,
        p_lambda=q_lambda,
        chi=chi,
        limit_q=limit_q,
        lower_bound=lower_bound,
    )


def tabulated_symbol(entries, limit_q=None, lower_bound=None) -> SymbolSpec:
    """p(x, lam) = f_lam(x), one SimpleFunction f_lam per eigenvalue lam.

    No entries, and two eigenvalues that one lookup cannot tell apart, raise
    DomainError.  Without a declared lower bound, it is the least value of
    any entry.
    """
    entries = tuple(sorted(((float(l), f) for l, f in entries), key=lambda e: e[0]))
    if not entries:
        raise DomainError("tabulated symbol has no entries")
    for lam, f in entries:
        if not isinstance(f, SimpleFunction):
            raise DomainError(f"entry for eigenvalue {lam} is not a simple function")
    for (a, _), (b, _) in zip(entries, entries[1:]):
        if _same_eigenvalue(a, b):
            raise DomainError(f"entries {a!r} and {b!r} name one eigenvalue")
    if lower_bound is None:
        lower_bound = min(f.min_value for _, f in entries)
    return SymbolSpec(
        name="tabulated",
        entries=entries,
        limit_q=limit_q,
        lower_bound=lower_bound,
    )


_MAKERS = {"riesz": riesz_symbol, "bessel": bessel_symbol}


def make_symbol(kind: str, **params) -> SymbolSpec:
    if kind not in _MAKERS:
        raise DomainError(f"unknown symbol kind {kind!r}")
    return _MAKERS[kind](**params)


def symbol_vertex_values(
    symbol: SymbolSpec, lam: float, vertices: VertexSet
) -> np.ndarray:
    """Pointwise samples of p(., lam) at the vertices."""
    q, chi = symbol.on_eigenspace(lam)
    values = np.full(vertices.n_vertices, float(q))
    if chi is not None:
        values += vertex_values(chi, vertices)
    return values


def limit_range(limit_q, vertices: VertexSet | None) -> tuple[float, float]:
    """(min, max) of a limit; `vertices` is read only for a callable one."""
    if isinstance(limit_q, (int, float)):
        return float(limit_q), float(limit_q)
    if isinstance(limit_q, SimpleFunction):
        return limit_q.min_value, limit_q.max_value
    vals = vertex_values(limit_q, vertices)
    return float(np.min(vals)), float(np.max(vals))


def symbol_sup_distance(
    symbol: SymbolSpec, lam: float, vertices: VertexSet | None
) -> float:
    """Sampled sup distance between p(., lam) and the declared limit.

    With no potential on lam's eigenspace and a scalar limit, every vertex
    samples |q(lam) - limit|, and `vertices` is not read."""
    if symbol.limit_q is None:
        raise DomainError(f"symbol {symbol.name} declares no uniform limit")
    q, chi = symbol.on_eigenspace(lam)
    limit = symbol.limit_q
    if not isinstance(limit, (int, float)):
        limit = vertex_values(limit, vertices)
    elif chi is None:
        return float(abs(float(q) - limit))
    return float(np.max(np.abs(symbol_vertex_values(symbol, lam, vertices) - limit)))


@dataclass
class BasisSelection:
    """An ordered list of whole level-m eigenspaces, named by their records;
    eigenspace i fills `dims[i]` consecutive columns of a compression."""

    level: int
    records: list[EigenvalueRecord]

    @property
    def dims(self) -> list[int]:
        return [rec.multiplicity for rec in self.records]

    @property
    def dim(self) -> int:
        return sum(self.dims)

    @property
    def lambdas(self) -> np.ndarray:
        return np.repeat([rec.value for rec in self.records], self.dims)

    @property
    def vertices(self) -> VertexSet:
        return build_vertices(self.level)


def selection_from_bundles(bundles: list[EigenspaceBundle]) -> BasisSelection:
    """The selection of the bundles' eigenspaces, in their order; each
    bundle must hold its whole eigenspace."""
    if not bundles:
        raise DomainError("empty eigenbasis selection")
    level = bundles[0].level
    if any(b.level != level for b in bundles):
        raise StructuralError("mixed graph levels in one basis selection")
    for b in bundles:
        if b.dim != b.record.multiplicity:
            raise StructuralError(
                f"eigenspace {b.record.key}: {b.dim} of its "
                f"{b.record.multiplicity} vectors selected; a compression "
                f"reduces over whole eigenspaces only"
            )
    return BasisSelection(level=level, records=[b.record for b in bundles])


def leading_selection(basis: LevelBasis, cutoff: float = math.inf) -> BasisSelection:
    """Every eigenspace with record value <= cutoff, in the record-value
    order of the level basis."""
    bundles = [b for b in basis.bundles if b.record.value <= cutoff]
    if not bundles:
        raise DomainError(f"no eigenvalues at or below cutoff {cutoff}")
    return selection_from_bundles(bundles)


@dataclass(eq=False)
class CompressedOperator:
    """A symbol compressed to an eigenbasis selection.

    Its spectrum is `atoms`, eigenvalues known exactly, together with the
    eigenvalues of the symmetric `remainder` block; `atom_lambdas` and
    `remainder_lambdas` give the eigenvalue lam of the eigenspace each atom
    and each remainder column comes from, one per dimension between them.
    """

    level: int
    asymmetry: float
    atoms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    atom_lambdas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    remainder: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    remainder_lambdas: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def dim(self) -> int:
        return self.atoms.size + self.remainder_lambdas.size

    def up_to(self, cutoff: float) -> "CompressedOperator":
        """The compression to the leading eigenspaces with lam <= cutoff.

        The atoms and the remainder columns must each come in ascending
        eigenvalue order, as they do for a leading selection: the result is
        the atoms below the cutoff and a leading block of the remainder.  Any
        other order raises DomainError.
        """
        lams = (self.atom_lambdas, self.remainder_lambdas)
        if any(np.any(np.diff(v) < 0) for v in lams):
            raise DomainError("up_to needs eigenspaces in ascending eigenvalue order")
        a, r = (int(np.searchsorted(v, cutoff, side="right")) for v in lams)
        return CompressedOperator(
            level=self.level,
            asymmetry=self.asymmetry,
            atoms=self.atoms[:a],
            atom_lambdas=self.atom_lambdas[:a],
            remainder=self.remainder[:r, :r],
            remainder_lambdas=self.remainder_lambdas[:r],
        )


def _symmetrized(
    raw: np.ndarray, what: str = "compressed operator"
) -> tuple[np.ndarray, float]:
    asym = float(np.max(np.abs(raw - raw.T))) if raw.size else 0.0
    if asym > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(raw), initial=0.0))):
        raise StructuralError(f"{what} asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (raw + raw.T), asym


def eigenspace_runs(symbol: SymbolSpec, records) -> tuple[np.ndarray, list]:
    """q(lam) of each eigenspace, and the runs of consecutive eigenspaces
    whose chi_lam is one object, as [chi, first, stop] over their indices."""
    q, runs = [], []
    for i, rec in enumerate(records):
        qi, chi = symbol.on_eigenspace(rec.value)
        q.append(qi)
        if runs and runs[-1][0] is chi:
            runs[-1][2] = i + 1
        else:
            runs.append([chi, i, i + 1])
    return np.array(q, dtype=float), runs


def _block(raw: np.ndarray, q, dims) -> tuple[np.ndarray, float]:
    """diag(q) + raw, symmetrized, and the asymmetry norm of raw."""
    block, asym = _symmetrized(raw)
    block[np.diag_indices_from(block)] += np.repeat(q, dims)
    return block, asym


def _product_block(
    q, runs, columns: np.ndarray, dims, m: int
) -> tuple[np.ndarray, float]:
    """diag(q) + U^T [chi] U over level-m columns U, symmetrized, and its
    asymmetry norm.  Eigenspace i has dims[i] columns, and each run of
    eigenspaces is multiplied by its chi, read on the vertices, in one product."""
    starts = np.cumsum([0] + list(dims))
    raw = np.zeros((starts[-1], starts[-1]))
    for chi, first, stop in runs:
        if chi is not None:
            vertices = build_vertices(m)
            g = effective_multiplier(chi, vertices)[vertices.interior]
            a, b = starts[first], starts[stop]
            np.matmul(columns.T, g[:, None] * columns[:, a:b], out=raw[:, a:b])
    return _block(raw, q, dims)


def _cell_gram(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Q^T diag(g) Q over the rows of Q where g is nonzero."""
    return rows.T @ (g[:, None] * rows)


def cell_grams(columns: np.ndarray, vertices: VertexSet, k: int) -> np.ndarray:
    """G_C = Q^T [1_C] Q for every k-cell C, in word order, over the interior
    columns Q of `vertices`' level.

    [1_C] is the effective multiplier of C's indicator, nonzero only on C's
    rows and its interior corners, so each Gram is one product over those
    rows.  Each is symmetrized and held to SYMMETRY_TOL; the Grams are
    read-only.
    """
    grams = np.empty((3**k, columns.shape[1], columns.shape[1]))
    for c, indicator in enumerate(np.eye(3**k)):
        g = effective_multiplier(SimpleFunction(k, indicator), vertices)
        g = g[vertices.interior]
        rows = np.flatnonzero(g)
        grams[c] = _symmetrized(_cell_gram(columns[rows], g[rows]), "cell Gram")[0]
    grams.flags.writeable = False
    return grams


def _gram_block(q, runs, grams: np.ndarray, dims, k: int) -> tuple[np.ndarray, float]:
    """diag(q) + sum_C chi_C G_C over the cell Grams of the selected columns,
    as `_product_block` gives it: each run of eigenspaces reads its own
    columns of the Grams, weighted by its chi on the k-cells."""
    starts = np.cumsum([0] + list(dims))
    raw = np.zeros((starts[-1], starts[-1]))
    for chi, first, stop in runs:
        if chi is not None:
            a, b = starts[first], starts[stop]
            for value, gram in zip(chi.refined(k), grams):
                raw[:, a:b] += value * gram[:, a:b]
    return _block(raw, q, dims)


@functools.lru_cache(maxsize=8)
def _level_grams(m: int, k: int) -> tuple[eigenbasis.Remainder, np.ndarray] | None:
    """The cell Grams of `level_remainder(m, k)` for 0 < k < m, with its
    layout (dims, per_cell and records, no rows), cached in place of its
    columns; None where the 3^k R x R Grams would outgrow the n x R
    columns, 3^k R > n."""
    n = decimation.interior_dimension(m)
    if 3**k * eigenbasis.remainder_width(m, k) > n:
        return None
    # the walk is not cached: the process holds the Grams, never the columns
    # next to them
    rem = eigenbasis.walk_remainder(m, k)
    grams = cell_grams(rem.columns, build_vertices(m), k)
    layout = eigenbasis.Remainder(
        columns=np.empty((0, grams.shape[1])),
        dims=rem.dims,
        per_cell=rem.per_cell,
        records=rem.records,
    )
    return layout, grams


def _level_data(m: int, k: int) -> tuple[eigenbasis.Remainder, np.ndarray | None]:
    """What a compression at cell level k reads of level m, built once and
    cached: the layout and cell Grams of `_level_grams`, or else
    `level_remainder(m, k)` and None."""
    cached = _level_grams(m, k) if 0 < k < m else None
    return cached if cached is not None else (eigenbasis.level_remainder(m, k), None)


def prepare_compression(symbol: SymbolSpec, m: int) -> None:
    """Build and cache what every compression of `symbol` at level m reads:
    the remainder columns or cell Grams at the cell level of its potential.
    A tabulated symbol's cell level depends on the eigenspaces selected, and
    a chi finer than the level is refused by the compression itself, so for
    those nothing is built here."""
    k = _cell_level(symbol.chi, m)
    if not symbol.entries and k <= m:
        _level_data(m, k)


def compress(symbol: SymbolSpec, basis: BasisSelection) -> CompressedOperator:
    """Gamma(a,b) = weighted vertex sum of p(x, lam_b) u_a(x) u_b(x).

    The basis is orthonormal in the measure-weighted inner product and
    interior vertices share one weight, so a symbol q(lam) + chi_lam
    compresses to diag(q(lam)) + U^T [chi_lam] U over whole eigenspaces,
    each eigenspace's potential acting on its own columns.  That product is
    never formed: with k the cell level of the potentials (the largest level
    of a simple chi_lam, 0 when chi is absent, m for a callable chi), a
    vector localized in a k-cell C is an exact eigenvector of any potential
    simple at level k, an atom q(lam) + chi_lam(C), m_{j,k} per cell, and
    only the non-localized remainder Q of each eigenspace gives a block,
    diag(q) + Q^T [chi_lam] Q.  Q is `eigenbasis.level_remainder(m, k)`: no
    columns at k = 0, where every vector is an atom at q(lam), and at k = m,
    where nothing localizes, the whole eigenspaces, so a callable chi gives
    no atoms and its remainder is the whole matrix.  For 0 < k < m, a chi
    simple at level k gives Q^T [chi] Q = sum_C chi_C G_C over the k-cells,
    with G_C = Q^T [1_C] Q the cell Grams (`cell_grams`); where the 3^k
    Grams are no larger than the n x R columns they stand for (3^k R <= n:
    k = 1 from m = 5 on), they are built at the first such compression of
    the level (or by `prepare_compression`) and cached in place of the
    columns, and every later compression is that sum, sliced to the
    selection, for each run of eigenspaces sharing one chi.  Otherwise the
    block is one product over Q per run (`_product_block`).  A selection only names eigenspaces;
    any orthonormal columns spanning them give the same operator.  The
    localized-trace identity that cross-checks Q against whole eigenspaces
    is `localized_trace_margin`, which `validate` runs on the remainder its
    walk carries beside each whole eigenspace, bit for bit Q's block.
    """
    m, lams = basis.level, np.array([rec.value for rec in basis.records])
    q, runs = eigenspace_runs(symbol, basis.records)
    k = max(_cell_level(chi, m) for chi, _, _ in runs)
    # each eigenspace's chi on the k-cells, in word order
    cell_values = np.repeat(
        [_cell_values(chi, k) for chi, _, _ in runs],
        [stop - first for _, first, stop in runs],
        axis=0,
    )
    rem, grams = _level_data(m, k)
    if grams is None:
        rem = rem.select(basis.records)
        block, asym = _product_block(q, runs, rem.columns, rem.dims, m)
    else:
        rem, cols = rem.select(basis.records), rem.column_index(basis.records)
        block, asym = _gram_block(q, runs, grams[:, cols][:, :, cols], rem.dims, k)
    per_atom = np.repeat(rem.per_cell, cell_values.shape[1])
    return CompressedOperator(
        level=basis.level,
        asymmetry=asym,
        atoms=np.repeat((q[:, None] + cell_values).ravel(), per_atom),
        atom_lambdas=np.repeat(np.repeat(lams, cell_values.shape[1]), per_atom),
        remainder=block,
        remainder_lambdas=np.repeat(lams, rem.dims),
    )


def _cell_level(chi, m: int) -> int:
    """The cell level at which chi compresses: 0 when absent, its own level
    when simple, m when callable."""
    if chi is None:
        return 0
    return chi.level if isinstance(chi, SimpleFunction) else m


def _cell_values(chi, k: int) -> np.ndarray:
    """chi on the k-cells in word order; a callable chi, compressed at k = m
    where no vector is an atom, needs none."""
    if chi is None:
        return np.zeros(3 ** k)
    return chi.refined(k) if isinstance(chi, SimpleFunction) else np.zeros(0)


def level_basis_for(m: int, basis=None) -> LevelBasis:
    """`basis`, which must be of level m, or else the cached level-m basis."""
    if basis is not None:
        if basis.level != m:
            raise DomainError(f"basis of level {basis.level} given for level m = {m}")
        return basis
    return eigenbasis.level_basis(m)


def localized_trace_margin(
    chi: SimpleFunction, bundle: EigenspaceBundle, remainder: eigenbasis.Remainder
) -> float:
    """Check a remainder at chi's cell level against one whole eigenspace.

    `remainder` holds the eigenspace's remainder at cell level chi.level
    (its own, or a level's, from which its columns are selected).  The
    trace of [chi] over the eigenspace's vectors less its trace over the
    remainder is the localized part: `per_cell` vectors in each cell C,
    each an eigenvector at chi_C, so it must equal `per_cell` times the sum
    of the cell values.  Returns the deviation over its tolerance
    BLOCK_TOL * d * max(1, sup|chi|), and raises StructuralError above 1.
    """
    rec, cols = bundle.record, bundle.require_vectors()
    rem = remainder.select([rec])
    g = effective_multiplier(chi, bundle.vertices)[bundle.vertices.interior]
    localized = np.sum(np.einsum("i,ij,ij->j", g, cols, cols)) - np.sum(
        np.einsum("i,ij,ij->j", g, rem.columns, rem.columns)
    )
    c = rem.per_cell[0]
    dev = abs(float(localized) - c * math.fsum(chi.values))
    tol = BLOCK_TOL * cols.shape[1] * max(1.0, chi.sup_norm)
    if dev > tol:
        raise StructuralError(
            f"eigenspace {rec.key}: the localized trace of the potential "
            f"misses {c} times the sum of its cell values by {dev:.3e}"
        )
    return dev / tol


def operator_eigenvalues(op: CompressedOperator) -> np.ndarray:
    """Ascending eigenvalues: the atoms merged with those of the remainder."""
    if op.remainder.size == 0:
        return np.sort(op.atoms)
    return np.sort(np.concatenate([op.atoms, np.linalg.eigvalsh(op.remainder)]))


def _spectrum_parts(op: CompressedOperator):
    """The distinct atom values, ascending, with their counts, and the
    ascending eigenvalues of the remainder."""
    values, counts = np.unique(op.atoms, return_counts=True)
    if op.remainder.size == 0:
        return values, counts, np.zeros(0)
    return values, counts, np.linalg.eigvalsh(op.remainder)


def _spectral_sum(F: Callable[[float], float], values, counts, rest) -> float:
    """The sum of F over the spectrum, exactly rounded by math.fsum as over
    each eigenvalue, with F evaluated once per distinct atom value, repeated
    by its count, and once per remainder eigenvalue."""
    atoms = (itertools.repeat(F(v), c) for v, c in zip(values.tolist(), counts.tolist()))
    return math.fsum(itertools.chain(*atoms, map(F, rest.tolist())))


def trace_F(op: CompressedOperator, F: Callable[[float], float]) -> float:
    """Trace of F applied to the operator through its eigenvalues."""
    return _spectral_sum(F, *_spectrum_parts(op))


def log_det(op: CompressedOperator) -> float:
    """Sum of the logs of the eigenvalues; 0.0, the empty sum, for an empty
    operator."""
    values, counts, rest = _spectrum_parts(op)
    lowest = np.concatenate([values[:1], rest[:1]])
    if lowest.size and np.min(lowest) <= 0.0:
        raise DomainError(
            f"log-determinant needs a positive-definite operator; smallest "
            f"eigenvalue is {np.min(lowest)!r}"
        )
    return _spectral_sum(math.log, values, counts, rest)


@dataclass
class SpectralBounds:
    """Interval [A, B] containing every compressed-operator eigenvalue."""

    A: float
    B: float
    lambda_bar: float
    epsilon: float


def spectral_bounds(
    symbol: SymbolSpec,
    table: SpectrumTable,
    epsilon: float,
    basis: BasisSelection,
) -> SpectralBounds:
    """Bounds from the declared limit: beyond lambda-bar the symbol is within
    epsilon of q, and the finite head below lambda-bar is diagonalized.

    The selection is compressed once, whole, and the head is read from it
    with `up_to(lambda_bar)`, so its eigenspaces must be in ascending order,
    and the symbol must be defined on every one of them.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if symbol.limit_q is None:
        raise DomainError(f"symbol {symbol.name} declares no uniform limit")
    values = table.value.tolist()
    if not values:
        raise DomainError("empty spectrum table")
    # the vertex set is sampled only when the symbol or its limit is a function
    plain = symbol.chi is None and not symbol.entries
    plain = plain and isinstance(symbol.limit_q, (int, float))
    vertices = None if plain else basis.vertices
    dists = [symbol_sup_distance(symbol, v, vertices) for v in values]
    if dists[-1] >= epsilon:
        raise ConvergenceError(
            f"sampled sup-distance to the declared limit is still "
            f"{dists[-1]:.3e} >= {epsilon} at the top of the table; the "
            f"declared limit fails empirically"
        )
    cut = next(
        i for i in range(len(values)) if all(d < epsilon for d in dists[i + 1 :])
    )
    lambda_bar = values[cut]
    sigma = operator_eigenvalues(compress(symbol, basis).up_to(lambda_bar))
    if sigma.size:
        head_lo, head_hi = float(sigma[0]), float(sigma[-1])
    else:
        head_lo, head_hi = math.inf, -math.inf
    qmin, qmax = limit_range(symbol.limit_q, vertices)
    return SpectralBounds(
        A=min(qmin - epsilon, head_lo),
        B=max(qmax + epsilon, head_hi),
        lambda_bar=lambda_bar,
        epsilon=epsilon,
    )


def spectrum_map(p: Callable[[float], float], table: SpectrumTable) -> np.ndarray:
    """Sorted image of the spectrum under p, expanded by multiplicity."""
    image = [p(v) for v in table.value.tolist()]
    return np.sort(np.repeat(image, table.multiplicity))


def operator_to_csv(
    symbol: SymbolSpec, bundle: EigenspaceBundle, path, sidecar_path
) -> None:
    """Write the compression of `symbol` to one whole eigenspace as the
    dense matrix diag(q) + U^T [chi] U over the bundle's own columns U, with
    a sidecar holding its level, column keys, eigenvalue per column and the
    asymmetry of the written matrix."""
    vectors = bundle.require_vectors()
    sel = selection_from_bundles([bundle])
    q, runs = eigenspace_runs(symbol, sel.records)
    # a contiguous copy: the product's last digits depend on the layout
    matrix, asym = _product_block(q, runs, np.hstack([vectors]), sel.dims, sel.level)
    write_csv(
        path,
        tuple(f"c{i}" for i in range(sel.dim)),
        (tuple(float(x) for x in row) for row in matrix),
    )
    write_json(
        sidecar_path,
        {
            "level": sel.level,
            "keys": [[bundle.record.key, i] for i in range(sel.dim)],
            "lambda_assignment": [float(x) for x in sel.lambdas],
            "asymmetry": asym,
        },
    )
