"""Symbols, compressed operators, matrix functional calculus, spectrum maps.

A symbol acts on the eigenspace of lam_n as multiplication by q(lam_n) +
chi_n, a number and a potential (`SymbolSpec.on_eigenspace`), so in an
eigenbasis the compressed operator P p(x, -Delta) P has column blocks
assembled per eigenspace, then symmetrized.  Integrals against the measure
are weighted vertex sums, which are exact for products of simple functions
with vectors localized at the same cell level; so when every chi_n is absent
or simple, every localized vector is an exact eigenvector and only the
non-localized remainder is assembled, taken from `eigenbasis.level_remainder`
rather than from the selection's columns, which such a compression never
reads; only a callable chi keeps the dense product over the columns of the
n x n level basis.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import eigenbasis
from .decimation import EigenvalueRecord, SpectrumTable
from .errors import ColumnsError, ConvergenceError, DomainError, StructuralError
from .eigenbasis import EigenspaceBundle, LevelBasis
from .gasket import (
    SelfSimilarMeasure,
    SimpleFunction,
    VertexSet,
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

    kind is one of "constant" (pure function of lam), "multiplication"
    (pure function of x), "separable" (q(lam) + chi(x)) or "tabulated"
    (a simple function per eigenvalue).  limit_q, when declared, may be a
    scalar, a SimpleFunction, or a callable on planar coordinates.
    """

    kind: str
    name: str
    p_lambda: Callable[[float], float] | None = None
    chi: object = None
    entries: tuple = ()
    limit_q: object = None
    lower_bound: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "multiplication", "separable", "tabulated"):
            raise DomainError(f"unknown symbol kind {self.kind!r}")

    def on_eigenspace(self, lam: float) -> tuple[float, object]:
        """(q(lam), chi_lam): on the eigenspace of lam the symbol is
        multiplication by q(lam) + chi_lam, with chi_lam None when absent.
        A tabulated symbol is its entry for lam, with q = 0."""
        if self.kind == "tabulated":
            i = bisect.bisect_left(self.entries, lam, key=lambda e: e[0])
            for elam, f in self.entries[max(i - 1, 0) : i + 1]:
                if _same_eigenvalue(elam, lam):
                    return 0.0, f
            raise DomainError(f"tabulated symbol has no entry for eigenvalue {lam}")
        return (self.p_lambda(lam) if self.p_lambda else 0.0), self.chi


def _same_eigenvalue(entry: float, lam: float) -> bool:
    return abs(entry - lam) <= LOOKUP_RTOL * max(1.0, abs(lam))


def riesz_symbol(beta: float) -> SymbolSpec:
    if beta <= 0:
        raise DomainError(f"riesz exponent must be positive, got {beta}")
    return SymbolSpec(
        kind="constant",
        name=f"riesz(beta={beta:g})",
        p_lambda=lambda lam: 1.0 + lam ** (-beta),
        limit_q=1.0,
        lower_bound=1.0,
    )


def bessel_symbol(beta: float) -> SymbolSpec:
    if beta <= 0:
        raise DomainError(f"bessel exponent must be positive, got {beta}")
    return SymbolSpec(
        kind="constant",
        name=f"bessel(beta={beta:g})",
        p_lambda=lambda lam: 1.0 + (1.0 + lam) ** (-beta),
        limit_q=1.0,
        lower_bound=1.0,
    )


def constant_symbol(
    p: Callable[[float], float],
    limit: float | None = None,
    lower_bound: float | None = None,
    name: str = "constant",
) -> SymbolSpec:
    return SymbolSpec(
        kind="constant", name=name, p_lambda=p, limit_q=limit, lower_bound=lower_bound
    )


def multiplication_symbol(f) -> SymbolSpec:
    lower = f.min_value if isinstance(f, SimpleFunction) else None
    return SymbolSpec(
        kind="multiplication",
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
        kind="separable",
        name=name,
        p_lambda=q_lambda,
        chi=chi,
        limit_q=limit_q,
        lower_bound=lower_bound,
    )


def tabulated_symbol(entries, limit_q=None, lower_bound=None) -> SymbolSpec:
    """p(x, lam) = f_lam(x), one SimpleFunction f_lam per eigenvalue lam.

    Two eigenvalues that one lookup cannot tell apart raise DomainError.
    Without a declared lower bound, it is the least value of any entry.
    """
    entries = tuple(sorted(((float(l), f) for l, f in entries), key=lambda e: e[0]))
    for lam, f in entries:
        if not isinstance(f, SimpleFunction):
            raise DomainError(f"entry for eigenvalue {lam} is not a simple function")
    for (a, _), (b, _) in zip(entries, entries[1:]):
        if _same_eigenvalue(a, b):
            raise DomainError(f"entries {a!r} and {b!r} name one eigenvalue")
    if lower_bound is None:
        lower_bound = min((f.min_value for _, f in entries), default=None)
    return SymbolSpec(
        kind="tabulated",
        name="tabulated",
        entries=entries,
        limit_q=limit_q,
        lower_bound=lower_bound,
    )


_MAKERS = {
    "riesz": lambda params: riesz_symbol(params["beta"]),
    "bessel": lambda params: bessel_symbol(params["beta"]),
}


def make_symbol(kind: str, **params) -> SymbolSpec:
    if kind not in _MAKERS:
        raise DomainError(f"unknown symbol kind {kind!r}")
    return _MAKERS[kind](params)


def symbol_vertex_values(
    symbol: SymbolSpec, lam: float, vertices: VertexSet
) -> np.ndarray:
    """Pointwise samples of p(., lam) at the vertices."""
    q, chi = symbol.on_eigenspace(lam)
    values = np.full(vertices.n_vertices, float(q))
    if chi is not None:
        values += vertex_values(chi, vertices)
    return values


def limit_range(limit_q, vertices: VertexSet) -> tuple[float, float]:
    if isinstance(limit_q, (int, float)):
        return float(limit_q), float(limit_q)
    if isinstance(limit_q, SimpleFunction):
        return limit_q.min_value, limit_q.max_value
    vals = vertex_values(limit_q, vertices)
    return float(np.min(vals)), float(np.max(vals))


def symbol_sup_distance(symbol: SymbolSpec, lam: float, vertices: VertexSet) -> float:
    """Sampled sup distance between p(., lam) and the declared limit."""
    if symbol.limit_q is None:
        raise DomainError(f"symbol {symbol.name} declares no uniform limit")
    q = symbol.limit_q
    if not isinstance(q, (int, float)):
        q = vertex_values(q, vertices)
    return float(np.max(np.abs(symbol_vertex_values(symbol, lam, vertices) - q)))


@dataclass
class BasisSelection:
    """An ordered subset of eigenbasis vectors, grouped by eigenspace.

    `columns` is None for a selection of a bare level basis: its eigenspaces
    are labelled but carry no vectors.
    """

    level: int
    vertices: VertexSet = field(repr=False)
    columns: np.ndarray | None = field(repr=False)
    records: list[EigenvalueRecord]
    group_slices: list[slice]
    keys: list[tuple[str, int]]

    @property
    def dim(self) -> int:
        return len(self.keys)

    @property
    def lambdas(self) -> np.ndarray:
        return np.repeat([rec.value for rec in self.records], self.dims)

    @property
    def dims(self) -> list[int]:
        return [sl.stop - sl.start for sl in self.group_slices]


def selection_from_bundles(bundles: list[EigenspaceBundle]) -> BasisSelection:
    """A selection of arbitrary bundles; their columns are copied side by side."""
    if not bundles:
        raise DomainError("empty eigenbasis selection")
    level = bundles[0].level
    if any(b.level != level for b in bundles):
        raise StructuralError("mixed graph levels in one basis selection")
    if any(b.vectors is None for b in bundles):
        return _grouped_selection(bundles, None)
    return _grouped_selection(bundles, np.hstack([b.vectors for b in bundles]))


def leading_selection(basis: LevelBasis, cutoff: float = math.inf) -> BasisSelection:
    """Every eigenspace with record value <= cutoff, without a copy.

    Bundles are in record-value order, so they form a prefix of the level
    basis and their columns are a leading column view of its matrix.
    """
    bundles = [b for b in basis.bundles if b.record.value <= cutoff]
    if not bundles:
        raise DomainError(f"no eigenvalues at or below cutoff {cutoff}")
    if basis.vectors is None:
        return _grouped_selection(bundles, None)
    dim = sum(b.dim for b in bundles)
    return _grouped_selection(bundles, basis.vectors[:, :dim])


def _grouped_selection(
    bundles: list[EigenspaceBundle], columns: np.ndarray | None
) -> BasisSelection:
    records, slices, keys = [], [], []
    start = 0
    for b in bundles:
        stop = start + b.dim
        records.append(b.record)
        slices.append(slice(start, stop))
        keys.extend((b.record.key, i) for i in range(b.dim))
        start = stop
    return BasisSelection(
        level=bundles[0].level,
        vertices=bundles[0].vertices,
        columns=columns,
        records=records,
        group_slices=slices,
        keys=keys,
    )


@dataclass(eq=False)
class CompressedOperator:
    """A symbol compressed to an eigenbasis selection.

    Its spectrum is `atoms`, eigenvalues known exactly, together with the
    eigenvalues of the symmetric `remainder` block; `atom_lambdas` and
    `remainder_lambdas` give the eigenvalue lam of the eigenspace each atom
    and each remainder column comes from.  `matrix`, the dense matrix in the
    order of the selection's columns, is formed only on request; a dense
    compression has no atoms, and its whole matrix is the remainder.
    """

    level: int
    keys: list[tuple[str, int]]
    lambda_assignment: np.ndarray
    asymmetry: float
    atoms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    atom_lambdas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    remainder: np.ndarray | None = None
    remainder_lambdas: np.ndarray | None = None
    dense: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.lambda_assignment)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.dense()

    def up_to(self, cutoff: float) -> "CompressedOperator":
        """The compression to the leading eigenspaces with lam <= cutoff.

        The selection must list its eigenspaces in ascending order, as a
        leading selection does: the result is the atoms below the cutoff and
        a leading block of the remainder.  Any other order raises DomainError.
        """
        if np.any(np.diff(self.lambda_assignment) < 0):
            raise DomainError("up_to needs eigenspaces in ascending eigenvalue order")
        d = int(np.searchsorted(self.lambda_assignment, cutoff, side="right"))
        a = int(np.searchsorted(self.atom_lambdas, cutoff, side="right"))
        r = int(np.searchsorted(self.remainder_lambdas, cutoff, side="right"))
        return CompressedOperator(
            level=self.level,
            keys=self.keys[:d],
            lambda_assignment=self.lambda_assignment[:d],
            asymmetry=self.asymmetry,
            atoms=self.atoms[:a],
            atom_lambdas=self.atom_lambdas[:a],
            remainder=self.remainder[:r, :r],
            remainder_lambdas=self.remainder_lambdas[:r],
            dense=lambda: self.matrix[:d, :d],
        )


def _symmetrized(raw: np.ndarray) -> tuple[np.ndarray, float]:
    asym = float(np.max(np.abs(raw - raw.T))) if raw.size else 0.0
    if asym > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(raw), initial=0.0))):
        raise StructuralError(
            f"compressed operator asymmetry {asym:.3e} exceeds tolerance"
        )
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


def _product_block(
    q, runs, columns: np.ndarray, dims, measure: SelfSimilarMeasure
) -> tuple[np.ndarray, float]:
    """diag(q) + U^T [chi] U, symmetrized, and its asymmetry norm.
    Eigenspace i has dims[i] columns, and each run of eigenspaces is
    multiplied by its chi in one product."""
    starts = np.cumsum([0] + list(dims))
    raw = np.zeros((starts[-1], starts[-1]))
    interior = measure.vertices.interior
    for chi, first, stop in runs:
        if chi is not None:
            g = effective_multiplier(chi, measure.vertices)[interior]
            a, b = starts[first], starts[stop]
            np.matmul(columns.T, g[:, None] * columns[:, a:b], out=raw[:, a:b])
    block, asym = _symmetrized(raw)
    block[np.diag_indices_from(block)] += np.repeat(q, dims)
    return block, asym


def _dense_product(
    symbol: SymbolSpec, basis: BasisSelection, measure: SelfSimilarMeasure
) -> tuple[np.ndarray, float]:
    """The dense matrix of the compression and its asymmetry."""
    q, runs = eigenspace_runs(symbol, basis.records)
    return _product_block(q, runs, _columns(basis), basis.dims, measure)


def compress(
    symbol: SymbolSpec, basis: BasisSelection, measure: SelfSimilarMeasure
) -> CompressedOperator:
    """Gamma(a,b) = weighted vertex sum of p(x, lam_b) u_a(x) u_b(x).

    The basis is orthonormal in the measure-weighted inner product and
    interior vertices share one weight, so a symbol q(lam) + chi_lam
    compresses to diag(q(lam)) + U^T [chi_lam] U, each eigenspace's potential
    acting on its own columns.  Over whole eigenspaces, with every chi_lam
    absent or simple and k the largest of their cell levels, that product is
    never formed: a vector localized in a k-cell C is an exact eigenvector
    of any potential simple at level k, an atom q(lam) + chi_lam(C), m_{j,k}
    per cell (q(lam), d of them, when chi is absent), and only the
    non-localized remainder Q of each eigenspace gives a block, diag(q) +
    Q^T [chi_lam] Q, one product per run of eigenspaces sharing one chi.  Q
    is `eigenbasis.level_remainder(m, k)`, built by decimation with no n x n
    array, and the selection's columns are never read: any orthonormal
    columns spanning each eigenspace, or none (a bare level basis), give the
    same operator.  The localized-trace identity that cross-checks Q against
    whole eigenspaces is `localized_trace_margin`, run by `validate`.

    A callable chi keeps the dense product, an operator with no atoms whose
    remainder is the whole matrix.  It, and `matrix` of any compression,
    need the selection's columns and raise `ColumnsError` without them.
    """
    if measure.level != basis.level:
        raise StructuralError(
            f"measure level {measure.level} != basis level {basis.level}"
        )
    if reduces(symbol):
        return _compress_reduced(symbol, basis, measure)
    mat, asym = _dense_product(symbol, basis, measure)
    lambdas = basis.lambdas
    return CompressedOperator(
        basis.level, list(basis.keys), lambdas, asym,
        remainder=mat, remainder_lambdas=lambdas, dense=lambda: mat,
    )


def _compress_reduced(
    symbol: SymbolSpec, basis: BasisSelection, measure: SelfSimilarMeasure
) -> CompressedOperator:
    """Atoms plus the remainder block of q(lam) + chi_lam over whole
    eigenspaces."""
    lams = np.array([rec.value for rec in basis.records])
    q, runs = eigenspace_runs(symbol, basis.records)
    if runs[0][0] is None:
        # every vector is an atom at q(lam)
        cell_values = np.zeros((q.size, 1))
        per_cell = basis.dims
        rem_dims = [0] * len(per_cell)
        block, asym = np.zeros((0, 0)), 0.0
    else:
        k = max(chi.level for chi, _, _ in runs)
        # each eigenspace's chi on the k-cells, in word order
        cell_values = np.repeat(
            [chi.refined(k) for chi, _, _ in runs],
            [stop - first for _, first, stop in runs],
            axis=0,
        )
        rem = _selection_remainder(k, basis)
        per_cell, rem_dims = rem.per_cell, rem.dims
        block, asym = _product_block(q, runs, rem.columns, rem_dims, measure)
    per_atom = np.repeat(per_cell, cell_values.shape[1])
    return CompressedOperator(
        level=basis.level,
        keys=list(basis.keys),
        lambda_assignment=basis.lambdas,
        asymmetry=asym,
        atoms=np.repeat((q[:, None] + cell_values).ravel(), per_atom),
        atom_lambdas=np.repeat(np.repeat(lams, cell_values.shape[1]), per_atom),
        remainder=block,
        remainder_lambdas=np.repeat(lams, rem_dims),
        dense=lambda: _dense_product(symbol, basis, measure)[0],
    )


def reduces(symbol: SymbolSpec) -> bool:
    """Whether `compress` reduces the symbol to atoms plus a remainder: its
    chi absent or simple (every entry of a table is simple)."""
    return symbol.chi is None or isinstance(symbol.chi, SimpleFunction)


def level_basis_for(symbol: SymbolSpec, m: int, basis=None) -> LevelBasis:
    """`basis`, which must be of level m, or else the cached level-m basis
    that compressions of `symbol` need: the bare one when they reduce, else
    the one with its n x n eigenvectors."""
    if basis is not None:
        if basis.level != m:
            raise DomainError(f"basis of level {basis.level} given for level m = {m}")
        return basis
    return (eigenbasis.bare_level_basis if reduces(symbol) else eigenbasis.level_basis)(m)


def _columns(basis: BasisSelection) -> np.ndarray:
    if basis.columns is None:
        raise ColumnsError(
            "this operation needs eigenvector columns, and the selection of "
            "a bare level basis has none; use eigenbasis.level_basis"
        )
    return basis.columns


def _selection_remainder(k: int, basis: BasisSelection) -> eigenbasis.Remainder:
    """The remainder at cell level k of the selection's eigenspaces, which
    must be whole."""
    for rec, d in zip(basis.records, basis.dims):
        if d != rec.multiplicity:
            raise StructuralError(
                f"eigenspace {rec.key}: {d} of its "
                f"{rec.multiplicity} vectors selected; a simple potential "
                f"reduces over whole eigenspaces only"
            )
    return eigenbasis.level_remainder(basis.level, k).select(basis.records)


def localized_trace_margin(
    chi: SimpleFunction, bundle: EigenspaceBundle, measure: SelfSimilarMeasure
) -> float:
    """Check the remainder at chi's cell level against one whole eigenspace.

    The trace of [chi] over the eigenspace's vectors less its trace over its
    remainder `level_remainder(m, chi.level)` is the localized part:
    `per_cell` vectors in each cell C, each an eigenvector at chi_C, so it
    must equal `per_cell` times the sum of the cell values.  Returns the
    deviation over its tolerance BLOCK_TOL * d * max(1, sup|chi|), and
    raises StructuralError above 1.
    """
    if bundle.vectors is None:
        raise ColumnsError(
            "the localized trace needs the eigenspace's vectors; build them "
            "with eigenbasis.eigenspace"
        )
    rec, cols = bundle.record, bundle.vectors
    rem = eigenbasis.level_remainder(bundle.level, chi.level).select([rec])
    g = effective_multiplier(chi, measure.vertices)[bundle.vertices.interior]
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


def trace_F(
    op: CompressedOperator,
    F: Callable[[float], float],
    domain: tuple[float, float] | None = None,
) -> float:
    """Trace of F applied to the operator through its eigenvalues.

    When a validity interval is supplied, every eigenvalue must lie inside
    it; this surfaces the continuity hypothesis as a runtime check.
    """
    sigma = operator_eigenvalues(op)
    if domain is not None:
        lo, hi = domain
        bad = sigma[(sigma < lo) | (sigma > hi)]
        if bad.size:
            raise DomainError(
                f"eigenvalues {bad[:3]} fall outside the declared domain "
                f"[{lo}, {hi}] of F"
            )
    return math.fsum(F(float(s)) for s in sigma)


def log_det(op: CompressedOperator) -> float:
    sigma = operator_eigenvalues(op)
    if sigma[0] <= 0.0:
        raise DomainError(
            f"log-determinant needs a positive-definite operator; smallest "
            f"eigenvalue is {sigma[0]!r}"
        )
    return math.fsum(math.log(float(s)) for s in sigma)


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
    measure: SelfSimilarMeasure,
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
    values = table.values().tolist()
    if not values:
        raise DomainError("empty spectrum table")
    dists = [
        symbol_sup_distance(symbol, v, basis.vertices) for v in values
    ]
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
    sigma = operator_eigenvalues(compress(symbol, basis, measure).up_to(lambda_bar))
    if sigma.size:
        head_lo, head_hi = float(sigma[0]), float(sigma[-1])
    else:
        head_lo, head_hi = math.inf, -math.inf
    qmin, qmax = limit_range(symbol.limit_q, basis.vertices)
    return SpectralBounds(
        A=min(qmin - epsilon, head_lo),
        B=max(qmax + epsilon, head_hi),
        lambda_bar=lambda_bar,
        epsilon=epsilon,
    )


def spectrum_map(p: Callable[[float], float], table: SpectrumTable) -> np.ndarray:
    """Sorted image of the spectrum under p, expanded by multiplicity."""
    image = [p(v) for v in table.values().tolist()]
    return np.sort(np.repeat(image, table.multiplicity))


def operator_to_csv(op: CompressedOperator, path, sidecar_path) -> None:
    write_csv(
        path,
        tuple(f"c{i}" for i in range(op.dim)),
        (tuple(float(x) for x in row) for row in op.matrix),
    )
    write_json(
        sidecar_path,
        {
            "level": op.level,
            "keys": [list(k) for k in op.keys],
            "lambda_assignment": [float(x) for x in op.lambda_assignment],
            "asymmetry": op.asymmetry,
        },
    )
