"""Symbols, compressed operators, matrix functional calculus, spectrum maps.

A symbol acts as multiplication by p(., lam_n) on the eigenspace of lam_n, so
in an eigenbasis the compressed operator P p(x, -Delta) P has column blocks
assembled per eigenspace with that eigenspace's eigenvalue, then symmetrized.
Integrals against the measure are weighted vertex sums, which are exact for
products of simple functions with vectors localized at the same cell level;
so for q(lam) + chi with chi absent or simple, every localized vector is an
exact eigenvector and only the non-localized remainder is assembled, taken
from `eigenbasis.level_remainder` rather than from the selection's columns,
which such a compression never reads; tabulated symbols and a callable chi
keep the dense product over the columns of the n x n level basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    entries = tuple(sorted(((float(l), f) for l, f in entries), key=lambda e: e[0]))
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


def _tabulated_lookup(symbol: SymbolSpec, lam: float) -> SimpleFunction:
    for elam, f in symbol.entries:
        if abs(elam - lam) <= 1e-9 * max(1.0, abs(lam)):
            return f
    raise DomainError(f"tabulated symbol has no entry for eigenvalue {lam}")


def symbol_vertex_values(
    symbol: SymbolSpec, lam: float, vertices: VertexSet
) -> np.ndarray:
    """Pointwise samples of p(., lam) at the vertices."""
    if symbol.kind == "tabulated":
        return vertex_values(_tabulated_lookup(symbol, lam), vertices)
    values = np.zeros(vertices.n_vertices)
    if symbol.p_lambda is not None:
        values += symbol.p_lambda(lam)
    if symbol.chi is not None:
        values += vertex_values(symbol.chi, vertices)
    return values


def limit_vertex_values(limit_q, vertices: VertexSet) -> np.ndarray:
    if isinstance(limit_q, (int, float)):
        return np.full(vertices.n_vertices, float(limit_q))
    return vertex_values(limit_q, vertices)


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
    p_vals = symbol_vertex_values(symbol, lam, vertices)
    q_vals = limit_vertex_values(symbol.limit_q, vertices)
    return float(np.max(np.abs(p_vals - q_vals)))


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
        lam = np.empty(self.dim)
        for rec, sl in zip(self.records, self.group_slices):
            lam[sl] = rec.value
        return lam


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


class CompressedOperator:
    """A symbol compressed to an eigenbasis selection.

    Its spectrum is `atoms`, eigenvalues known exactly, together with the
    eigenvalues of the symmetric `remainder` block; `atom_lambdas` and
    `remainder_lambdas` give the eigenvalue lam of the eigenspace each atom
    and each remainder column comes from.  `matrix`, the dense matrix in the
    order of the selection's columns, is formed only on request; a dense
    compression has no atoms, and its whole matrix is the remainder.
    """

    def __init__(
        self,
        level: int,
        keys: list[tuple[str, int]],
        lambda_assignment: np.ndarray,
        asymmetry: float,
        atoms: np.ndarray | None = None,
        atom_lambdas: np.ndarray | None = None,
        remainder: np.ndarray | None = None,
        remainder_lambdas: np.ndarray | None = None,
        dense: Callable[[], np.ndarray] | None = None,
    ):
        self.level = level
        self.keys = keys
        self.lambda_assignment = lambda_assignment
        self.asymmetry = asymmetry
        self._matrix = None
        self._dense = dense
        self.atoms = np.zeros(0) if atoms is None else atoms
        self.atom_lambdas = np.zeros(0) if atom_lambdas is None else atom_lambdas
        self.remainder = remainder
        self.remainder_lambdas = remainder_lambdas

    @property
    def dim(self) -> int:
        return len(self.lambda_assignment)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._dense()
        return self._matrix

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


def _dense_product(
    symbol: SymbolSpec, basis: BasisSelection, measure: SelfSimilarMeasure
) -> tuple[np.ndarray, float]:
    """The dense matrix of the compression and its asymmetry."""
    interior = basis.vertices.interior
    cols = _columns(basis)
    if symbol.kind == "tabulated":
        raw = np.empty((basis.dim, basis.dim))
        for rec, sl in zip(basis.records, basis.group_slices):
            f = _tabulated_lookup(symbol, rec.value)
            g = effective_multiplier(f, measure.vertices)[interior]
            raw[:, sl] = cols.T @ (g[:, None] * cols[:, sl])
    else:
        if symbol.chi is None:
            raw = np.zeros((basis.dim, basis.dim))
        else:
            g = effective_multiplier(symbol.chi, measure.vertices)[interior]
            raw = cols.T @ (g[:, None] * cols)
        if symbol.p_lambda is not None:
            raw[np.diag_indices_from(raw)] += [
                symbol.p_lambda(float(lam)) for lam in basis.lambdas
            ]
    return _symmetrized(raw)


def compress(
    symbol: SymbolSpec, basis: BasisSelection, measure: SelfSimilarMeasure
) -> CompressedOperator:
    """Gamma(a,b) = weighted vertex sum of p(x, lam_b) u_a(x) u_b(x).

    The basis is orthonormal in the measure-weighted inner product and
    interior vertices share one weight, so a non-tabulated symbol
    q(lam) + chi(x) compresses to diag(q(lam)) + U^T [chi] U.  Over whole
    eigenspaces, with chi absent or simple at level k, that product is never
    formed: every vector of an eigenspace localized in a k-cell C is an
    exact eigenvector with eigenvalue q(lam) + chi_C, an atom of multiplicity
    m_{j,k} per cell (q(lam) with multiplicity d when chi is absent), and
    only the non-localized remainder Q of each eigenspace gives a block,
    diag(q) + Q^T [chi] Q.  Q comes from `eigenbasis.level_remainder(m, k)`,
    built by decimation with no n x n array, and the selection's columns are
    never read: any orthonormal columns spanning each eigenspace, or none
    (a bare level basis), give the same operator.  The localized-trace
    identity that cross-checks Q against whole eigenspaces is
    `localized_trace_margin`, run by `validate`.

    A tabulated symbol (one column block per eigenspace, with that
    eigenspace's eigenvalue) and a callable chi keep the dense product,
    symmetrized with its asymmetry norm recorded; it is the remainder of an
    operator with no atoms.  It needs the selection's columns and raises
    `ColumnsError` without them.
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
        level=basis.level,
        keys=list(basis.keys),
        lambda_assignment=lambdas,
        asymmetry=asym,
        remainder=mat,
        remainder_lambdas=lambdas,
        dense=lambda: mat,
    )


def _compress_reduced(
    symbol: SymbolSpec, basis: BasisSelection, measure: SelfSimilarMeasure
) -> CompressedOperator:
    """Atoms plus the remainder block of q(lam) + chi over whole eigenspaces."""
    chi = symbol.chi
    lams = np.array([rec.value for rec in basis.records])
    p = symbol.p_lambda
    q = np.array([p(rec.value) if p else 0.0 for rec in basis.records])
    if chi is None:
        # every vector is an atom at q(lam)
        cell_values = np.zeros(1)
        per_cell = [sl.stop - sl.start for sl in basis.group_slices]
        rem_dims = [0] * len(per_cell)
        block, asym = np.zeros((0, 0)), 0.0
    else:
        cell_values = chi.values
        g = effective_multiplier(chi, measure.vertices)[basis.vertices.interior]
        rem = _selection_remainder(chi, basis)
        per_cell, rem_dims = rem.per_cell, rem.dims
        block, asym = _symmetrized(rem.columns.T @ (g[:, None] * rem.columns))
        block[np.diag_indices_from(block)] += np.repeat(q, rem_dims)
    per_atom = np.repeat(per_cell, cell_values.size)
    return CompressedOperator(
        level=basis.level,
        keys=list(basis.keys),
        lambda_assignment=basis.lambdas,
        asymmetry=asym,
        atoms=np.repeat(np.add.outer(q, cell_values).ravel(), per_atom),
        atom_lambdas=np.repeat(np.repeat(lams, cell_values.size), per_atom),
        remainder=block,
        remainder_lambdas=np.repeat(lams, rem_dims),
        dense=lambda: _dense_product(symbol, basis, measure)[0],
    )


def reduces(symbol: SymbolSpec) -> bool:
    """Whether `compress` reduces the symbol to atoms plus a remainder:
    q(lam) + chi with chi absent or simple."""
    return symbol.kind != "tabulated" and (
        symbol.chi is None or isinstance(symbol.chi, SimpleFunction)
    )


def level_basis_for(symbol: SymbolSpec, m: int) -> LevelBasis:
    """The cached level-m basis that compressions of `symbol` need: the bare
    one when they reduce, else the one with its n x n eigenvectors."""
    if reduces(symbol):
        return eigenbasis.bare_level_basis(m)
    return eigenbasis.level_basis(m)


def _columns(basis: BasisSelection) -> np.ndarray:
    if basis.columns is None:
        raise ColumnsError(
            "this operation needs eigenvector columns, and the selection of "
            "a bare level basis has none; use eigenbasis.level_basis"
        )
    return basis.columns


def _selection_remainder(
    chi: SimpleFunction, basis: BasisSelection
) -> eigenbasis.Remainder:
    """The remainder at chi's cell level of the selection's eigenspaces,
    which must be whole."""
    for rec, sl in zip(basis.records, basis.group_slices):
        if sl.stop - sl.start != rec.multiplicity:
            raise StructuralError(
                f"eigenspace {rec.key}: {sl.stop - sl.start} of its "
                f"{rec.multiplicity} vectors selected; a simple potential "
                f"reduces over whole eigenspaces only"
            )
    return eigenbasis.level_remainder(basis.level, chi.level).select(basis.records)


def localized_trace_margin(
    chi: SimpleFunction, basis: BasisSelection, measure: SelfSimilarMeasure
) -> float:
    """Check the remainder at chi's cell level against whole eigenspaces.

    Per eigenspace, the trace of [chi] over the selection's columns less
    its trace over the remainder is the localized part: `per_cell` vectors
    in each cell C, each an eigenvector at chi_C, so it must equal
    `per_cell` times the sum of the cell values.  Returns the worst
    deviation over its tolerance BLOCK_TOL * d * max(1, sup|chi|), and
    raises StructuralError above 1.
    """
    cols = _columns(basis)
    g = effective_multiplier(chi, measure.vertices)[basis.vertices.interior]
    rem = _selection_remainder(chi, basis)
    traces = np.einsum("i,ij,ij->j", g, cols, cols)
    rem_traces = np.einsum("i,ij,ij->j", g, rem.columns, rem.columns)
    chi_sum = math.fsum(chi.values)
    worst, cursor = 0.0, 0
    for rec, sl, r, c in zip(basis.records, basis.group_slices, rem.dims, rem.per_cell):
        localized = np.sum(traces[sl]) - np.sum(rem_traces[cursor : cursor + r])
        cursor += r
        dev = abs(float(localized) - c * chi_sum)
        tol = BLOCK_TOL * (sl.stop - sl.start) * max(1.0, chi.sup_norm)
        if dev > tol:
            raise StructuralError(
                f"eigenspace {rec.key}: the localized trace of the "
                f"potential misses {c} times the sum of its cell values "
                f"by {dev:.3e}"
            )
        worst = max(worst, dev / tol)
    return worst


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


def trace_power(op: CompressedOperator, k: int) -> float:
    """Trace of the k-th matrix power by direct powering (cross-check path)."""
    if k < 0:
        raise DomainError(f"power must be nonnegative, got {k}")
    if k == 0:
        return float(op.dim)
    acc = np.eye(op.dim)
    for _ in range(k):
        acc = acc @ op.matrix
    return float(np.trace(acc))


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
    with `up_to(lambda_bar)`, so its eigenspaces must be in ascending order;
    a tabulated symbol needs an entry for every one of them.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if symbol.limit_q is None:
        raise DomainError(f"symbol {symbol.name} declares no uniform limit")
    values = [r.value for r in table.records]
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
    values = []
    for rec in table.records:
        values.extend([p(rec.value)] * rec.multiplicity)
    return np.sort(np.array(values))


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
