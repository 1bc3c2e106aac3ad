"""Generalized Schrodinger operators and their eigenvalue clusters.

H = p(-Delta) + [chi] acts on the full level-m eigenbasis, where p(-Delta)
is diagonal and [chi] is the compressed multiplication operator.  For chi
simple at level k, every eigenvector localized in a k-cell C is an exact
eigenvector of H with eigenvalue p(lam) + chi_C, so only the non-localized
remainder is assembled and solved; its potential block is
`operators.compress`'s, so the n x n level basis is built only for a
callable chi or a chi simple at level m.  p is evaluated once per eigenspace
and repeated over its atoms and remainder columns.  One assembly of the
block serves `build_schrodinger`, whose eigenvectors the clusters read, and
`schrodinger_spectrum`, the eigenvalues alone, all that `lipschitz_check`
reads.  Clusters are the portions of the spectrum inside windows around
p(lam_j) for the separated family, read from the level workspace; each
cluster's recentered empirical measure is realized through the spectral
projection onto its eigenvectors (exact atoms plus projected remainder
eigenvectors), whose projected matrix also furnishes the moment/trace
cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import eigenbasis, operators, szego
from .decimation import EigenvalueRecord
from .errors import DomainError, NumericError, StructuralError
from .gasket import SimpleFunction, VertexSet, vertex_values
from .serialize import write_csv

WINDOW_SLACK = 1e-9
ROUNDING_SLACK = 32.0
LOWER_BOUND_TOL = 1e-9
MOMENT_RTOL = 1e-8


def _rounding_floor(nu: np.ndarray) -> float:
    """Slack for eigh's rounding, which places eigenvalues of localized
    eigenfunctions up to a few eps * max|nu| from their exact values."""
    return ROUNDING_SLACK * np.finfo(float).eps * float(np.max(np.abs(nu)))


def sup_difference(chi1, chi2, vertices: VertexSet) -> float:
    """Sup norm of chi1 - chi2 (exact for simple functions)."""
    if isinstance(chi1, SimpleFunction) and isinstance(chi2, SimpleFunction):
        level = max(chi1.level, chi2.level)
        return float(np.max(np.abs(chi1.refined(level) - chi2.refined(level))))
    d1 = vertex_values(chi1, vertices)
    d2 = vertex_values(chi2, vertices)
    return float(np.max(np.abs(d1 - d2)))


@dataclass
class SchrodingerMatrix:
    """p(-Delta) + [chi] at one graph level: exact atoms plus a solved remainder.

    With chi simple at level k, every eigenvector localized in a k-cell C is
    an exact eigenvector with eigenvalue p(lam) + chi_C; the two terms of
    each such atom are kept in `atom_p` and `atom_chi`.  The remainder block
    in the non-localized coordinates is diag(remainder_p) +
    `remainder_potential`; the two parts are kept apart so that cluster
    projections are formed without the eps*norm(H) rounding floor (the
    diagonal is recentered before multiplying).  A callable chi has no
    atoms: its remainder is the whole eigenbasis.  Nothing derivable is
    stored: the level and dimension are the selection's, and p(-Delta) is
    `atom_p` with `remainder_p`.
    """

    basis: operators.BasisSelection = field(repr=False)
    p: Callable[[float], float]
    chi: object
    p_name: str
    atom_p: np.ndarray = field(repr=False)
    atom_chi: np.ndarray = field(repr=False)
    remainder_p: np.ndarray = field(repr=False)
    remainder_potential: np.ndarray = field(repr=False)
    remainder_values: np.ndarray = field(repr=False)
    remainder_vectors: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def projected_cluster(self, cols: np.ndarray, center: float) -> np.ndarray:
        """V^T (H - center) V for remainder eigenvectors V, from the
        recentered parts."""
        shifted = (self.remainder_p - center)[:, None] * cols
        out = cols.T @ shifted + cols.T @ (self.remainder_potential @ cols)
        return 0.5 * (out + out.T)


@dataclass
class _Assembly:
    """What H's spectrum reads: the whole level-m selection, the compression
    of chi over it, p on its atoms and remainder columns, the remainder
    block diag(remainder_p) + potential, and the floor min p + min chi."""

    basis: operators.BasisSelection
    potential: operators.CompressedOperator
    atom_p: np.ndarray
    remainder_p: np.ndarray
    block: np.ndarray
    floor: float

    def spectrum(self, remainder_values: np.ndarray) -> np.ndarray:
        """The ascending eigenvalues of H from those of the block, held to
        the floor."""
        eigenvalues = np.sort(
            np.concatenate([self.atom_p + self.potential.atoms, remainder_values])
        )
        if eigenvalues[0] < self.floor - LOWER_BOUND_TOL:
            raise StructuralError(
                f"smallest eigenvalue {eigenvalues[0]} undercuts the bound "
                f"min p + min chi = {self.floor}"
            )
        return eigenvalues


def _assemble(p, chi, m: int, basis) -> _Assembly:
    """H's parts over the full level-m eigenbasis; p is evaluated once per
    eigenspace and repeated over its atoms and remainder columns."""
    base = operators.level_basis_for(m, basis)
    sel = operators.leading_selection(base)
    potential = operators.compress(operators.multiplication_symbol(chi), sel)
    # the records come in ascending value order
    lams = np.array([rec.value for rec in sel.records])
    p_of = np.array([p(lam) for lam in lams.tolist()])
    atom_p = p_of[np.searchsorted(lams, potential.atom_lambdas)]
    remainder_p = p_of[np.searchsorted(lams, potential.remainder_lambdas)]
    block = potential.remainder.copy()
    block[np.diag_indices_from(block)] += remainder_p
    chi_min, _ = operators.limit_range(chi, base.vertices)
    return _Assembly(
        basis=sel,
        potential=potential,
        atom_p=atom_p,
        remainder_p=remainder_p,
        block=block,
        floor=float(np.min(p_of)) + chi_min,
    )


def build_schrodinger(
    p: Callable[[float], float],
    chi,
    m: int,
    p_name: str = "p",
    basis: eigenbasis.LevelBasis | None = None,
) -> SchrodingerMatrix:
    """H over the full level-m eigenbasis, with only its remainder solved."""
    h = _assemble(p, chi, m, basis)
    try:
        values, vectors = np.linalg.eigh(h.block)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"Schrodinger eigensolve failed: {exc}") from exc
    return SchrodingerMatrix(
        basis=h.basis,
        p=p,
        chi=chi,
        p_name=p_name,
        atom_p=h.atom_p,
        atom_chi=h.potential.atoms,
        remainder_p=h.remainder_p,
        remainder_potential=h.potential.remainder,
        remainder_values=values,
        remainder_vectors=vectors,
        eigenvalues=h.spectrum(values),
    )


def schrodinger_spectrum(
    p: Callable[[float], float],
    chi,
    m: int,
    basis: eigenbasis.LevelBasis | None = None,
) -> np.ndarray:
    """The ascending eigenvalues of H, as `build_schrodinger` gives them,
    held to the same floor, from the eigenvalues of the same block alone:
    no eigenvector is formed."""
    h = _assemble(p, chi, m, basis)
    try:
        values = np.linalg.eigvalsh(h.block)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"Schrodinger eigensolve failed: {exc}") from exc
    return h.spectrum(values)


@dataclass
class ClusterMeasure:
    """Recentered point masses of one eigenvalue cluster."""

    j: int
    center: float
    positions: np.ndarray
    d_j: int
    projected: np.ndarray = field(repr=False)

    @property
    def weight(self) -> float:
        return 1.0 / self.d_j

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(pos), self.weight) for pos in self.positions]


@dataclass
class ClusterReport:
    clusters: list[ClusterMeasure]
    counts: dict[int, int]
    threshold_j: int
    windows: dict[int, tuple[float, float]]
    m: int


def identify_clusters(
    schrodinger: SchrodingerMatrix,
    family: list[EigenvalueRecord],
) -> ClusterReport:
    """Locate the spectral clusters around p(lam_j) for a separated family.

    Each window spans p(lam_j) + [min chi, max chi], padded by WINDOW_SLACK
    plus the eigensolver's rounding floor ROUNDING_SLACK * eps * max|nu|;
    windows must be pairwise disjoint.  The threshold generation is the
    smallest birth from which every later window holds exactly its
    eigenspace dimension; a family with no such birth is an error.  An atom
    sits at (p(lam) - center) + chi_C, exactly; the positions of the windowed
    remainder eigenvectors V are the eigenvalues of V^T (H - center) V, which
    refines the raw eigensolve positions well below the window scale.
    """
    if not family:
        raise DomainError("empty eigenvalue family")
    lo_off, hi_off = operators.limit_range(
        schrodinger.chi, schrodinger.basis.vertices
    )
    family = sorted(family, key=lambda r: r.value)
    centers = [schrodinger.p(r.value) for r in family]
    nu = schrodinger.eigenvalues
    pad = WINDOW_SLACK + _rounding_floor(nu)
    windows = [
        (c + lo_off - pad, c + hi_off + pad) for c in centers
    ]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(windows, windows[1:]):
        if a_hi >= b_lo:
            raise DomainError(
                f"cluster windows [{a_lo}, {a_hi}] and [{b_lo}, {b_hi}] overlap"
            )
    counts: dict[int, int] = {}
    members: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    rem = schrodinger.remainder_values
    for rec, center, (w_lo, w_hi) in zip(family, centers, windows):
        atoms = (schrodinger.atom_p - center) + schrodinger.atom_chi
        atoms = atoms[(atoms >= lo_off - pad) & (atoms <= hi_off + pad)]
        idx = np.nonzero((rem >= w_lo) & (rem <= w_hi))[0]
        counts[rec.birth] = int(atoms.size + idx.size)
        members[rec.birth] = (atoms, idx)
    births = [r.birth for r in family]
    threshold = None
    for start in range(len(births)):
        if all(
            counts[r.birth] == r.multiplicity for r in family[start:]
        ):
            threshold = births[start]
            break
    if threshold is None:
        deficits = {
            r.birth: counts[r.birth] - r.multiplicity for r in family
        }
        raise StructuralError(
            f"no generation threshold: cluster count deficits {deficits}"
        )
    clusters = []
    for rec, center in zip(family, centers):
        if rec.birth < threshold or counts[rec.birth] != rec.multiplicity:
            continue
        atoms, idx = members[rec.birth]
        refined = schrodinger.projected_cluster(
            schrodinger.remainder_vectors[:, idx], center
        )
        projected = np.zeros((rec.multiplicity, rec.multiplicity))
        projected[np.arange(atoms.size), np.arange(atoms.size)] = atoms
        projected[atoms.size :, atoms.size :] = refined
        positions = np.sort(np.concatenate([atoms, np.linalg.eigvalsh(refined)]))
        slack = WINDOW_SLACK + 1e-9
        if positions[0] < lo_off - slack or positions[-1] > hi_off + slack:
            raise StructuralError(
                f"cluster {rec.birth}: positions escape "
                f"[{lo_off}, {hi_off}] by more than {slack}"
            )
        clusters.append(
            ClusterMeasure(
                j=rec.birth,
                center=center,
                positions=positions,
                d_j=rec.multiplicity,
                projected=projected,
            )
        )
    return ClusterReport(
        clusters=clusters,
        counts=counts,
        threshold_j=threshold,
        windows={r.birth: w for r, w in zip(family, windows)},
        m=schrodinger.basis.level,
    )


def cluster_moments(psi: ClusterMeasure, k_max: int) -> list[float]:
    """Moments of the cluster measure, checked against the trace formula."""
    if k_max < 0:
        raise DomainError(f"k_max must be nonnegative, got {k_max}")
    moments = [
        math.fsum(w * pos ** k for pos, w in psi.atoms)
        for k in range(k_max + 1)
    ]
    power = np.eye(psi.projected.shape[0])
    for k in range(k_max + 1):
        trace_value = float(np.trace(power)) / psi.d_j
        if abs(trace_value - moments[k]) > MOMENT_RTOL * max(
            1.0, abs(moments[k]), abs(trace_value)
        ):
            raise StructuralError(
                f"moment {k} disagrees with the projected trace: "
                f"{moments[k]} vs {trace_value}"
            )
        power = power @ psi.projected
    return moments


def weak_limit_check(
    chi,
    p: Callable[[float], float],
    j_range,
    F: szego.TraceFunction,
    m: int,
    p_name: str = "p",
    basis: eigenbasis.LevelBasis | None = None,
) -> szego.ConvergenceReport:
    """Cluster averages of F against the potential's pullback integral."""
    base = operators.level_basis_for(m, basis)
    j_range = szego._distinct_sorted(j_range, int, "birth range")
    schrodinger = build_schrodinger(p, chi, m, p_name, base)
    report = identify_clusters(schrodinger, decimation_family(j_range, base))
    return weak_limit_report(report, chi, j_range, F, p_name)


def weak_limit_report(
    report: ClusterReport,
    chi,
    j_range,
    F: szego.TraceFunction,
    p_name: str = "p",
) -> szego.ConvergenceReport:
    """Weak-limit samples from the clusters of an identified report, split
    into head and tail at the generation cut of the report's level."""
    j_range = szego._distinct_sorted(j_range, int, "birth range")
    target, target_info = szego.target_integral(chi, F.fn, F.name)
    cut = szego._generation_cut(None, report.m)
    by_birth = {c.j: c for c in report.clusters}
    samples = []
    for j in j_range:
        if j not in by_birth:
            raise StructuralError(
                f"birth {j} below the cluster threshold {report.threshold_j}"
            )
        psi = by_birth[j]
        value = math.fsum(w * F.fn(pos) for pos, w in psi.atoms)
        samples.append(
            szego._sample(j, psi.d_j, value, target, psi.d_j if j <= cut else 0)
        )
    return szego._report(
        samples, target, target_info, experiment="cluster-weak-limit",
        F=F.name, p=p_name, m=report.m, threshold_j=report.threshold_j,
    )


def decimation_family(j_range, base: eigenbasis.LevelBasis) -> list[EigenvalueRecord]:
    """The separated-family records of the requested births, read from the
    level workspace: the family member of birth j >= 2 is the smallest
    6-series eigenvalue of that birth."""
    births = szego._distinct_sorted(j_range, int, "birth range")
    missing = [j for j in births if j < 2]
    if missing:
        raise DomainError(f"births {missing} not in the 5-fold family")
    above = [j for j in births if j > base.level]
    if above:
        raise DomainError(f"birth {above[0]} not resolvable at level {base.level}")
    return [base.family_bundle(6, j).record for j in births]


def lipschitz_check(
    p: Callable[[float], float],
    chi1,
    chi2,
    m: int,
    basis: eigenbasis.LevelBasis | None = None,
) -> float:
    """Max sorted-eigenvalue displacement; must not exceed the sup distance.
    Only eigenvalues are read, so no eigenvector is formed."""
    nu1 = schrodinger_spectrum(p, chi1, m, basis)
    nu2 = schrodinger_spectrum(p, chi2, m, basis)
    displacement = float(np.max(np.abs(nu1 - nu2)))
    vertices = operators.level_basis_for(m, basis).vertices
    bound = (
        sup_difference(chi1, chi2, vertices)
        + 1e-9
        + _rounding_floor(np.concatenate([nu1, nu2]))
    )
    if displacement > bound:
        raise StructuralError(
            f"eigenvalue displacement {displacement} exceeds the potential "
            f"sup-distance bound {bound}"
        )
    return displacement


def random_simple_perturbation(
    rng: np.random.Generator, level: int, delta: float
) -> SimpleFunction:
    """A simple function of sup norm exactly delta."""
    values = rng.uniform(-1.0, 1.0, 3 ** level)
    peak = float(np.max(np.abs(values)))
    return SimpleFunction(level, values * (delta / peak))


@dataclass
class SeparationReport:
    ok: bool
    increasing_ok: bool
    sharp_c: float
    worst_pair: tuple[float, float] | None
    worst_margin: float


def separation_check(
    p: Callable[[float], float],
    lambda_family,
    c: float,
    beta: float,
    lambda_bar: float,
) -> SeparationReport:
    """Pairwise growth condition |p(a)-p(b)| >= c |a-b|^beta above lambda_bar."""
    fam = sorted(float(x) for x in lambda_family)
    if any(x < lambda_bar for x in fam):
        raise DomainError("family members must be at least lambda_bar")
    values = [p(x) for x in fam]
    increasing_ok = all(b > a for a, b in zip(values, values[1:]))
    worst_pair, worst_margin, sharp_c = None, math.inf, math.inf
    for i in range(len(fam)):
        for k in range(i + 1, len(fam)):
            gap = abs(values[k] - values[i])
            need = c * abs(fam[k] - fam[i]) ** beta
            margin = gap - need
            sharp_c = min(sharp_c, gap / abs(fam[k] - fam[i]) ** beta)
            if margin < worst_margin:
                worst_margin = margin
                worst_pair = (fam[i], fam[k])
    return SeparationReport(
        ok=worst_margin >= 0.0 and increasing_ok,
        increasing_ok=increasing_ok,
        sharp_c=sharp_c,
        worst_pair=worst_pair,
        worst_margin=worst_margin,
    )


def clusters_to_csv(clusters: list[ClusterMeasure], path) -> None:
    rows = []
    for psi in clusters:
        for pos, w in psi.atoms:
            rows.append((psi.j, psi.center, pos, w))
    write_csv(path, ("j", "center", "position", "weight"), rows)


def moments_to_csv(
    clusters: list[ClusterMeasure], k_max: int, target_fn, path
) -> None:
    """Moment table: per cluster and power, the moment and its target error."""
    rows = []
    for psi in clusters:
        moments = cluster_moments(psi, k_max)
        for k, moment in enumerate(moments):
            target = target_fn(k)
            rows.append((psi.j, k, moment, target, abs(moment - target)))
    write_csv(path, ("j", "k", "moment", "target", "abs_error"), rows)
