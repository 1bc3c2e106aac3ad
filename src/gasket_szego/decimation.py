"""Exact enumeration of the Dirichlet spectrum via spectral decimation.

Graph eigenvalues at consecutive levels are related by lam_prev = lam*(5-lam).
Dirichlet eigenvalues are born with seed graph value 2 (birth 1, simple),
5 (any birth j, multiplicity (3^(j-1)+3)/2), or 6 (birth j >= 2, multiplicity
(3^j-3)/2), and continue upward through either root of the inverse relation.
The only constraint is at a 6 seed: its contracting preimage is the forbidden
value 2, so the first step after a 6 birth must take the expanding root 3.
A record's numeric eigenvalue is the renormalized limit (3/2) 5^m lam_m along
an eventually-contracting branch sequence.  `eigenvalue_limit` follows one
record.  `enumerate_spectrum` searches the branch prefixes level by level, as
numpy arrays over the whole frontier, and runs the same contracting tail for
every queued node at once, with the same operations in the same order, so
both give bit-identical values.

Every structural claim here is validated wholesale against the dense
eigensolve of the graph Laplacians (see the test suite): the truncated record
multiset reproduces the level-m spectrum elementwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    ResourceLimitError,
)

CONTRACTING = "-"
EXPANDING = "+"

DEFAULT_TOL = 1e-12
MAX_STEPS = 60
DEFAULT_RECORD_CAP = 200_000
PRUNE_SAFETY = 2.0

_SEEDS = (2, 5, 6)


def series_multiplicity(series: int, birth: int) -> int:
    if series == 2:
        if birth != 1:
            raise DomainError("2-series eigenvalues all have birth 1")
        return 1
    if series == 5:
        if birth < 1:
            raise DomainError(f"5-series birth must be >= 1, got {birth}")
        return (3 ** (birth - 1) + 3) // 2
    if series == 6:
        if birth < 2:
            raise DomainError(f"6-series birth must be >= 2, got {birth}")
        return (3 ** birth - 3) // 2
    raise DomainError(f"series must be one of {_SEEDS}, got {series}")


def decimation_preimages(lambda_prev: float) -> tuple[float, float]:
    """Both roots of lam*(5-lam) = lambda_prev, contracting root first.

    The contracting root lies in [0, 5/2); it is evaluated in the
    cancellation-free form 2*lambda_prev / (5 + sqrt(25 - 4*lambda_prev)).
    """
    if lambda_prev > 25.0 / 4.0:
        raise DomainError(
            f"no real decimation preimages for {lambda_prev} > 25/4"
        )
    disc = math.sqrt(25.0 - 4.0 * lambda_prev)
    return 2.0 * lambda_prev / (5.0 + disc), (5.0 + disc) / 2.0


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


def _normalize_branches(series: int, branches) -> tuple[str, ...]:
    branches = tuple(branches)
    if any(s not in (CONTRACTING, EXPANDING) for s in branches):
        raise DomainError(f"branch signs must be '+'/'-': {branches}")
    if series == 6:
        if not branches:
            branches = (EXPANDING,)
        elif branches[0] != EXPANDING:
            raise DomainError("a 6-series record must expand at its first step")
    return branches


def renormalization_factor(level: int) -> float:
    """Scale (3/2) 5^m of the renormalized level-m graph Laplacian."""
    return 1.5 * 5.0 ** level


def eigenvalue_limit(
    series: int,
    birth: int,
    branches=(),
    tol: float = DEFAULT_TOL,
    with_trace: bool = False,
):
    """Renormalized limit (3/2) 5^m lam_m of a branch-labelled eigenvalue.

    Explicit `branches` are applied after birth; past them the iteration takes
    the contracting root, along which the renormalized value increases to its
    limit.  Stops when successive values agree to `tol` relatively.
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


@dataclass(frozen=True)
class EigenvalueRecord:
    """One Dirichlet eigenvalue of the renormalized limit operator."""

    series: int
    birth: int
    branches: tuple[str, ...]
    value: float
    multiplicity: int

    @property
    def key(self) -> str:
        return f"{self.series}:{self.birth}:{''.join(self.branches)}"

    @property
    def graph_values(self) -> tuple[float, ...]:
        """The graph eigenvalues lam_birth, lam_birth+1, ... up to the stop."""
        return eigenvalue_limit(
            self.series, self.birth, self.branches, with_trace=True
        )[1]


def make_record(series: int, birth: int, branches=()) -> EigenvalueRecord:
    branches = _normalize_branches(series, branches)
    return EigenvalueRecord(
        series=series,
        birth=birth,
        branches=branches,
        value=eigenvalue_limit(series, birth, branches),
        multiplicity=series_multiplicity(series, birth),
    )


def _contracting_limits(series, birth, steps, lam) -> np.ndarray:
    """`eigenvalue_limit` of every node, each argument an array over nodes.

    A node's `steps` explicit branches after its birth reach the graph value
    lam at level birth + steps.  From there each node takes
    `eigenvalue_limit`'s non-explicit steps, elementwise and with the same
    operations in the same order, so each value is bit-identical to the
    scalar one (IEEE arithmetic and sqrt are correctly rounded).  A node's
    explicit steps count against MAX_STEPS.
    """
    series, birth, steps = (np.asarray(a) for a in (series, birth, steps))
    lam = np.asarray(lam, dtype=float)
    level = birth + steps
    budget = MAX_STEPS - steps
    scale = np.array(
        [renormalization_factor(k) for k in range(level.max() + MAX_STEPS + 1)]
    )
    values = np.full(lam.size, np.nan)
    idx = np.arange(lam.size)
    prev = scale[level] * lam
    for step in range(MAX_STEPS):
        live = budget > step
        if not live.all():
            idx, lam, level, prev, budget = (
                a[live] for a in (idx, lam, level, prev, budget)
            )
        if idx.size == 0:
            break
        if np.any(lam > 25.0 / 4.0):
            raise DomainError(
                f"no real decimation preimages for {lam.max()} > 25/4"
            )
        disc = np.sqrt(25.0 - 4.0 * lam)
        # from a 6 seed the contracting branch takes the expanding root
        lam = np.where(lam == 6.0, (5.0 + disc) / 2.0, 2.0 * lam / (5.0 + disc))
        level = level + 1
        value = scale[level] * lam
        done = np.abs(value - prev) < DEFAULT_TOL * np.abs(value)
        values[idx[done]] = value[done]
        rest = ~done
        idx, lam, level, prev, budget = (
            a[rest] for a in (idx, lam, level, value, budget)
        )
    stuck = np.flatnonzero(np.isnan(values))
    if stuck.size:
        i = stuck[0]
        raise ConvergenceError(
            f"renormalized eigenvalue did not stabilize to {DEFAULT_TOL} "
            f"within {MAX_STEPS} steps (series {series[i]}, birth {birth[i]}, "
            f"{steps[i]} explicit branches)"
        )
    return values


@dataclass
class SpectrumTable:
    """All eigenvalue records with value <= cutoff, sorted ascending."""

    records: list[EigenvalueRecord]
    cutoff: float

    @property
    def d_lambda(self) -> int:
        return sum(r.multiplicity for r in self.records)

    def count_upto(self, lam: float) -> int:
        return sum(r.multiplicity for r in self.records if r.value <= lam)

    def values(self) -> list[float]:
        return [r.value for r in self.records]


def enumerate_spectrum(
    cutoff: float, record_cap: int = DEFAULT_RECORD_CAP
) -> SpectrumTable:
    """Every Dirichlet eigenvalue <= cutoff, once per record with multiplicity.

    Breadth-first search over branch prefixes, one numpy step per level: the
    frontier holds each node's series, birth, explicit-step count, graph
    value and branch string as bits (1 for a contracting step).  The partial
    renormalized value (3/2) 5^m lam_m never decreases along any branch, so a
    node whose expanding child already exceeds PRUNE_SAFETY*cutoff has no
    further records below it.  The canonical nodes (no branches, or ending
    in an expanding step) are queued, and their exact limits are taken by
    `_contracting_limits` whenever more than record_cap are queued and at the
    end, so an exceeded cap fails without a full search.
    """
    if cutoff <= 0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    roots = []
    # a 6-series root has already taken its forced expanding step
    for series, birth, steps, lam in ((2, 1, 0, 2.0), (5, 1, 0, 5.0), (6, 2, 1, 3.0)):
        # a root's partial value bounds every record below it from below
        while renormalization_factor(birth + steps) * lam <= cutoff:
            roots.append((series, birth, steps, lam))
            if series == 2:
                break
            birth += 1
    if not roots:
        return SpectrumTable(records=[], cutoff=cutoff)
    series, birth, steps, lam = (np.array(a) for a in zip(*roots))
    code = np.zeros_like(steps)
    scale = np.array(
        [renormalization_factor(k) for k in range(birth.max() + MAX_STEPS + 2)]
    )
    queue, found, queued, count = [], [], 0, 0
    while series.size:
        canonical = (code & 1) == 0
        queue.append([a[canonical] for a in (series, birth, steps, code, lam)])
        queued += queue[-1][0].size
        disc = np.sqrt(25.0 - 4.0 * lam)
        hi = (5.0 + disc) / 2.0
        # every deeper record below a pruned node contains an expanding step
        # at least this large, so the whole subtree lies above the cutoff
        keep = scale[birth + steps + 1] * hi <= PRUNE_SAFETY * cutoff
        lam = np.concatenate([hi[keep], 2.0 * lam[keep] / (5.0 + disc[keep])])
        series, birth, steps = (
            np.concatenate([a[keep]] * 2) for a in (series, birth, steps + 1)
        )
        code = np.concatenate([code[keep] << 1, (code[keep] << 1) | 1])
        if queued > record_cap or not series.size:
            nodes = [np.concatenate(a) for a in zip(*queue)]
            values = _contracting_limits(*nodes[:3], nodes[4])
            below = values <= cutoff
            found.append([values[below]] + [a[below] for a in nodes[:4]])
            count += found[-1][0].size
            queue, queued = [], 0
            if count > record_cap:
                raise ResourceLimitError(
                    f"spectrum enumeration exceeded the record cap "
                    f"{record_cap} below cutoff {cutoff}"
                )
    return SpectrumTable(records=_sorted_records(found), cutoff=cutoff)


def _sorted_records(found) -> list[EigenvalueRecord]:
    """Records from arrays (value, series, birth, steps, code), sorted by
    (value, series, birth, branches) as tuples compare: '+' < '-', and a
    branch string before any longer one it begins."""
    values, series, birth, steps, code = (np.concatenate(a) for a in zip(*found))
    width = int(steps.max(initial=0))
    left = code << (width - steps)  # branch strings aligned at their first step
    order = np.lexsort((steps, left, birth, series, values))
    # a leading 1 bit marks where each string starts; equal strings share
    # one tuple
    keys, string = np.unique((code | (1 << steps))[order], return_inverse=True)
    signs = str.maketrans("01", EXPANDING + CONTRACTING)
    branches = [tuple(bin(k)[3:].translate(signs)) for k in keys.tolist()]
    series, birth = series[order].tolist(), birth[order].tolist()
    multiplicity = {
        key: series_multiplicity(*key) for key in set(zip(series, birth))
    }
    return [
        EigenvalueRecord(s, b, branches[i], v, multiplicity[s, b])
        for v, s, b, i in zip(values[order].tolist(), series, birth, string.tolist())
    ]


@dataclass(frozen=True)
class GraphEigenvalue:
    """A level-m graph eigenvalue with its canonical record."""

    graph_value: float
    series: int
    birth: int
    prefix: tuple[str, ...]
    multiplicity: int
    record: EigenvalueRecord


def _canonical_from_prefix(series: int, prefix: tuple[str, ...]) -> tuple[str, ...]:
    trimmed = prefix
    while trimmed and trimmed[-1] == CONTRACTING:
        trimmed = trimmed[:-1]
    if series == 6 and not trimmed:
        trimmed = (EXPANDING,)
    return trimmed


def truncated_graph_spectrum(m: int) -> list[GraphEigenvalue]:
    """All level-m Dirichlet graph eigenvalues predicted by decimation.

    One entry per distinct eigenvalue, carrying its multiplicity and the
    canonical (trailing-contraction trimmed) record.  The multiset expanded by
    multiplicity has exactly (3^(m+1)-3)/2 elements.
    """
    if m < 1:
        raise DomainError(f"graph spectra start at level 1, got {m}")
    out: list[GraphEigenvalue] = []
    for series in _SEEDS:
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
                record = make_record(
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


def interior_dimension(m: int) -> int:
    return (3 ** (m + 1) - 3) // 2


@dataclass(frozen=True)
class LocalizationCounts:
    """Eigenspace bookkeeping at approximation level N (level N < birth)."""

    series: int
    birth: int
    level: int
    d_j: int
    d_j_N: int
    alpha_N: int
    m_j_N: int


def localization_counts(series: int, birth: int, level: int) -> LocalizationCounts:
    """Closed-form localized / non-localized counts for a 5- or 6-series space.

    For the 5-series the non-localized count is defined as d_j - d_j^N =
    (3^N+3)/2, which is what the dense eigensolve confirms; the per-cell and
    localized totals are (3^(j-N-1)-1)/2 and (3^(j-1)-3^N)/2.
    """
    if series not in (5, 6):
        raise DomainError(f"localization applies to series 5 and 6, got {series}")
    if not 1 <= level < birth:
        raise DomainError(
            f"approximation level must satisfy 1 <= N < birth, got N={level}, "
            f"birth={birth}"
        )
    d_j = series_multiplicity(series, birth)
    if series == 6:
        d_j_N = (3 ** birth - 3 ** (level + 1)) // 2
        m_j_N = (3 ** (birth - level) - 3) // 2
    else:
        d_j_N = (3 ** (birth - 1) - 3 ** level) // 2
        m_j_N = (3 ** (birth - level - 1) - 1) // 2
    return LocalizationCounts(
        series=series,
        birth=birth,
        level=level,
        d_j=d_j,
        d_j_N=d_j_N,
        alpha_N=d_j - d_j_N,
        m_j_N=m_j_N,
    )


@dataclass
class SeparatedFamily:
    """The 5-fold 6-series family and each member's gap to the rest."""

    records: list[EigenvalueRecord]
    gaps: list[float]


def separated_sequence(j_max: int) -> SeparatedFamily:
    """6-series records of births 2..max(2, j_max) with 5-fold scaling.

    Each member is the smallest 6-series eigenvalue of its birth (forced
    expanding step, then all-contracting), so consecutive values scale by
    exactly 5.  Gaps to the nearest other eigenvalue come from a full
    enumeration around the family.
    """
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max}")
    births = range(2, max(2, j_max) + 1)
    records = [make_record(6, j, (EXPANDING,)) for j in births]
    table = enumerate_spectrum(6.0 * records[-1].value)
    gaps = []
    for rec in records:
        others = [
            abs(other.value - rec.value)
            for other in table.records
            if other.key != rec.key
        ]
        gaps.append(min(others))
    return SeparatedFamily(records=records, gaps=gaps)


def resolvable_window(m: int) -> float:
    """Largest cutoff whose spectrum is fully resolvable at graph level m.

    A record is resolvable when its canonical branch string fits within the
    m - birth free steps.  The infimum of non-resolvable values is attained
    either at the smallest birth-(m+1) record or at a record of birth <= m
    whose single expanding step sits one level beyond the truncation.
    """
    candidates = [eigenvalue_limit(5, m + 1)]
    candidates.append(
        eigenvalue_limit(2, 1, (CONTRACTING,) * (m - 1) + (EXPANDING,))
    )
    for j in range(1, m + 1):
        candidates.append(
            eigenvalue_limit(5, j, (CONTRACTING,) * (m - j) + (EXPANDING,))
        )
    for j in range(2, m + 1):
        if j < m:
            branches = (
                (EXPANDING,) + (CONTRACTING,) * (m - j - 1) + (EXPANDING,)
            )
        else:
            branches = (EXPANDING, EXPANDING)
        candidates.append(eigenvalue_limit(6, j, branches))
    return min(candidates)


def spectrum_to_csv(table: SpectrumTable, path) -> None:
    """One row per record, formatted as `serialize.fmt` formats each cell."""
    rows = "".join(
        "%.17g,%d,%d,%d,%s\n"
        % (r.value, r.series, r.birth, r.multiplicity, "".join(r.branches))
        for r in table.records
    )
    Path(path).write_text(
        "value,series,birth,multiplicity,branches\n" + rows
        + f"# d_lambda,{table.d_lambda}\n",
        encoding="utf-8",
    )


def _sign_strings(length: int) -> list[tuple[str, ...]]:
    if length == 0:
        return [()]
    shorter = _sign_strings(length - 1)
    return [s + (EXPANDING,) for s in shorter] + [
        s + (CONTRACTING,) for s in shorter
    ]
