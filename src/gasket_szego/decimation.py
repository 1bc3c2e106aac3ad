"""Exact enumeration of the Dirichlet spectrum via spectral decimation.

Graph eigenvalues at consecutive levels are related by lam_prev = lam*(5-lam).
Dirichlet eigenvalues are born with seed graph value 2 (birth 1, simple),
5 (any birth j, multiplicity (3^(j-1)+3)/2), or 6 (birth j >= 2, multiplicity
(3^j-3)/2), and continue upward through either root of the inverse relation.
The only constraint is at a 6 seed: its contracting preimage is the forbidden
value 2, so the first step after a 6 birth must take the expanding root 3.
A record's numeric eigenvalue is the renormalized limit (3/2) 5^m lam_m along
an eventually-contracting branch sequence.  One walk grows the branch tree
level by level, as numpy arrays over the whole frontier: `enumerate_spectrum`
prunes it at a cutoff, `truncated_graph_spectrum` grows it to level m.  One
loop, `_contracting_limits`, takes the contracting tail of every node at
once; `eigenvalue_limit` passes it a single node.  A `SpectrumTable` keeps
the search's sorted arrays; its `EigenvalueRecord` objects are built only on
request, and `spectrum_to_csv` writes from the arrays.

Every structural claim here is validated wholesale against the dense
eigensolve of the graph Laplacians (see the test suite): the truncated record
multiset reproduces the level-m spectrum elementwise.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
RECORD_CAP = 200_000
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


def eigenvalue_limit(series: int, birth: int, branches=()) -> float:
    """Renormalized limit (3/2) 5^m lam_m of a branch-labelled eigenvalue.

    Explicit `branches` are applied after birth; past them the iteration takes
    the contracting root, along which the renormalized value increases to its
    limit.  Stops when successive values agree to DEFAULT_TOL relatively.
    """
    return make_record(series, birth, branches).value


@dataclass(frozen=True, slots=True)
class EigenvalueRecord:
    """One Dirichlet eigenvalue of the renormalized limit operator."""

    series: int
    birth: int
    branches: tuple[str, ...]
    value: float
    multiplicity: int
    # "series:birth:branches", made once: lookups by key read it often
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = f"{self.series}:{self.birth}:{''.join(self.branches)}"
        object.__setattr__(self, "key", key)

    @property
    def graph_values(self) -> tuple[float, ...]:
        """The graph eigenvalues lam_birth, lam_birth+1, ... up to the stop:
        the explicit branches, then `_contracting_limits`'s steps, whose stop
        is the first renormalized value equal to `value`."""
        trace = [float(self.series)]
        for sign in self.branches:
            lo, hi = decimation_preimages(trace[-1])
            trace.append(hi if sign == EXPANDING else lo)
        level = self.birth + len(self.branches)
        while (
            renormalization_factor(level) * trace[-1] != self.value
            and level < self.birth + MAX_STEPS
        ):
            trace.append(decimation_preimages(trace[-1])[0])
            level += 1
        return tuple(trace)


def make_record(series: int, birth: int, branches=()) -> EigenvalueRecord:
    multiplicity = series_multiplicity(series, birth)  # validates the pair
    branches = _normalize_branches(series, branches)
    lam = float(series)
    for sign in branches:
        lo, hi = decimation_preimages(lam)
        lam = hi if sign == EXPANDING else lo
    value = _contracting_limits([series], [birth], [len(branches)], [lam])[0]
    return EigenvalueRecord(series, birth, branches, float(value), multiplicity)


def _contracting_limits(series, birth, steps, lam) -> np.ndarray:
    """The renormalized limit of every node, each argument an array over nodes.

    A node's `steps` explicit branches after its birth reach the graph value
    lam at level birth + steps.  From there it takes the contracting root
    until two successive renormalized values agree to DEFAULT_TOL
    relatively, within MAX_STEPS steps in all.  Each value is independent of
    the other nodes of the call.  A 6 seed has no contracting root, so a
    6-series node must come after its forced expanding step.
    """
    series, birth, steps = (np.asarray(a) for a in (series, birth, steps))
    lam = np.asarray(lam, dtype=float)
    if np.any(lam > 25.0 / 4.0):
        raise DomainError(f"no real decimation preimages for {lam.max()} > 25/4")
    if np.any(lam == 6.0):
        raise DomainError("a 6 seed must take its forced expanding step first")
    # a node with MAX_STEPS explicit steps has no budget left to step
    level = birth + np.minimum(steps, MAX_STEPS)
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
        lam = 2.0 * lam / (5.0 + np.sqrt(25.0 - 4.0 * lam))
        level = level + 1
        value = scale[level] * lam
        done = np.abs(value - prev) < DEFAULT_TOL * np.abs(value)
        if done.any():
            values[idx[done]] = value[done]
            rest = ~done
            idx, lam, level, value, budget = (
                a[rest] for a in (idx, lam, level, value, budget)
            )
        prev = value
    stuck = np.flatnonzero(np.isnan(values))
    if stuck.size:
        i = stuck[0]
        raise ConvergenceError(
            f"renormalized eigenvalue did not stabilize to {DEFAULT_TOL} "
            f"within {MAX_STEPS} steps (series {series[i]}, birth {birth[i]}, "
            f"{steps[i]} explicit branches)"
        )
    return values


@dataclass(eq=False)
class SpectrumTable:
    """All records with value <= cutoff as arrays sorted by (value, series,
    birth, branches): branch length `steps` and bits `code` as `_grow` sets
    them.  The `EigenvalueRecord` list is built when `records` is read."""

    cutoff: float
    value: np.ndarray
    series: np.ndarray
    birth: np.ndarray
    steps: np.ndarray
    code: np.ndarray
    multiplicity: np.ndarray

    @functools.cached_property
    def records(self) -> list[EigenvalueRecord]:
        return _records(self.value, self.series, self.birth, self.steps, self.code)

    @property
    def d_lambda(self) -> int:
        return sum(self.multiplicity.tolist())  # in Python ints, exactly

    def count_upto(self, lam: float) -> int:
        return sum(self.multiplicity[self.value <= lam].tolist())


def _roots(within) -> list[np.ndarray]:
    """The roots of the branch tree as arrays (series, birth, steps, code,
    lam), births ascending while `within(level, lam)` holds.  A 6-series
    root has already taken its forced expanding step, so no node of the
    tree has the graph value 6."""
    roots = []
    for series, birth, steps, lam in ((2, 1, 0, 2.0), (5, 1, 0, 5.0), (6, 2, 1, 3.0)):
        while within(birth + steps, lam):
            roots.append((series, birth, steps, 0, lam))
            if series == 2:
                break
            birth += 1
    return [np.array(a) for a in zip(*roots)]


def _grow(nodes, keep) -> list[np.ndarray]:
    """The next level of the branch tree: both children of every node that
    `keep(child level, expanding child's lam)` keeps, expanding children
    first.  `nodes` holds the arrays (series, birth, steps, code, lam) and
    any further per-node arrays, which both children inherit; code holds
    the branch string as bits, 1 for a contracting step."""
    series, birth, steps, code, lam, *inherited = nodes
    disc = np.sqrt(25.0 - 4.0 * lam)
    hi = (5.0 + disc) / 2.0
    kept = keep(birth + steps + 1, hi)
    twice = [
        np.concatenate([a[kept]] * 2) for a in (series, birth, steps + 1, *inherited)
    ]
    code = code[kept] << 1
    lam = np.concatenate([hi[kept], 2.0 * lam[kept] / (5.0 + disc[kept])])
    return twice[:3] + [np.concatenate([code, code | 1]), lam] + twice[3:]


def enumerate_spectrum(cutoff: float) -> SpectrumTable:
    """Every Dirichlet eigenvalue <= cutoff, once per record with multiplicity.

    Breadth-first search over branch prefixes, one `_grow` step per level.
    The partial renormalized value (3/2) 5^m lam_m never decreases along any
    branch, so a node whose expanding child already exceeds
    PRUNE_SAFETY*cutoff has no further records below it.  The canonical
    nodes (no branches, or ending in an expanding step) are queued, and
    their exact limits are taken by `_contracting_limits` whenever more than
    RECORD_CAP are queued and at the end, so an exceeded cap fails without a
    full search.
    """
    if not 0 < cutoff < math.inf:
        raise DomainError(f"cutoff must be positive and finite, got {cutoff}")
    # a root's partial value bounds every record below it from below
    nodes = _roots(lambda level, lam: renormalization_factor(level) * lam <= cutoff)
    if not nodes:
        return _sorted_table([[np.empty(0)] + [np.empty(0, int)] * 4], cutoff)
    scale = np.array(
        [renormalization_factor(k) for k in range(nodes[1].max() + MAX_STEPS + 2)]
    )

    def keep(level, hi):
        # every deeper record below a pruned node contains an expanding step
        # at least this large, so the whole subtree lies above the cutoff
        return scale[level] * hi <= PRUNE_SAFETY * cutoff

    queue, found, queued, count = [], [], 0, 0
    while nodes[0].size:
        canonical = (nodes[3] & 1) == 0
        queue.append([a[canonical] for a in nodes])
        queued += queue[-1][0].size
        nodes = _grow(nodes, keep)
        if queued > RECORD_CAP or not nodes[0].size:
            series, birth, steps, code, lam = (np.concatenate(a) for a in zip(*queue))
            values = _contracting_limits(series, birth, steps, lam)
            below = values <= cutoff
            found.append([a[below] for a in (values, series, birth, steps, code)])
            count += found[-1][0].size
            queue, queued = [], 0
            if count > RECORD_CAP:
                raise ResourceLimitError(
                    f"spectrum enumeration exceeded the record cap "
                    f"{RECORD_CAP} below cutoff {cutoff}"
                )
    return _sorted_table(found, cutoff)


def _sorted_table(found, cutoff: float) -> SpectrumTable:
    """The table of arrays (value, series, birth, steps, code), sorted by
    (value, series, birth, branches) as tuples compare: '+' < '-', and a
    branch string before any longer one it begins."""
    values, series, birth, steps, code = (np.concatenate(a) for a in zip(*found))
    width = int(steps.max(initial=0))
    left = code << (width - steps)  # branch strings aligned at their first step
    order = np.lexsort((steps, left, birth, series, values))
    columns = [a[order] for a in (values, series, birth, steps, code)]
    multiplicity = _by_pair(columns[1], columns[2], series_multiplicity)
    return SpectrumTable(cutoff, *columns, multiplicity.astype(np.int64))


def _records(values, series, birth, steps, code) -> list[EigenvalueRecord]:
    """One record per node, in the order of the arrays."""
    return list(map(
        EigenvalueRecord, series.tolist(), birth.tolist(),
        _by_branch(steps, code, tuple).tolist(), values.tolist(),
        _by_pair(series, birth, series_multiplicity).tolist(),
    ))


def _per_node(keys, label) -> np.ndarray:
    """label(key) of every node's key as an object array, computed once per
    distinct key, so that nodes with equal keys share one label."""
    distinct, index = np.unique(keys, return_inverse=True)
    labels = map(label, distinct.tolist())
    return np.fromiter(labels, dtype=object, count=distinct.size)[index]


def _by_pair(series, birth, label) -> np.ndarray:
    """label(series, birth) of every node."""
    return _per_node(birth * 8 + series, lambda k: label(k % 8, k // 8))  # series < 8


def _by_branch(steps, code, label) -> np.ndarray:
    """label(branch string) of every node."""
    signs = str.maketrans("01", EXPANDING + CONTRACTING)
    # a leading 1 bit marks where each string starts
    return _per_node(code | (1 << steps), lambda k: label(bin(k)[3:].translate(signs)))


@dataclass(frozen=True)
class GraphEigenvalue:
    """A level-m graph eigenvalue with its canonical record."""

    graph_value: float
    series: int
    birth: int
    prefix: tuple[str, ...]
    multiplicity: int
    record: EigenvalueRecord


@functools.cache
def truncated_graph_spectrum(m: int) -> tuple[GraphEigenvalue, ...]:
    """All level-m Dirichlet graph eigenvalues predicted by decimation.

    One entry per level-m node of the tree grown from `enumerate_spectrum`'s
    roots without pruning, and one for the 6-eigenspace born at level m
    (prefix (), record 6:m:+), sorted by (graph value, series, birth,
    prefix).  Each carries its multiplicity and the record of its last
    canonical ancestor (trailing contractions trimmed).  The multiset
    expanded by multiplicity has exactly (3^(m+1)-3)/2 elements.  Cached
    (`validate` reads every level twice); the tuple and entries are frozen.
    """
    if m < 1:
        raise DomainError(f"graph spectra start at level 1, got {m}")
    nodes = _roots(lambda level, lam: level <= m)
    # every node carries its last canonical ancestor's steps, code and lam
    nodes += nodes[2:5]
    leaves = []
    if m > 1:
        # the newborn 6-eigenspace, whose forced step lies beyond level m
        leaves.append([np.array([v]) for v in (6, m, 0, 0, 6.0, 1, 0, 3.0)])
    while nodes[0].size:
        canonical = (nodes[3] & 1) == 0
        nodes[5:] = [np.where(canonical, a, b) for a, b in zip(nodes[2:5], nodes[5:])]
        leaf = nodes[1] + nodes[2] == m
        leaves.append([a[leaf] for a in nodes])
        nodes = _grow(nodes, lambda level, hi: level <= m)
    leaves = [np.concatenate(a) for a in zip(*leaves)]
    order = np.lexsort([leaves[i] for i in (3, 1, 0, 4)])  # code, birth, series, lam
    series, birth, steps, code, lam, *anchor = (a[order] for a in leaves)
    values = _contracting_limits(series, birth, anchor[0], anchor[2])
    records = _records(values, series, birth, anchor[0], anchor[1])
    return tuple(
        GraphEigenvalue(g, r.series, r.birth, prefix, r.multiplicity, r)
        for g, prefix, r in zip(
            lam.tolist(), _by_branch(steps, code, tuple).tolist(), records
        )
    )


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


@dataclass(frozen=True)
class SeparatedFamily:
    """The 5-fold 6-series family and each member's gap to the rest."""

    records: tuple[EigenvalueRecord, ...]
    gaps: tuple[float, ...]


@functools.cache
def separated_sequence(j_max: int) -> SeparatedFamily:
    """6-series records of births 2..max(2, j_max) with 5-fold scaling.

    Each member is the smallest 6-series eigenvalue of its birth (forced
    expanding step, then all-contracting), so consecutive values scale by
    exactly 5.  Gaps to the nearest other eigenvalue come from a full
    enumeration around the family: in its sorted values, the nearest other
    record is a neighbour.  Cached, and immutable as the cache shares it:
    every `clusters` run reads it.
    """
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max}")
    top = max(2, j_max)
    table = enumerate_spectrum(6.0 * eigenvalue_limit(6, top))
    v = table.value
    gaps = np.minimum(np.diff(v, prepend=-np.inf), np.diff(v, append=np.inf))
    # every member is a root of the search, so the table holds it; a
    # 6-series branch string of one step is the forced expanding step
    member = (table.series == 6) & (table.steps == 1) & (table.birth <= top)
    rows = (v, table.series, table.birth, table.steps, table.code)
    return SeparatedFamily(
        tuple(_records(*(a[member] for a in rows))), tuple(gaps[member].tolist())
    )


@functools.cache
def resolvable_window(m: int) -> float:
    """Largest cutoff whose spectrum is fully resolvable at graph level m.

    A record is resolvable when it labels a level-m graph eigenvalue.  The
    infimum of non-resolvable values is attained at a record that first
    labels one at level m + 1: the smallest birth-(m+1) record, or one of
    birth <= m whose single expanding step sits one level beyond the
    truncation.  Cached, as every full-mode Szegő sweep checks its grid
    against it.
    """
    resolved = {g.record.key for g in truncated_graph_spectrum(m)}
    return min(
        g.record.value
        for g in truncated_graph_spectrum(m + 1)
        if g.record.key not in resolved
    )


def spectrum_to_csv(table: SpectrumTable, path) -> None:
    """One row per record, formatted as `serialize.fmt` formats each cell,
    from the arrays: each distinct prefix and branch string is built once,
    and all values are formatted by one `%` into the joined row templates."""
    rows = np.full(table.value.size, "%.17g,", dtype=object)
    rows += _by_pair(
        table.series, table.birth, lambda s, b: f"{s},{b},{series_multiplicity(s, b)},"
    )
    rows += _by_branch(table.steps, table.code, lambda branches: branches + "\n")
    Path(path).write_text(
        "value,series,birth,multiplicity,branches\n"
        + "".join(rows.tolist()) % tuple(table.value.tolist())
        + f"# d_lambda,{table.d_lambda}\n",
        encoding="utf-8",
    )
