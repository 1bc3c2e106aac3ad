"""Checks that need no oracle: exact relations every compression of a
multiplication symbol obeys, whatever the level.

Over every eigenspace of level m the basis is complete, so the compression
of multiplication by chi is unitarily similar to [chi] itself: its spectrum
is chi's interior vertex values.  The gasket's symmetry group D3 permutes
the digits of every cell word, and every eigenspace is D3-invariant, so
chi composed with a digit permutation compresses to the same spectrum.  And
a chi + b compresses to a Gamma + b.  Each relation runs on both compression
paths: the cached cell Grams (chi simple at level 1, from m = 5 on) and the
product over the remainder columns (chi simple at level 2).  Tolerances are
multiples of eps n sup|chi|, the rounding of an n-term orthogonal sum.  The
Schrodinger operator p(-Delta) + [chi] over the whole basis obeys two of
them at every level up to the cap, with p = sqrt and a tolerance of
eps n max|nu| over its spectrum nu: it keeps its spectrum under the digit
permutations, and with chi = b constant its spectrum is p of the level's
eigenvalues, repeated by multiplicity, plus b.
"""
import itertools
import math

import numpy as np
import pytest

from gasket_szego import clusters, eigenbasis, operators
from gasket_szego.gasket import SimpleFunction, build_vertices, vertex_values

EPS = np.finfo(float).eps
CASES = [(m, k) for m in (5, 6, 7) for k in (1, 2)]
SCHRODINGER_CASES = [(m, 1) for m in (5, 6, 7, 8)] + [(m, 2) for m in (5, 6)]


def _random_chi(m: int, k: int) -> SimpleFunction:
    rng = np.random.default_rng(100 * m + k)
    return SimpleFunction(k, rng.uniform(0.5, 2.0, 3**k))


def _whole_spectrum(chi: SimpleFunction, m: int) -> np.ndarray:
    """The eigenvalues of chi's compression over every level-m eigenspace."""
    selection = operators.leading_selection(eigenbasis.level_basis(m))
    op = operators.compress(operators.multiplication_symbol(chi), selection)
    return operators.operator_eigenvalues(op)


def _tolerance(chi: SimpleFunction, m: int) -> float:
    return EPS * build_vertices(m).n_interior * float(np.max(np.abs(chi.values)))


def _digit_permuted(chi: SimpleFunction, sigma) -> SimpleFunction:
    """chi composed with the D3 element that maps digit d to sigma[d] in
    every cell word: the value of the cell with word w is chi's value of
    the cell with word sigma(w)."""
    words = np.array(list(itertools.product(range(3), repeat=chi.level)))
    mapped = np.asarray(sigma)[words]
    index = mapped @ 3 ** np.arange(chi.level - 1, -1, -1)
    return SimpleFunction(chi.level, chi.values[index])


@pytest.mark.parametrize("m, k", CASES)
def test_compression_paths_are_both_covered(m, k):
    # k = 1 compresses from the cached cell Grams, k = 2 by the product
    assert (operators._level_grams(m, k) is not None) == (k == 1)


@pytest.mark.parametrize("m, k", CASES)
def test_whole_basis_spectrum_is_the_vertex_values(m, k):
    chi = _random_chi(m, k)
    vertices = build_vertices(m)
    expected = np.sort(vertex_values(chi, vertices)[vertices.interior])
    got = _whole_spectrum(chi, m)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= _tolerance(chi, m)


@pytest.mark.parametrize("m, k", CASES)
def test_digit_permutations_keep_the_spectrum(m, k):
    chi = _random_chi(m, k)
    reference = _whole_spectrum(chi, m)
    for sigma in itertools.permutations(range(3)):
        permuted = _digit_permuted(chi, sigma)
        if sigma != (0, 1, 2):
            assert not np.array_equal(permuted.values, chi.values)
        got = _whole_spectrum(permuted, m)
        assert np.max(np.abs(got - reference)) <= 2 * _tolerance(chi, m), sigma


def test_a_permutation_that_is_no_symmetry_moves_the_spectrum():
    # swapping the values of two 2-cells that no digit permutation relates
    # (00 and 01: a corner cell and one beside the middle) changes the
    # vertex values, and the relation sees it
    chi = _random_chi(5, 2)
    values = chi.values.copy()
    values[[0, 1]] = values[[1, 0]]
    swapped = _whole_spectrum(SimpleFunction(2, values), 5)
    assert np.max(np.abs(swapped - _whole_spectrum(chi, 5))) > 1e3 * _tolerance(chi, 5)


@pytest.mark.parametrize("m, k", CASES)
@pytest.mark.parametrize("a, b", [(2.5, -0.75), (-1.5, 3.0)])
def test_an_affine_map_of_chi_maps_the_spectrum(m, k, a, b):
    chi = _random_chi(m, k)
    mapped = SimpleFunction(k, a * chi.values + b)
    expected = np.sort(a * _whole_spectrum(chi, m) + b)
    got = _whole_spectrum(mapped, m)
    assert np.max(np.abs(got - expected)) <= 4 * abs(a) * _tolerance(chi, m) + EPS * abs(b)


def _schrodinger_tolerance(nu: np.ndarray, m: int) -> float:
    return EPS * build_vertices(m).n_interior * float(np.max(np.abs(nu)))


@pytest.mark.parametrize("m, k", SCHRODINGER_CASES)
def test_digit_permutations_keep_the_schrodinger_spectrum(m, k):
    chi = _random_chi(m, k)
    reference = clusters.schrodinger_spectrum(math.sqrt, chi, m)
    tolerance = _schrodinger_tolerance(reference, m)
    for sigma in itertools.permutations(range(3)):
        got = clusters.schrodinger_spectrum(math.sqrt, _digit_permuted(chi, sigma), m)
        assert np.max(np.abs(got - reference)) <= tolerance, sigma


@pytest.mark.parametrize("m, k", SCHRODINGER_CASES)
def test_a_constant_potential_shifts_the_schrodinger_spectrum(m, k):
    b = 0.75
    got = clusters.schrodinger_spectrum(math.sqrt, SimpleFunction(k, np.full(3**k, b)), m)
    records = [bundle.record for bundle in eigenbasis.level_basis(m).bundles]
    expected = np.sort(np.repeat(
        [math.sqrt(rec.value) + b for rec in records], [rec.multiplicity for rec in records]
    ))
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= _schrodinger_tolerance(got, m)
