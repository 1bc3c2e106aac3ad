import pytest

from gasket_szego import decimation, eigenbasis, operators

from dense_oracle import whole_basis


@pytest.fixture(autouse=True)
def _fresh_remainders(request):
    """A test that patches the package sees its patch in the cached lineage
    remainders, newborn remainders and cell Grams: those built by earlier
    tests are dropped, and those it builds are not kept for later tests."""
    patched = "monkeypatch" in request.fixturenames
    if patched:
        _drop_cached_remainders()
    yield
    if patched:
        _drop_cached_remainders()


def _drop_cached_remainders():
    eigenbasis.level_remainder.cache_clear()
    eigenbasis._newborn_remainder.cache_clear()
    operators._level_grams.cache_clear()


# the level workspaces with every eigenspace's vectors, for the oracles and
# the splits; the library's own `level_basis` carries none
@pytest.fixture(scope="session")
def level4():
    return whole_basis(4)


@pytest.fixture(scope="session")
def level5():
    return whole_basis(5)


@pytest.fixture(scope="session")
def level6():
    return whole_basis(6)


# the spectrum tables that covered every level-4 and level-5 eigenvalue
@pytest.fixture(scope="session")
def level4_table():
    return decimation.enumerate_spectrum(30.0 * 5.0 ** 4)


@pytest.fixture(scope="session")
def level5_table():
    return decimation.enumerate_spectrum(30.0 * 5.0 ** 5)
