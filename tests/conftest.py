import pytest

from gasket_szego import decimation, eigenbasis


@pytest.fixture(scope="session")
def level4():
    return eigenbasis.level_basis(4)


@pytest.fixture(scope="session")
def level5():
    return eigenbasis.level_basis(5)


@pytest.fixture(scope="session")
def level6():
    return eigenbasis.level_basis(6)


# the spectrum tables that covered every level-4 and level-5 eigenvalue
@pytest.fixture(scope="session")
def level4_table():
    return decimation.enumerate_spectrum(30.0 * 5.0 ** 4)


@pytest.fixture(scope="session")
def level5_table():
    return decimation.enumerate_spectrum(30.0 * 5.0 ** 5)
