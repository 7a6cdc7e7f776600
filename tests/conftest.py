import pytest
from hypothesis import settings

# property tests stay deterministic and bounded, like the rest of the suite
settings.register_profile("genxmod", derandomize=True, database=None, max_examples=200, deadline=None)
settings.load_profile("genxmod")

from genxmod.fixtures import a3_s3, gx1, gx3
from genxmod.search import standard_pool


@pytest.fixture(scope="session")
def pool4():
    return standard_pool(4)


@pytest.fixture(scope="session")
def pool6():
    return standard_pool(6)


@pytest.fixture(scope="session")
def pool8():
    return standard_pool(8)


@pytest.fixture(scope="session")
def base_gx1():
    return gx1()


@pytest.fixture(scope="session")
def base_gx3():
    return gx3()


@pytest.fixture(scope="session")
def base_a3s3():
    return a3_s3()
