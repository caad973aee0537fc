import pytest

from polarcheck import specs
from polarcheck.numerics import ToleranceConfig


@pytest.fixture
def tol():
    return ToleranceConfig()


@pytest.fixture(autouse=True)
def fresh_factor_cache():
    # named factors are cached for the life of a process; a test that
    # patches a builder must see it called, and leave no patched factor
    # behind for the next test
    specs._named_factor.cache_clear()
    yield
    specs._named_factor.cache_clear()
