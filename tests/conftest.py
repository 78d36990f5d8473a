import sys

import pytest

from rlx.enumeration import all_algebras
from rlx.fixtures import pentagon_godel, pentagon_stacked


@pytest.fixture(scope="session")
def E1():
    return pentagon_godel()


@pytest.fixture(scope="session")
def E2():
    return pentagon_stacked()


@pytest.fixture(scope="session")
def corpus5():
    out = []
    for n in range(1, 6):
        out.extend(all_algebras(n))
    return out


@pytest.fixture(scope="session")
def corpus4():
    out = []
    for n in range(1, 5):
        out.extend(all_algebras(n))
    return out


@pytest.fixture(scope="session")
def corpus6():
    return all_algebras(6)


def clear_memos():
    """Empty every memo of the loaded rlx modules: the validate memos, the
    shared element sets and every cache keyed by an algebra."""
    for name, module in list(sys.modules.items()):
        if name.startswith("rlx."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture
def cold_caches():
    """Every memo emptied, so a test sees only what it stores itself."""
    clear_memos()
