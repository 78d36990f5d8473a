import sys
from pathlib import Path

import pytest

# The oracles check with plain asserts.  Rewritten like a test module's,
# they raise under python -O too; this must run before `oracles` is
# imported.
pytest.register_assert_rewrite("oracles")

from rlx.enumeration import all_algebras
from rlx.io import load_rlat

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def E1():
    """The five-element Goedel algebra on the lozenge-with-top order:
    0 < a,b < c < 1 (a || b), odot = meet.

    Idempotents are everything; the Boolean center is {0, 1}; the radical
    {c, 1} fails Boolean lifting while idempotent lifting holds globally.
    """
    return load_rlat(FIXTURES / "pentagon_godel.rlat")


@pytest.fixture(scope="session")
def E2():
    """The six-element algebra on the pentagon-with-top order:
    0 < d < c < a < 1 and 0 < b < a.

    Idempotents are {0, a, b, d, 1}; the Boolean center is {0, 1}; the
    regulars are {0, b, c, 1} (!!d = c, !!a = 1).  Idempotent lifting holds
    globally; Boolean lifting fails only at the radical {a, 1}, whose
    quotient is 2x2 with b/{a, 1} not liftable.
    """
    return load_rlat(FIXTURES / "pentagon_stacked.rlat")


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


@pytest.fixture(scope="session")
def corpus7():
    return all_algebras(7)


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
