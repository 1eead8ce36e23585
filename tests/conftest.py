import pytest

from newton_cocenter import AffineWeylGroup, build_root_datum

# every supported (label, lattice) pair
ALL_DATA = [(label, lattice) for label in ("A1", "A2", "B2", "C2", "G2")
            for lattice in ("sc", "ad")] + [(f"GL{n}", "gl") for n in range(1, 6)]

_GROUPS = {}


def group(label, lattice="sc"):
    key = (label, lattice)
    if key not in _GROUPS:
        _GROUPS[key] = AffineWeylGroup(build_root_datum(label, lattice))
    return _GROUPS[key]


def kappa_labels(m):
    """The distinct kappa labels of a context at 0 and at the unit
    vectors with both signs."""
    n = m.datum.rank
    units = [tuple(sign * int(i == j) for j in range(n))
             for i in range(n) for sign in (1, -1)]
    return sorted({m.kappa(m.translation(lam)) for lam in [(0,) * n] + units})


@pytest.fixture
def a1():
    return group("A1")


@pytest.fixture
def a2():
    return group("A2")


@pytest.fixture
def c2():
    return group("C2")


@pytest.fixture
def g2():
    return group("G2")


@pytest.fixture
def gl2():
    return group("GL2")


@pytest.fixture
def gl5():
    return group("GL5")
