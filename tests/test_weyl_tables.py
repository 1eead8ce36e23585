"""Differential tests: the per-datum W0 index tables against plain
matrix arithmetic, over every supported root datum.

The oracles below are the matrix algorithms the tables replaced: a
breadth-first closure of the simple reflections under matrix products,
exact inverses, matrix powers for the order, and the dominant-chamber
walk on Fractions.
"""

from fractions import Fraction
from itertools import product

import pytest

from newton_cocenter import AffineWeylElement, AffineWeylGroup, build_root_datum
from newton_cocenter.affine_weyl import inverse, multiply
from newton_cocenter.errors import LogicError
from newton_cocenter.levi_alcove import LeviWeylGroup
from newton_cocenter.root_datum import (
    WeylElement, coweight, dot, levi_datum, mat_act, mat_identity, mat_mul,
    rational_inverse,
)

F = Fraction

DATA = [(label, lattice) for label in ("A1", "A2", "B2", "C2", "G2")
        for lattice in ("sc", "ad")] + [(f"GL{n}", "gl") for n in range(1, 6)]

_BUILT = {}


def datum_of(label, lattice):
    if (label, lattice) not in _BUILT:
        _BUILT[label, lattice] = build_root_datum(label, lattice)
    return _BUILT[label, lattice]


def plain(u):
    return tuple(tuple(row) for row in u)


def reflection_matrix(a, av):
    n = len(a)
    return tuple(tuple(int(i == j) - a[j] * av[i] for j in range(n))
                 for i in range(n))


def matrix_bfs(gens, n):
    ident = mat_identity(n)
    seen, frontier = {ident}, [ident]
    while frontier:
        u = frontier.pop()
        for s in gens:
            w = mat_mul(s, u)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return tuple(sorted(seen))


def matrix_inverse(u):
    return tuple(tuple(int(x) for x in row) for row in rational_inverse(u))


def matrix_order(u):
    ident = mat_identity(len(u))
    power, order = u, 1
    while power != ident:
        power, order = mat_mul(power, u), order + 1
    return order


def covector_action(u, a):
    uinv = matrix_inverse(u)
    n = len(a)
    return tuple(sum(a[i] * uinv[i][j] for i in range(n)) for j in range(n))


def fraction_walk(v, walls, n):
    """The dominant-chamber walk as it ran before: Fractions throughout,
    u accumulated by matrix products."""
    v = coweight(v)
    u = mat_identity(n)
    while True:
        for a, av in walls:
            c = dot(a, v)
            if c < 0:
                v = tuple(vi - c * wi for vi, wi in zip(v, av))
                u = mat_mul(reflection_matrix(a, av), u)
                break
        else:
            return v, u


@pytest.mark.parametrize("label,lattice", DATA)
def test_elements_match_matrix_bfs(label, lattice):
    d = datum_of(label, lattice)
    gens = [reflection_matrix(a, av)
            for a, av in zip(d.simple_roots, d.simple_coroots)]
    assert tuple(map(plain, d.weyl_elements)) == matrix_bfs(gens, d.rank)
    assert d.w0_order == len(d.weyl_elements)
    assert tuple(map(plain, d.simple_reflections)) == tuple(gens)
    assert d.weyl_identity == mat_identity(d.rank)
    for i, u in enumerate(d.weyl_elements):
        assert type(u) is WeylElement and u.index == i and u.datum is d


@pytest.mark.parametrize("label,lattice", DATA)
def test_interned_equal_and_hash_equal_to_plain(label, lattice):
    d = datum_of(label, lattice)
    for u in d.weyl_elements:
        p = plain(u)
        assert type(p) is tuple
        assert u == p and p == u and hash(u) == hash(p)
        assert d.intern(p) is u
        assert {p: 1}[u] == 1


@pytest.mark.parametrize("label,lattice", DATA)
def test_products_inverses_orders_and_root_action(label, lattice):
    d = datum_of(label, lattice)
    elems = d.weyl_elements
    for u in elems:
        for v in elems:
            uv = d.product(u, v)
            assert uv == mat_mul(u, v)
            assert uv is elems[uv.index]
        inv = d.finite_inverse(u)
        assert inv == matrix_inverse(u) and type(inv) is WeylElement
        assert d.element_order(u) == matrix_order(u)
        perm = d.root_permutation(u)
        for i, a in enumerate(d.roots):
            b = covector_action(u, a)
            assert d.act_covector(u, a) == b
            assert d.roots[perm[i]] == b
    for a in d.roots:
        assert d.reflection(a) == reflection_matrix(a, d.coroot[a])


@pytest.mark.parametrize("label,lattice", DATA)
def test_plain_matrices_give_the_interned_results(label, lattice):
    d = datum_of(label, lattice)
    g = AffineWeylGroup(d)
    elems = d.weyl_elements
    # every pair on small groups, a fixed stride of pairs on GL4 and GL5
    step = 1 if len(elems) <= 12 else 7
    lam = tuple(range(1, d.rank + 1))
    mu = tuple((-1) ** i * i for i in range(d.rank))
    for i, u in enumerate(elems):
        w1 = AffineWeylElement(lam, u)
        p1 = AffineWeylElement(lam, plain(u))
        assert inverse(p1) == inverse(w1)
        assert d.product(plain(u), u) == d.product(u, u)
        assert g.length(p1) == g.length(w1)
        for v in elems[i % step::step]:
            w2 = AffineWeylElement(mu, v)
            p2 = AffineWeylElement(mu, plain(v))
            expected = multiply(w1, w2)
            assert type(expected.finite) is WeylElement
            assert multiply(p1, p2) == expected
            assert multiply(p1, w2) == expected
            assert multiply(w1, p2) == expected


def test_elements_of_another_datum_are_looked_up_by_value():
    d1 = build_root_datum("GL", rank=3)
    d2 = build_root_datum("GL", rank=3)
    for u in d1.weyl_elements:
        for v in d2.weyl_elements:
            assert d1.product(u, v) == mat_mul(u, v)
            assert d1.product(u, v).datum is d1
        assert d2.intern(u) is d2.weyl_elements[u.index]


def test_matrices_outside_w0_are_refused():
    d = datum_of("A2", "sc")
    u = d.simple_reflections[0]
    outside = ((2, 0), (0, 1))
    for call in (lambda: d.intern(outside),
                 lambda: d.product(u, outside), lambda: d.product(outside, u),
                 lambda: d.finite_inverse(outside), lambda: d.element_order(outside),
                 lambda: d.root_permutation(outside),
                 lambda: d.act_covector(outside, d.roots[0])):
        with pytest.raises(LogicError, match="not in W0"):
            call()
    with pytest.raises(LogicError, match="not a root"):
        d.act_covector(u, (1, 0))


# the dominant_rep samples of test_root_datum.py, with their W0 images
SAMPLES = [
    ("GL5", "gl", [coweight([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)])]),
    ("A1", "sc", [coweight([-1])]),
    ("C2", "sc", [coweight([0, 0]), coweight([F(1, 2), F(-1, 3)]), coweight([-2, 1]),
                  coweight([F(5, 6), F(5, 6)]), coweight([F(1, 2), F(1, 2)])]),
    ("A2", "sc", [coweight([1, 0]), coweight([F(1, 3), F(-1, 2)])]),
    ("G2", "sc", [coweight([1, 0]), coweight([F(1, 3), F(-1, 2)]),
                  coweight([F(1, 2), 0])]),
]


@pytest.mark.parametrize("label,lattice,samples", SAMPLES)
def test_integer_dominant_rep_equals_fraction_walk(label, lattice, samples):
    d = datum_of(label, lattice)
    walls = list(zip(d.simple_roots, d.simple_coroots))
    for v in samples:
        for u in d.weyl_elements:
            x = mat_act(u, v)
            vbar, w = d.dominant_rep(x)
            assert (vbar, w) == fraction_walk(x, walls, d.rank)
            assert all(type(c) is Fraction for c in vbar)


def _levi_grid(d):
    values = (F(-1), F(-1, 2), F(0), F(1, 3), F(1))
    if d.rank > 3:
        values = (F(0), F(1, 2), F(1))
    return [coweight(c) for c in product(values, repeat=d.rank)]


@pytest.mark.parametrize("label,lattice", DATA)
def test_levi_fixer_equals_reflection_closure(label, lattice):
    d = datum_of(label, lattice)
    for v in _levi_grid(d):
        zero = [a for a in d.roots if dot(a, v) == 0]
        gens = [reflection_matrix(a, d.coroot[a]) for a in zero]
        assert tuple(map(plain, levi_datum(d, v).w_m)) == matrix_bfs(gens, d.rank)


@pytest.mark.parametrize("label,lattice", [("C2", "sc"), ("G2", "ad"), ("GL4", "gl")])
def test_levi_dominant_rep_equals_fraction_walk(label, lattice):
    d = datum_of(label, lattice)
    g = AffineWeylGroup(d)
    for v in _levi_grid(d)[::3]:
        m = LeviWeylGroup(g, v)
        walls = [(a, d.coroot[a]) for a in m._m_simple_roots]
        for x in _levi_grid(d)[::5]:
            assert m.dominant_rep(x) == fraction_walk(x, walls, d.rank)
