"""Differential tests: the memoised Newton and Levi layers against
uncached computations.

Newton points and dominant representatives are memoised per group (the
Newton points on the ambient group, shared by its Levis; the dominant
representatives per context), as `Coweight`s.  The oracles below
recompute everything from scratch in Fraction arithmetic: the orbit
average with the order found by matrix powers and the dominant chamber
walk on Fractions, compared through `coweight`; the grammar suite's
affine word in each Levi is checked against the greedy descent word of
conftest.  The verify coweight grid and the Levi root partitions, now
paired on integers, are checked against the Fraction pairings they
replaced.
"""

import gc
import weakref
from fractions import Fraction
from itertools import product

import pytest

from newton_cocenter import AffineWeylGroup, NewtonIndex, build_root_datum
from newton_cocenter.levi_alcove import levi_weyl_group, phi_plus
from newton_cocenter.newton import newton_index, newton_point
from newton_cocenter.root_datum import Coweight, coweight, dot, mat_identity, mat_mul
from newton_cocenter.verify import _affine_word, _levi_box, _levi_faces
from conftest import oracle_levi_grid, oracle_word

GROUPS = [(label, lattice, radius) for label in ("A1", "A2", "B2", "C2", "G2")
          for lattice, radius in (("sc", 4), ("ad", 4))] + \
    [("GL2", "gl", 4), ("GL3", "gl", 3), ("GL4", "gl", 3)]


def fresh_group(label, lattice):
    return AffineWeylGroup(build_root_datum(label, lattice))


def oracle_newton_point(w):
    u = tuple(map(tuple, w.finite))
    n = len(u)
    power, order = u, 1
    while power != mat_identity(n):
        power, order = mat_mul(power, u), order + 1
    total = [Fraction(0)] * n
    cur = [Fraction(x) for x in w.translation]
    for _ in range(order):
        total = [a + b for a, b in zip(total, cur)]
        cur = [sum(Fraction(r) * c for r, c in zip(row, cur)) for row in u]
    return tuple(t / order for t in total)


def oracle_dominant(x, walls):
    x = [Fraction(c) for c in x]
    while True:
        for a, av in walls:
            c = sum(Fraction(p) * q for p, q in zip(a, x))
            if c < 0:
                x = [xi - c * vi for xi, vi in zip(x, av)]
                break
        else:
            return tuple(x)


def ambient_walls(g):
    return list(zip(g.datum.simple_roots, g.datum.simple_coroots))


def levi_walls(m):
    return [(a, m.datum.coroot[a]) for a in m.m_simple_roots]


@pytest.mark.parametrize("label,lattice,radius", GROUPS)
def test_memoised_ambient_newton_equals_uncached(label, lattice, radius):
    g = fresh_group(label, lattice)
    ball = g.enumerate_ball(radius)
    walls = ambient_walls(g)
    for w in ball:
        nu = oracle_newton_point(w)
        first = newton_point(g, w)
        assert first == coweight(nu) and type(first) is Coweight
        assert newton_point(g, w) is first
        expected = NewtonIndex(g.kappa(w), coweight(oracle_dominant(nu, walls)))
        assert newton_index(g, w) == expected
        assert newton_index(g, w) == expected


@pytest.mark.parametrize("label,lattice,radius", GROUPS)
def test_memoised_levi_newton_and_word_equal_uncached(label, lattice, radius):
    g = fresh_group(label, lattice)
    for v in _levi_faces(g):
        m = levi_weyl_group(g, v)
        assert m.newton_points is g.newton_points
        walls = levi_walls(m)
        for w in _levi_box(g, m, 3):
            expected = NewtonIndex(
                m.kappa(w), coweight(oracle_dominant(oracle_newton_point(w), walls)))
            assert m.newton_index(w) == expected
            assert newton_index(m, w) == expected
            assert _affine_word(m, w) == oracle_word(m, w)


def fraction_levi_grid(g, max_den):
    """The Levi grid walked on Fractions, as it was before the integer walk."""
    if g.datum.rank <= 2:
        values = sorted({Fraction(p, q) for q in range(1, max_den + 1)
                         for p in range(-q, q + 1)})
    else:
        values = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    seen = {}
    for coords in product(values, repeat=g.datum.rank):
        m_key = frozenset(a for a in g.datum.roots if dot(a, coords) == 0)
        seen.setdefault(m_key, tuple(coords))
    return [seen[k] for k in sorted(seen, key=lambda s: tuple(sorted(s)))]


@pytest.mark.parametrize("label,lattice", [(label, lattice) for label, lattice, _ in GROUPS])
def test_integer_levi_pairings_equal_fraction_pairings(label, lattice):
    # the grid of the oracle and the faces of the suites, each paired on Fractions
    g = fresh_group(label, lattice)
    pairs = [(v, [Fraction(c, v.d) for c in v.x]) for v in _levi_faces(g)]
    for max_den in (4, 6):
        grid, oracle = oracle_levi_grid(g, max_den), fraction_levi_grid(g, max_den)
        assert grid == [coweight(v) for v in oracle]
        pairs += zip(grid, oracle)
    assert all(type(v) is Coweight for v, _ in pairs)
    for v, fv in pairs:
        levi = levi_weyl_group(g, v)
        assert levi.phi_m == tuple(a for a in g.datum.roots if dot(a, fv) == 0)
        assert phi_plus(g, v) == tuple(a for a in g.datum.roots if dot(a, fv) > 0)


def test_group_with_levis_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        g = fresh_group("A2", "sc")
        m = levi_weyl_group(g, coweight([1, 0]))
        m.newton_index(g.translation((1, -1)))
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()
