from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from newton_cocenter import AffineWeylGroup, build_root_datum
from newton_cocenter.affine_weyl import inverse, multiply
from newton_cocenter.root_datum import Coweight, coset_reduce, dot

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


def oracle_rational_inverse(u):
    """Exact inverse of an invertible integer matrix, over the rationals:
    Gauss-Jordan elimination on Fractions, the engine's inverse before
    `root_datum.integer_inverse`."""
    n = len(u)
    aug = [[Fraction(u[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n + j] for j in range(n)) for i in range(n))


def oracle_levi_grid(group, max_den=6):
    """One coweight per Levi, found by the coordinate scan that listed
    the Levis of the verify suites before `parabolic_faces`: the first
    point with that Levi of the denominator grid up to max_den at rank
    <= 2, and of {0, 1/2, 1, 2}^rank above, the Levis sorted by their
    roots.  The value set misses every Levi whose coweight needs more
    than 4 distinct coordinates, so GL5's grid lacks the torus."""
    if group.datum.rank <= 2:
        d = lcm(*range(1, max_den + 1))
        grid = sorted({p * (d // q) for q in range(1, max_den + 1)
                       for p in range(-q, q + 1)})
    else:
        d, grid = 2, [0, 1, 2, 4]
    seen = {}
    for x in product(grid, repeat=group.datum.rank):
        seen.setdefault(frozenset(a for a in group.datum.roots if dot(a, x) == 0), x)
    return [Coweight(d, seen[k]) for k in sorted(seen, key=lambda s: tuple(sorted(s)))]


# -- the word-based canonical order, from products and lengths --------------
#
# The oracles of `canonical_order` and of the grammar suite's affine
# words, on the ambient group and on every Levi: each descent is found by
# multiplying by every wall and comparing lengths, with no descent flag
# and no memo of its own.


def oracle_descent(ctx, w):
    """(label, s w) for the least wall s of ctx with s w shorter than w."""
    length = ctx.length(w)
    for lab, s in ctx.simple_items():
        sw = multiply(s, w)
        if ctx.length(sw) < length:
            return lab, sw
    raise AssertionError("no descent")


def oracle_omega(ctx, label):
    """The length-zero element of the kappa coset of label."""
    w = ctx.translation(coset_reduce(tuple(label), ctx.coroot_hnf))
    while ctx.length(w) > 0:
        w = oracle_descent(ctx, w)[1]
    return w


def oracle_word(ctx, w):
    """The greedy lex-least reduced word of w omega^{-1}, omega the
    length-zero element of w's kappa coset."""
    cur, word = multiply(w, inverse(oracle_omega(ctx, ctx.kappa(w)))), []
    while ctx.length(cur) > 0:
        lab, cur = oracle_descent(ctx, cur)
        word.append(lab)
    assert cur == ctx.identity
    return tuple(word)


def oracle_sort_key(ctx, w):
    """(length, kappa, word): the canonical order as a sort key."""
    return ctx.length(w), ctx.kappa(w), oracle_word(ctx, w)


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
