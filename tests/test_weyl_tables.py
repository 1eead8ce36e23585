"""Differential tests: the per-datum W0 index tables against plain
matrix arithmetic, over every supported root datum.

The oracles below are the matrix algorithms the tables replaced: a
breadth-first closure of the simple reflections under matrix products,
exact inverses, matrix powers for the order, and the dominant-chamber
walk on Fractions.  The root heights and positive roots are checked
against the height coweight the datum once solved for over Fractions.
W0, which the datum now builds on demand, is checked against the
level-by-level enumeration that once built all of it with the datum,
and the Levi groups it now generates from their reflections against
the filter of W0 by the fixer condition that once cut them out.  The
orders of W0 and of the Levi groups, now read off the exponents, are
checked against the elements.
"""

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from newton_cocenter import AffineWeylElement, AffineWeylGroup, build_root_datum, cli, reduction
from newton_cocenter.affine_weyl import AffineRoot, inverse, multiply
from newton_cocenter.errors import LogicError
from newton_cocenter.levi_alcove import levi_weyl_group
from newton_cocenter.reduction import max_finite_parabolic_order
from newton_cocenter.root_datum import (
    Coweight, WeylElement, coweight, dot, mat_act, mat_identity, mat_mul, weyl_exponents,
)
from newton_cocenter.verify import _levi_faces, run_suite
from conftest import oracle_rational_inverse, oracle_word

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
    return tuple(tuple(int(x) for x in row) for row in oracle_rational_inverse(u))


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


def fractions_of(v):
    """The coordinates of a Coweight as Fractions."""
    return tuple(F(c, v.d) for c in v.x)


def fraction_act(u, v):
    """The matrix u applied to a vector of Fractions."""
    return tuple(sum(r * c for r, c in zip(row, v)) for row in u)


def fraction_walk(v, walls, n):
    """The dominant-chamber walk as it ran before: Fractions throughout,
    u accumulated by matrix products."""
    v = tuple(F(c) for c in v)
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
    # the index is a dense handle into the elements met, in the order met
    assert sorted(u.index for u in d.weyl_elements) == list(range(d.w0_order))
    for u in d.weyl_elements:
        assert type(u) is WeylElement and d.materialised[u.index] is u and u.datum is d


def fraction_height(d):
    """The height coweight as it was solved for before: the rational
    coweight pairing to 1 with every simple root, by Gaussian
    elimination over Fractions."""
    n, rows = d.rank, d.simple_roots
    aug = [[Fraction(rows[i][j]) for j in range(n)] for i in range(len(rows))]
    rhs = [Fraction(1)] * len(rows)
    sol = [Fraction(0)] * n
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        p = aug[r][col]
        aug[r] = [x / p for x in aug[r]]
        rhs[r] = rhs[r] / p
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
                rhs[i] -= f * rhs[r]
        pivots.append((r, col))
        r += 1
    for row, col in reversed(pivots):
        sol[col] = rhs[row] - sum(aug[row][j] * sol[j] for j in range(n) if j != col)
    return tuple(sol)


@pytest.mark.parametrize("label,lattice", DATA)
def test_integer_heights_match_the_fraction_height_solve(label, lattice):
    d = datum_of(label, lattice)
    hv = fraction_height(d)
    assert all(dot(a, hv) == 1 for a in d.simple_roots)
    assert d.positive_roots == tuple(a for a in d.roots if dot(a, hv) > 0)
    assert set(d.height) == set(d.roots)
    for a in d.roots:
        assert type(d.height[a]) is int and d.height[a] == dot(a, hv)
    # theta, the root of the affine wall, is the same highest root
    g = AffineWeylGroup(d)
    affine = [s for lab, s in g.simple_items() if lab == 0]
    if d.positive_roots:
        theta = max(d.positive_roots, key=lambda a: dot(a, hv))
        assert affine == [g.reflection(AffineRoot(theta, 1))]
    else:
        assert affine == []


@pytest.mark.parametrize("label,lattice", DATA)
def test_root_permutations_compose_along_words(label, lattice):
    d = datum_of(label, lattice)
    g = AffineWeylGroup(d)
    index = {a: i for i, a in enumerate(d.roots)}
    simple = [tuple(index[tuple(x - dot(a, bv) * y for x, y in zip(a, b))]
                    for a in d.roots)
              for b, bv in zip(d.simple_roots, d.simple_coroots)]
    for u in d.weyl_elements:
        perm = tuple(range(len(d.roots)))
        for i in oracle_word(g, g.finite_element(u)):
            perm = tuple(perm[k] for k in simple[i - 1])
        assert d.root_permutation(u) == perm


def test_no_fraction_is_created_building_a_group(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for label, lattice in DATA:
        AffineWeylGroup(build_root_datum(label, lattice))
    assert made == []


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
            assert uv is d.intern(plain(uv)) and d.materialised[uv.index] is uv
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
        w = d2.intern(u)
        assert w == u and w.datum is d2 and d2.materialised[w.index] is w


def test_matrices_outside_w0_are_refused():
    d = build_root_datum("A2")
    gl2 = build_root_datum("GL", rank=2)
    u = d.simple_reflections[0]
    outside = ((2, 0), (0, 1))
    calls = (lambda: d.intern(outside),
             lambda: d.product(u, outside), lambda: d.product(outside, u),
             lambda: d.finite_inverse(outside), lambda: d.element_order(outside),
             lambda: d.root_permutation(outside),
             lambda: d.act_covector(outside, d.roots[0]),
             # -1 permutes the roots of GL2 as s1 does, but is not in W0
             lambda: gl2.intern(((-1, 0), (0, -1))),
             lambda: gl2.product(gl2.weyl_identity, ((-1, 0), (0, -1))))
    # refused with W0 not yet complete (the first call completes it), then again
    assert len(d.materialised) < 6 and len(gl2.materialised) == 2
    for _ in range(2):
        for call in calls:
            with pytest.raises(LogicError, match="not in W0"):
                call()
        assert d.w0_order == 6 and gl2.w0_order == 2
    with pytest.raises(LogicError, match="not a root"):
        d.act_covector(u, (1, 0))


def level_enumeration(d):
    """W0 as the datum once built it, all at once: level by level in
    length, each u s built exactly when s is the least right descent of
    u s, by the rank-one update u s = u - u(alpha_s^vee) alpha_s^T.
    Returns {root permutation: matrix}; it reads only the roots and
    coroots of d."""
    roots, index = d.roots, d.root_index
    tau = [int(d.is_positive_root(a)) for a in roots]
    coroots = [d.coroot[a] for a in roots]
    simple_perms = [tuple(index[tuple(x - dot(a, bv) * y for x, y in zip(a, b))]
                          for a in roots)
                    for b, bv in zip(d.simple_roots, d.simple_coroots)]
    simple = [(index[a], a, sperm, [sperm[index[b]] for b in d.simple_roots[:j]])
              for j, (a, sperm) in enumerate(zip(d.simple_roots, simple_perms))]
    level = [(tuple(range(len(roots))), mat_identity(d.rank))]
    table = dict(level)
    for _ in range(len(d.positive_roots) + 1):
        new = []
        for perm, u in level:
            for i, a, sperm, lower in simple:
                k = perm[i]
                if tau[k] and all(tau[perm[j]] for j in lower):
                    us = tuple(tuple(x - ci * y for x, y in zip(row, a))
                               for row, ci in zip(u, coroots[k]))
                    new.append((tuple(perm[p] for p in sperm), us))
        table.update(new)
        level = new
    assert level == [] and len(set(table.values())) == len(table)
    return table


def compose(p, q):
    return tuple(p[i] for i in q)


def perm_inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_order(p):
    """The lcm of the cycle lengths of p."""
    seen, order = set(), 1
    for start in range(len(p)):
        size, i = 0, start
        while i not in seen:
            seen.add(i)
            i, size = p[i], size + 1
        if size:
            order = lcm(order, size)
    return order


def check_against(oracle, d, u):
    """u, its root permutation, inverse and order as the oracle has them."""
    perm = d.root_permutation(u)
    assert type(u) is WeylElement and u.datum is d and oracle[perm] == u
    inv = d.finite_inverse(u)
    assert d.root_permutation(inv) == perm_inverse(perm) and oracle[perm_inverse(perm)] == inv
    assert d.element_order(u) == perm_order(perm)
    return perm


@pytest.mark.parametrize("label,lattice", DATA)
def test_lazy_tables_equal_the_level_enumeration(label, lattice):
    d = build_root_datum(label, lattice)
    oracle = level_enumeration(d)
    # on demand: reflections, then products among the elements their
    # descent chains built, all before W0 is complete
    for a in d.roots:
        av = d.coroot[a]
        s_a = tuple(d.root_index[tuple(x - dot(b, av) * y for x, y in zip(b, a))]
                    for b in d.roots)
        assert d.root_permutation(d.reflection(a)) == s_a
        assert d.reflection(a) == oracle[s_a]
    met = list(d.materialised)
    for u in met:
        pu = check_against(oracle, d, u)
        for v in met[:12]:
            pv = d.root_permutation(v)
            uv = d.product(u, v)
            assert d.root_permutation(uv) == compose(pu, pv) and oracle[compose(pu, pv)] == uv
    assert [u.index for u in d.materialised] == list(range(len(d.materialised)))
    assert len(set(d.materialised)) == len(d.materialised)
    # complete: every element, and products over a stride of pairs
    assert tuple(map(plain, d.weyl_elements)) == tuple(sorted(oracle.values()))
    assert sorted(d.materialised) == list(d.weyl_elements)
    elems = d.weyl_elements
    step = 1 if len(elems) <= 24 else 7
    for i, u in enumerate(elems):
        pu = check_against(oracle, d, u)
        for v in elems[i % step::step]:
            assert oracle[compose(pu, d.root_permutation(v))] == d.product(u, v)


def test_small_gl5_queries_build_part_of_w0(monkeypatch):
    built = []

    def recording(*args, **kwargs):
        built.append(build_root_datum(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_root_datum", recording)
    for argv in (["newton", "t[2,-1,0,1,0]*s1*s2*s4"],
                 ["reduce", "t[2,-1,0,1,0]*s1*s2*s4"],
                 ["levi", "--v", '["-1/2", "2/3", "-1", "1/3", "2/3"]', "describe"]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(["--group", "GL5", *argv]) == 0
        assert 0 < len(built[-1].materialised) < 120, argv
    assert built[-1].w0_order == 120


def test_permutations_outside_w0_are_refused():
    d = build_root_datum("A2")
    # the diagram automorphism swaps the simple roots: no descent, not 1
    swap = tuple(d.root_index[a[::-1]] for a in d.roots)
    with pytest.raises(LogicError, match="not the root permutation"):
        d._element(swap)
    assert len(d.materialised) == 3


# the dominant_rep samples of test_root_datum.py, with their W0 images
SAMPLES = [
    ("GL5", "gl", [(F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2))]),
    ("A1", "sc", [(F(-1),)]),
    ("C2", "sc", [(F(0), F(0)), (F(1, 2), F(-1, 3)), (F(-2), F(1)),
                  (F(5, 6), F(5, 6)), (F(1, 2), F(1, 2))]),
    ("A2", "sc", [(F(1), F(0)), (F(1, 3), F(-1, 2))]),
    ("G2", "sc", [(F(1), F(0)), (F(1, 3), F(-1, 2)), (F(1, 2), F(0))]),
]


@pytest.mark.parametrize("label,lattice,samples", SAMPLES)
def test_integer_dominant_rep_equals_fraction_walk(label, lattice, samples):
    d = datum_of(label, lattice)
    g = AffineWeylGroup(d)
    walls = list(zip(d.simple_roots, d.simple_coroots))
    for v in samples:
        for u in d.weyl_elements:
            x = fraction_act(u, v)
            vbar, w = g.dominant_rep(coweight(x))
            x_bar, u_bar = fraction_walk(x, walls, d.rank)
            assert (vbar, w) == (coweight(x_bar), u_bar)
            assert type(vbar) is Coweight


def _levi_grid(d):
    values = (F(-1), F(-1, 2), F(0), F(1, 3), F(1))
    if d.rank > 3:
        values = (F(0), F(1, 2), F(1))
    return [coweight(c) for c in product(values, repeat=d.rank)]


@pytest.mark.parametrize("label,lattice", DATA)
def test_levi_fixer_equals_reflection_closure(label, lattice):
    # W_M generated on a fresh datum, before W0 is complete, against a
    # matrix closure of its reflections and, order included, against the
    # filter of W0 by the fixer condition that once cut it out; the
    # faces of the verify suites come after, as listing them completes W0
    d = build_root_datum(label, lattice)
    g = AffineWeylGroup(d)
    grid = _levi_grid(d)
    generated = [levi_weyl_group(g, v).finite_elements() for v in grid]
    grid += _levi_faces(g)
    generated += [levi_weyl_group(g, v).finite_elements() for v in grid[len(generated):]]
    for v, w_m in zip(grid, generated):
        zero = [a for a in d.roots if dot(a, v.x) == 0]
        gens = [reflection_matrix(a, d.coroot[a]) for a in zero]
        assert tuple(map(plain, w_m)) == matrix_bfs(gens, d.rank)
        x = v.x
        assert w_m == tuple(u for u in d.weyl_elements if mat_act(u, x) == x)
        assert all(type(u) is WeylElement and u.datum is d for u in w_m)


@pytest.mark.parametrize("label,lattice", DATA)
def test_levi_order_from_exponents_equals_its_elements(label, lattice):
    # |W_M| = prod (m_i + 1) over the exponents, against W_M itself, for
    # every Levi the verify suites meet and for G
    g = AffineWeylGroup(build_root_datum(label, lattice))
    for m in [g] + [levi_weyl_group(g, v) for v in _levi_faces(g)]:
        assert max_finite_parabolic_order(m) == len(m.finite_elements()), m.phi_m
        # and again from the exponents memoised on the context
        assert max_finite_parabolic_order(m) == len(m.finite_elements()), m.phi_m
    assert g.datum.w0_order == len(g.datum.weyl_elements)


def test_exponents_are_derived_once_per_context(monkeypatch):
    # GL4 `verify positivity` asks each Levi for |W_M| and the W_a(M)
    # ball counts hundreds of times; a context derives its exponents once
    calls = []

    def counted(simple_roots, is_root):
        calls.append(tuple(simple_roots))
        return weyl_exponents(simple_roots, is_root)

    monkeypatch.setattr(reduction, "weyl_exponents", counted)
    g = AffineWeylGroup(build_root_datum("GL4", "gl"))
    run_suite("positivity", g, {})
    owners = Counter(tuple(ctx.m_simple_roots) for ctx in [g, *g.levi_groups.values()])
    assert calls
    assert all(n <= owners[roots] for roots, n in Counter(calls).items())


@pytest.mark.parametrize("label,exponents", [
    ("A1", [1]), ("A2", [1, 2]), ("B2", [1, 3]), ("C2", [1, 3]), ("G2", [1, 5]),
    ("GL1", []), ("GL4", [1, 2, 3]), ("GL5", [1, 2, 3, 4]),
])
def test_exponents_of_the_simple_types(label, exponents):
    d = datum_of(label, "gl" if label.startswith("GL") else "sc")
    assert weyl_exponents(d.simple_roots, d.is_root) == exponents


@pytest.mark.parametrize("label,lattice", [("C2", "sc"), ("G2", "ad"), ("GL4", "gl")])
def test_levi_dominant_rep_equals_fraction_walk(label, lattice):
    d = datum_of(label, lattice)
    g = AffineWeylGroup(d)
    for v in _levi_grid(d)[::3]:
        m = levi_weyl_group(g, v)
        walls = [(a, d.coroot[a]) for a in m.m_simple_roots]
        for x in _levi_grid(d)[::5]:
            x_bar, u_bar = fraction_walk(fractions_of(x), walls, d.rank)
            assert m.dominant_rep(x) == (coweight(x_bar), u_bar)
