"""`hecke_mul` and the commutator forms against the algorithms they replaced.

`hecke_mul` is bilinear over the basis products T_x T_y, which
`_basis_product` memoises per context by peeling the least right
descent of y, one wall at a time, without a reduced word.  Before, each
right factor y was taken in the canonical order, and the left factor was
multiplied along the whole lex-least reduced word of y omega^{-1} and
then by its length-zero part omega.  That algorithm is kept here as the
oracle, with the word-based key and word of conftest and its own
generator step that reads descents off lengths.

`commutator_form` reduces T_x T_y - T_y T_x into one dict, from the
basis products and the normal form of each of their terms.  Before,
each commutator was the difference of two `hecke_mul` products, then
reduced by `cocenter_reduce`; that path is kept as the oracle.
"""

import random
import sys

import pytest

from newton_cocenter import AffineWeylGroup, build_root_datum, multiply
from newton_cocenter.hecke_cocenter import (
    ONE, Q, Q_MINUS_1, HeckeElement, QPoly, _add_forms, _add_term, _basis_product,
    cocenter_reduce, commutator_form, hecke_mul,
)
from newton_cocenter import verify
from newton_cocenter.levi_alcove import levi_weyl_group
from conftest import ALL_DATA, oracle_sort_key, oracle_word


def word_walk_mul(group, f, g):
    """f g: each right factor y, in the word-based canonical order, by
    walking its word and then its length-zero part omega."""
    walls = dict(group.simple_items())
    out = HeckeElement()
    for y, cy in sorted(g.terms.items(), key=lambda kv: oracle_sort_key(group, kv[0])):
        omega = group.omega_rep(group.kappa(y))
        part = dict(f.terms)
        for lab in oracle_word(group, y):
            nxt = {}
            for x, c in part.items():
                xs = multiply(x, walls[lab])
                if group.length(xs) > group.length(x):
                    _add_term(nxt, xs, c)
                else:
                    _add_term(nxt, xs, c * Q)
                    _add_term(nxt, x, c * Q_MINUS_1)
            part = nxt
        if omega != group.identity:
            part = {multiply(x, omega): c for x, c in part.items()}
        out = out + HeckeElement(part).scale(cy)
    return out


def fresh(label, lattice):
    return AffineWeylGroup(build_root_datum(label, lattice))


def basis(w):
    return HeckeElement.basis(w)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_basis_products_equal_word_walk(label, lattice):
    # every ordered pair of the length <= 3 ball, on one warm memo
    g = fresh(label, lattice)
    ball = g.enumerate_ball(3)
    for x in ball:
        for y in ball:
            assert hecke_mul(g, basis(x), basis(y)) == \
                word_walk_mul(g, basis(x), basis(y)), (x, y)


@pytest.mark.parametrize("label,lattice", [("A2", "ad"), ("C2", "ad"), ("G2", "sc"),
                                           ("GL3", "gl"), ("GL4", "gl")])
def test_polynomial_combinations_equal_word_walk(label, lattice):
    g = fresh(label, lattice)
    ball = g.enumerate_ball(4)
    rng = random.Random(11)

    def combination():
        return HeckeElement({w: QPoly(tuple(rng.randint(-3, 3) for _ in range(3)))
                             for w in rng.sample(ball, rng.randint(1, 4))})

    for _ in range(30):
        f, h = combination(), combination()
        assert hecke_mul(g, f, h) == word_walk_mul(g, f, h)


@pytest.mark.parametrize("label,lattice", [("A1", "ad"), ("B2", "sc"), ("GL4", "gl")])
def test_cold_memo_equals_warm_memo_filled_in_another_order(label, lattice):
    cold, warm = fresh(label, lattice), fresh(label, lattice)
    ball = cold.enumerate_ball(3)
    pairs = [(x, y) for x in ball for y in ball]
    shuffled = pairs[::-1]
    random.Random(5).shuffle(shuffled)
    for x, y in shuffled:
        hecke_mul(warm, basis(x), basis(y))
    for x, y in pairs:
        cold.hecke_products.clear()
        assert hecke_mul(cold, basis(x), basis(y)) == hecke_mul(warm, basis(x), basis(y))


def test_mutating_a_product_leaves_the_memo_intact():
    g = fresh("C2", "sc")
    ball = g.enumerate_ball(3)
    for x in ball[:6]:
        for y in ball:
            prod = hecke_mul(g, basis(x), basis(y))
            prod.terms.clear()
            prod.terms[g.identity] = QPoly((5,))
            assert hecke_mul(g, basis(x), basis(y)) == word_walk_mul(g, basis(x), basis(y))


def test_deep_right_factor_walks_without_recursion():
    # an A1 right factor of length 1500, past the recursion limit
    g = fresh("A1", "sc")
    (_, s0), (_, s1) = g.simple_items()
    y, n = g.identity, 1500
    assert n > sys.getrecursionlimit()
    for i in range(n):
        y = multiply(y, (s0, s1)[i % 2])
    assert g.length(y) == n
    assert hecke_mul(g, basis(g.identity), basis(y)).terms == {y: ONE}
    prod = hecke_mul(g, basis(s1), basis(y))
    assert prod.terms == {multiply(s1, y): ONE}
    prod = hecke_mul(g, basis(s0), basis(y))
    assert prod.terms == {multiply(s0, y): Q, y: Q_MINUS_1}


def test_hecke_mul_builds_no_word(monkeypatch):
    g = fresh("GL3", "gl")
    ball = g.enumerate_ball(3)
    expected = {(x, y): word_walk_mul(g, basis(x), basis(y)) for x in ball for y in ball}

    def refuse(*args):
        raise AssertionError("hecke_mul must not build a word")

    monkeypatch.setattr(verify, "_affine_word", refuse)
    for (x, y), prod in expected.items():
        assert hecke_mul(g, basis(x), basis(y)) == prod


# -- commutator forms against the reduced difference of two products ----------


def reduced_commutator(group, x, y):
    """The commutator path replaced by `commutator_form`."""
    tx, ty = basis(x), basis(y)
    return cocenter_reduce(group, hecke_mul(group, tx, ty) - hecke_mul(group, ty, tx))


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_commutator_forms_equal_reduced_products(label, lattice):
    # every ordered pair within the cocenter suite's budget, on the group
    # and each Levi of the verify grid; above rank 2 the Levis take one
    # less, which cuts GL5 from 7 s to 2 s
    top = verify.SUITES["cocenter"][1]["pair_budget"]
    g = fresh(label, lattice)
    levis = [levi_weyl_group(g, v) for v in verify._levi_faces(g)]
    for ctx, budget in [(g, top)] + [(m, top - (g.datum.rank > 2)) for m in levis]:
        ball = ctx.enumerate_ball(budget)
        for x in ball:
            for y in ball:
                if ctx.length(x) + ctx.length(y) > budget:
                    continue
                assert _add_forms(ctx, {}, _basis_product(ctx, x, y)) == \
                    cocenter_reduce(ctx, hecke_mul(ctx, basis(x), basis(y))).terms
                form, old = commutator_form(ctx, x, y), reduced_commutator(ctx, x, y)
                assert form == old.terms and (not form) == (not old), (ctx, x, y)
