"""Class keys without reduced words, against the algorithms they replaced.

`AffineWeylGroup.canonical_order` yields elements in the canonical
order (length, kappa, then the lex-least reduced word of w omega^{-1}),
deciding it letter by letter; `class_minimal_set` reduces the orbits of
the dominant translations modulo one coinvariant lattice per class;
`wall_times` and `times_wall` multiply by a wall in O(rank), and the
single-wall reads decide one descent flag.  Each is checked against the
algorithm it replaced, kept below as an oracle: sorting by the
word-based `oracle_sort_key` of conftest, the class listing with one
Hermite form and one coset set per conjugate a' of the finite part,
`multiply`, and the lists of all flags.
The last tests count the words that the class keys build and follow
the standard-triple search through an orbit.
"""

import random
from itertools import islice

import pytest

from newton_cocenter import (
    AffineWeylGroup, build_root_datum, canonical_min_rep, class_minimal_set,
    element_str, parse_element, reduce_to_min, standard_triple,
)
from newton_cocenter import reduction, verify
from newton_cocenter.affine_weyl import AffineWeylElement, multiply
from newton_cocenter.levi_alcove import levi_weyl_group
from newton_cocenter.reduction import (
    _coinvariant_hnf, _dominant_translations, finite_parabolics,
)
from newton_cocenter.root_datum import coset_reduce, mat_act
from newton_cocenter.verify import _levi_faces
from conftest import ALL_DATA, group, kappa_labels, oracle_sort_key


def contexts(g, levis=3):
    """The group and its first Levis of `_levi_faces`."""
    yield g
    for v in islice(_levi_faces(g), levis):
        yield levi_weyl_group(g, v)


def mixed_ball(ctx):
    """Elements of several lengths over the first three kappa labels."""
    radius = max(2, 6 - ctx.datum.rank)
    return [w for lab in kappa_labels(ctx)[:3] for w in ctx.ball(radius, lab)]


# -- the canonical order against sorting by the word-based key --------------


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_canonical_order_equals_sort_key_order(label, lattice):
    rng = random.Random(f"{label}:{lattice}")
    for ctx in contexts(group(label, lattice)):
        elems = mixed_ball(ctx)
        key = {w: oracle_sort_key(ctx, w) for w in elems}.__getitem__
        assert list(ctx.canonical_order(elems)) == sorted(elems, key=key)
        for _ in range(20):
            sub = rng.sample(elems, rng.randint(0, min(len(elems), 40)))
            assert list(ctx.canonical_order(sub)) == sorted(sub, key=key), ctx
        # equal elements come out in input order, as from a stable sort
        sub = rng.sample(elems, min(len(elems), 10))
        sub += sub[::2]
        assert list(ctx.canonical_order(sub)) == sorted(sub, key=key)


def test_canonical_order_is_lazy(monkeypatch):
    # the least of the 70 GL5 elements of length 4 over the coroot
    # lattice splits one bucket per letter, not every bucket: it reads
    # fewer than half the least descents of the whole order (each read
    # by the descent helper shared with `least_left_descent`)
    g = AffineWeylGroup(build_root_datum("GL5", "gl"))
    elems = [w for w in g.ball(4, (0,) * 5) if g.length(w) == 4]
    least = min(elems, key=lambda w: oracle_sort_key(g, w))
    calls = []
    real = g._first_inversion
    monkeypatch.setattr(g, "_first_inversion", lambda *a: calls.append(a) or real(*a))
    assert next(g.canonical_order(elems)) == least
    first = len(calls)
    calls.clear()
    list(g.canonical_order(elems))
    assert 2 * first < len(calls)


# -- the wall products against multiply --------------------------------------


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_wall_products_equal_multiply(label, lattice):
    for ctx in contexts(group(label, lattice)):
        for w in mixed_ball(ctx):
            for lab, s in ctx.simple_items():
                assert ctx.wall_times(lab, w) == multiply(s, w), (ctx, lab, w)
                assert ctx.times_wall(w, lab) == multiply(w, s), (ctx, w, lab)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_single_wall_reads_equal_the_descent_flags(label, lattice):
    for ctx in contexts(group(label, lattice)):
        for w in mixed_ball(ctx):
            left, right = ctx.left_descents(w), ctx.right_descents(w)
            assert ctx.least_left_descent(w) == (left.index(True) if any(left) else None)
            assert ctx.least_right_descent(w) == (right.index(True) if any(right) else None)
            assert [ctx.is_right_descent(w, lab) for lab, _ in ctx.simple_items()] == right


# -- one coinvariant lattice per class against one per conjugate --------------


def per_conjugate_class_set(ctx, w_min):
    """The former listing: for each conjugate a' = u a u^{-1} the cosets
    u(lam) mod im(1 - a') over every such u, and each W_M-orbit reduced
    modulo the Hermite form of im(1 - a'); sorted by the word-based key."""
    datum = ctx.datum
    length = ctx.length(w_min)
    lam, a = w_min
    cosets = {}
    for u in ctx.finite_elements():
        a_conj = datum.product(datum.product(u, a), datum.finite_inverse(u))
        hnf = _coinvariant_hnf(ctx, a_conj)
        cosets.setdefault(a_conj, set()).add(coset_reduce(mat_act(u, lam), hnf))
    bounds = {a_conj: length + ctx.finite_length(a_conj) for a_conj in cosets}
    dominant = _dominant_translations(ctx, lam, max(bounds.values()))
    members = []
    for a_conj, reps in cosets.items():
        hnf = _coinvariant_hnf(ctx, a_conj)
        for mu, mu_length in dominant:
            if mu_length > bounds[a_conj]:
                continue
            for nu in ctx.translation_orbit(mu):
                if coset_reduce(nu, hnf) in reps:
                    z = AffineWeylElement(nu, a_conj)
                    if ctx.length(z) == length:
                        members.append(z)
    return tuple(sorted(members, key=lambda w: oracle_sort_key(ctx, w)))


# the balls of test_reduction.test_class_minimal_set_matches_ball_search
@pytest.mark.parametrize("label,lattice,radius", [
    ("A1", "sc", 6), ("A1", "ad", 6), ("A2", "sc", 5), ("A2", "ad", 5),
    ("B2", "sc", 5), ("B2", "ad", 5), ("C2", "sc", 5), ("C2", "ad", 5),
    ("G2", "sc", 5), ("G2", "ad", 5), ("GL2", "sc", 5), ("GL3", "sc", 4),
    ("GL4", "sc", 3),
])
def test_class_minimal_set_matches_per_conjugate_listing(label, lattice, radius):
    g = AffineWeylGroup(build_root_datum(label, lattice))
    labels = g.datum.omega_labels()
    n = g.datum.rank
    if labels is None and n < 4:    # GL: the coroot lattice and one other coset
        labels = [(0,) * n, (1,) + (0,) * (n - 1)]
    classes = {reduce_to_min(g, w)[0]
               for w in g.enumerate_ball(radius, labels)}
    oracle = AffineWeylGroup(build_root_datum(label, lattice))
    for w_min in sorted(classes, key=lambda w: oracle_sort_key(g, w)):
        assert class_minimal_set(g, w_min) == per_conjugate_class_set(oracle, w_min), \
            element_str(g, w_min)


def test_class_minimal_set_matches_per_conjugate_listing_in_levis():
    g = AffineWeylGroup(build_root_datum("GL4", "gl"))
    for ctx in islice(contexts(g, levis=6), 1, None):
        for w in mixed_ball(ctx):
            w_min = reduce_to_min(ctx, w)[0]
            assert class_minimal_set(ctx, w_min) == per_conjugate_class_set(ctx, w_min)


def test_class_data_is_built_once_per_finite_part(monkeypatch):
    # the conjugators a' of a, the Schreier generators of Z(a) and the
    # lengths of the a' depend on a alone, so the classes of a ball that
    # share a finite part walk its W_M-class once
    g = AffineWeylGroup(build_root_datum("A2"))
    mins = {reduce_to_min(g, w)[0] for w in g.enumerate_ball(5)}
    calls = []
    finite_length = g.finite_length
    monkeypatch.setattr(g, "finite_length", lambda u: calls.append(u) or finite_length(u))
    for w_min in mins:
        class_minimal_set(g, w_min)
    assert set(g.finite_classes) == {w.finite for w in mins}
    assert len(mins) > len(g.finite_classes)
    assert len(calls) == sum(len(data[0]) for data in g.finite_classes.values())


# -- what the class keys build -------------------------------------------------


def test_gl5_keys_build_no_word(monkeypatch):
    g = AffineWeylGroup(build_root_datum("GL5", "gl"))
    words = []
    real = verify._affine_word
    monkeypatch.setattr(verify, "_affine_word",
                        lambda group, w: words.append(w) or real(group, w))
    w = parse_element(g, "t[0,0,0,-1,1]*s2*s1")
    w_min, _ = reduce_to_min(g, w)
    standard_triple(g, w_min)
    canonical_min_rep(g, w)
    assert words == []


# -- the standard-triple search ------------------------------------------------


def test_standard_triple_walks_the_orbit_in_canonical_order(monkeypatch):
    # the least two members of this orbit of 20 each have a triple
    def fresh():
        g = AffineWeylGroup(build_root_datum("GL5", "gl"))
        return g, reduce_to_min(g, parse_element(g, "t[0,0,1,1,0]*s2*s1*s3"))[0]

    g, w_min = fresh()
    orbit = list(g.canonical_order(g.move_orbits[w_min]))
    assert len(orbit) >= 2
    least, second = orbit[:2]
    elem = dict(g.simple_items())
    real = reduction._try_triple
    least_triple, expected = (next(t for sub in finite_parabolics(g)
                                   if (t := real(g, y, sub, elem)) is not None)
                              for y in (least, second))
    assert expected != least_triple

    g, w_min = fresh()
    tried = []

    def refusing(ctx, y, k_labels, elem):
        tried.append(y)
        return None if y == least else real(ctx, y, k_labels, elem)

    monkeypatch.setattr(reduction, "_try_triple", refusing)
    triple = standard_triple(g, w_min)
    assert triple == expected
    assert tried[0] == least and set(tried) == {least, second}
    # the search depends only on the orbit: every member has its answer
    assert all(g.standard_triples[y] is triple for y in orbit)
