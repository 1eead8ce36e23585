"""Descents read off affine-root signs, against products and lengths.

`AffineWeylGroup.left_descents` and `right_descents` decide
length(s w) < length(w) and length(w s) < length(w) by the sign of the
affine root of the wall s under w^{-1} and w.  The flags are checked
against products and `length`, and each walker built on them (`ball`,
`omega_rep`, `finite_word`, the move scan of the reduction module and
the grammar suite's affine word) against the product-and-length walker
it replaced, kept below and in conftest as an oracle; on the ambient
group and every Levi of `_levi_faces` of every supported datum; and
`enumerate_ball`, which emits the canonical order layer by layer,
against the breadth-first balls sorted by `canonical_order`.  The last
tests count the products and lengths of the hot paths.
"""

from collections import deque

import pytest

from newton_cocenter import AffineWeylGroup, build_root_datum
from newton_cocenter import affine_weyl, reduction, verify
from newton_cocenter.affine_weyl import multiply, parse_element
from newton_cocenter.errors import LogicError
from newton_cocenter.hecke_cocenter import HeckeElement, cocenter_reduce
from newton_cocenter.levi_alcove import levi_weyl_group
from newton_cocenter.reduction import _scan
from newton_cocenter.verify import _affine_word, _levi_faces
from conftest import (
    ALL_DATA, group, kappa_labels, oracle_omega, oracle_sort_key, oracle_word,
)


def contexts(g):
    yield g
    for v in _levi_faces(g):
        yield levi_weyl_group(g, v)


def radius(ctx):
    return max(2, 6 - ctx.datum.rank)


# -- the product-and-length oracles ------------------------------------------


def old_ball(ctx, max_length, label):
    start = oracle_omega(ctx, label)
    depths, frontier = {start: 0}, [start]
    for depth in range(1, max_length + 1):
        new = []
        for w in frontier:
            for _, s in ctx.simple_items():
                sw = multiply(s, w)
                if sw not in depths:
                    depths[sw] = depth
                    new.append(sw)
        frontier = new
    return depths


def old_scan(ctx, start):
    parents, queue = {start: None}, deque([start])
    base = ctx.length(start)
    while queue:
        y = queue.popleft()
        for label, s in ctx.simple_items():
            z = multiply(multiply(s, y), s)
            lz = ctx.length(z)
            if lz == base - 2:
                return parents, (y, label, z)
            if lz == base and z not in parents:
                parents[z] = (y, label)
                queue.append(z)
    return parents, None


def old_finite_word(g, u):
    datum, word = g.datum, []
    length = g.finite_length(u)
    while length > 0:
        for i, s in enumerate(datum.simple_reflections, start=1):
            su = datum.product(s, u)
            if g.finite_length(su) < length:
                word.append(i)
                u, length = su, length - 1
                break
    return tuple(word)


def bfs_sorted_ball(ctx, max_length, labels):
    """`enumerate_ball` as it was built before the layer walk: the
    breadth-first balls of the labels (`old_ball`, which the former `ball`
    equalled item for item), sorted by `canonical_order`."""
    return list(ctx.canonical_order(
        [w for label in labels for w in old_ball(ctx, max_length, label)]))


# -- differential tests ---------------------------------------------------------


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_flags_are_the_descents_by_product_and_length(label, lattice):
    for ctx in contexts(group(label, lattice)):
        walls = [s for _, s in ctx.simple_items()]
        for lab in kappa_labels(ctx):
            for w in ctx.ball(radius(ctx), lab):
                length = ctx.length(w)
                assert ctx.left_descents(w) == [
                    ctx.length(multiply(s, w)) < length for s in walls], (ctx, w)
                assert ctx.right_descents(w) == [
                    ctx.length(multiply(w, s)) < length for s in walls], (ctx, w)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_ball_omega_and_word_match_the_product_walkers(label, lattice):
    for ctx in contexts(group(label, lattice)):
        for lab in kappa_labels(ctx):
            assert ctx.omega_rep(lab) == oracle_omega(ctx, lab)
            ball = ctx.ball(radius(ctx), lab)
            old = old_ball(ctx, radius(ctx), lab)
            # the same lengths, now in canonical order, not in walk order
            key = {w: oracle_sort_key(ctx, w) for w in old}.__getitem__
            assert list(ball.items()) == [(w, old[w]) for w in sorted(old, key=key)], (ctx, lab)
            for w in ball:
                assert _affine_word(ctx, w) == oracle_word(ctx, w), (ctx, w)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_walk_equals_the_sorted_bfs_ball(label, lattice):
    # every label set: the default, each kappa label alone, all of them
    # in reverse, the unreduced translations (some name one coset
    # twice), and a label repeated; radius 6 (GL5 4), and 5 then 6
    g = group(label, lattice)
    r, n = (4 if g.datum.rank == 5 else 6), g.datum.rank
    default = g.datum.omega_labels() or [(0,) * n]
    labels = kappa_labels(g)
    units = [tuple(sign * int(i == j) for j in range(n)) for i in range(n) for sign in (1, -1)]
    label_sets = [default, *[[lab] for lab in labels], labels[::-1],
                  [(0,) * n, *units], [labels[-1], labels[0], labels[-1]]]
    for labs in label_sets:
        fresh = AffineWeylGroup(g.datum)
        assert fresh.enumerate_ball(r, labs) == bfs_sorted_ball(g, r, labs), labs
        assert fresh.enumerate_ball(r - 1, labs) == bfs_sorted_ball(g, r - 1, labs), labs
        grown = AffineWeylGroup(g.datum)
        grown.enumerate_ball(r - 1, labs)
        assert grown.enumerate_ball(r, labs) == fresh.enumerate_ball(r, labs), labs
    assert g.enumerate_ball(r) == fresh.enumerate_ball(r, default)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_scan_matches_the_product_scan(label, lattice):
    for ctx in contexts(group(label, lattice)):
        for lab in kappa_labels(ctx)[:3]:
            for w in list(ctx.ball(radius(ctx), lab))[::2]:
                parents, descent = _scan(ctx, w)
                old_parents, old_descent_ = old_scan(ctx, w)
                assert list(parents.items()) == list(old_parents.items()), (ctx, w)
                assert descent == old_descent_, (ctx, w)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_finite_word_matches_the_product_walker(label, lattice):
    g = group(label, lattice)
    for u in g.datum.weyl_elements:
        assert g.finite_word(u) == old_finite_word(g, u)


def test_finite_word_is_memoised_per_w0_element(monkeypatch):
    g = AffineWeylGroup(build_root_datum("G2"))
    words = {u: g.finite_word(u) for u in g.datum.weyl_elements}
    # a second descent would need the root permutations
    monkeypatch.setattr(g.datum, "root_permutation", None)
    assert {u: g.finite_word(u) for u in words} == words
    assert len(g._finite_words) == len(g.datum.weyl_elements) == 12


def test_finite_word_without_a_descent_raises(monkeypatch):
    g = AffineWeylGroup(build_root_datum("A2"))
    identity = g.datum.root_permutation(g.datum.weyl_identity)
    # every root reads as its own image, so no simple root turns negative
    monkeypatch.setattr(g.datum, "root_permutation", lambda u: identity)
    assert g.finite_word(g.datum.weyl_identity) == ()
    with pytest.raises(LogicError, match="descent must exist"):
        g.finite_word(g.datum.simple_reflections[0])


# -- counts on the hot paths -------------------------------------------------


def counting(monkeypatch, module, calls):
    real = module.multiply

    def counted(a, b):
        out = real(a, b)
        calls.append((a, b, out))
        return out

    monkeypatch.setattr(module, "multiply", counted)


def test_word_descends_by_flags_with_one_product_per_letter(monkeypatch):
    g = AffineWeylGroup(build_root_datum("GL5", "gl"))
    elems = [w for lab in kappa_labels(g)[:3] for w in g.ball(3, lab)]
    for w in elems:
        g.omega_rep(g.kappa(w))
    lengths, products = [], []
    real_length = g.length
    monkeypatch.setattr(g, "length", lambda w: lengths.append(w) or real_length(w))
    counting(monkeypatch, affine_weyl, products)
    counting(monkeypatch, verify, products)
    for w in elems:
        lengths.clear()
        products.clear()
        word = _affine_word(g, w)
        assert len(lengths) <= 1, w  # the length of w omega^{-1}, not per letter
        assert len(products) <= len(word) + 2, w
        assert len(word) == real_length(w)


def counting_walls(monkeypatch, ctx, calls):
    """Record each wall product of ctx as (s w: label, w, s w) or
    (w s: w, label, w s)."""
    left, right = ctx.wall_times, ctx.times_wall
    monkeypatch.setattr(ctx, "wall_times",
                        lambda i, w: calls.append((i, w, out := left(i, w))) or out)
    monkeypatch.setattr(ctx, "times_wall",
                        lambda w, i: calls.append((w, i, out := right(w, i))) or out)


def test_scan_builds_no_raising_move(monkeypatch):
    # _scan builds s y s as (s y) s by the wall products of the context
    g = AffineWeylGroup(build_root_datum("GL5", "gl"))
    elems = [w for lab in kappa_labels(g)[:3] for w in g.ball(3, lab)][::3]
    products, moves = [], 0
    counting_walls(monkeypatch, g, products)
    for w in elems:
        products.clear()
        _scan(g, w)
        assert len(products) % 2 == 0
        for (s, y, sy), (left, _, z) in zip(products[::2], products[1::2]):
            assert left == sy
            assert g.length(z) <= g.length(y), (w, y, z)
        moves += len(products) // 2
    assert moves


def test_ball_multiplies_only_on_ascents(monkeypatch):
    # the walk steps up by wall products alone, one per element it adds
    g = AffineWeylGroup(build_root_datum("GL5", "gl"))
    for lab in kappa_labels(g)[:3]:
        g.omega_rep(lab)
    products, walls = [], []
    counting(monkeypatch, affine_weyl, products)
    counting_walls(monkeypatch, g, walls)
    balls = [g.ball(3, lab) for lab in kappa_labels(g)[:3]]
    assert not products and walls
    assert len(walls) == sum(len(ball) - 1 for ball in balls)
    for s, w, sw in walls:
        assert g.length(sw) == g.length(w) + 1, (s, w)


def test_normal_form_scans_each_element_once(monkeypatch):
    g = AffineWeylGroup(build_root_datum("A1"))
    w = parse_element(g, "t[21]*s1")
    starts = []
    real = reduction._scan
    monkeypatch.setattr(reduction, "_scan", lambda ctx, y: starts.append(y) or real(ctx, y))
    cocenter_reduce(g, HeckeElement.basis(w))
    assert starts and len(starts) == len(set(starts))
