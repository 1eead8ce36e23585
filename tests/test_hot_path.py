"""Differential tests for the hot-path representations and memos.

`AffineWeylElement` is a tuple subclass; its group law is checked
against the plain-matrix path and a direct formula.  Newton indices are
read from the Newton-point and dominant-representative memos of a group
and its Levis, dominant translations are memoised per kappa coset,
Levi boxes per Levi, generated from their M-lengths, and the layers
of the canonical ball per kappa coset; each memo is checked against a cold
recomputation or against the filter-and-sort code it replaced.  Call
counts pin the hot paths and the root closure to what they must read.
"""

import pickle
from itertools import product

import pytest

from newton_cocenter import (
    AffineRoot, AffineWeylElement, AffineWeylGroup, NewtonIndex,
    build_root_datum,
)
from newton_cocenter import affine_weyl, levi_alcove, root_datum, verify
from newton_cocenter.affine_weyl import conjugate, inverse, multiply
from newton_cocenter.levi_alcove import levi_weyl_group
from newton_cocenter.newton import newton_index
from newton_cocenter.reduction import _dominant_translations, _enumerate_dominant
from newton_cocenter.root_datum import mat_act, mat_mul
from newton_cocenter.verify import _levi_box, _levi_faces
from conftest import ALL_DATA, oracle_rational_inverse, oracle_sort_key


def fresh_group(label, lattice="sc"):
    return AffineWeylGroup(build_root_datum(label, lattice))


def plain(u):
    return tuple(tuple(row) for row in u)


# -- elements ----------------------------------------------------------


def test_element_equals_and_hashes_as_its_plain_pair():
    g = fresh_group("GL3")
    for w in g.enumerate_ball(2):
        p = AffineWeylElement(w.translation, plain(w.finite))
        assert p == w and hash(p) == hash(w)
        assert w == (w.translation, w.finite)
        assert {w: 1}[p] == 1


def test_element_pickles_and_keeps_its_repr():
    g = fresh_group("A2")
    s = g.simple_items()[0][1]
    assert repr(s) == "AffineWeylElement(translation=(1, 1), finite=((0, -1), (-1, 0)))"
    for w in g.enumerate_ball(3):
        back = pickle.loads(pickle.dumps(w))
        assert back == w and type(back) is AffineWeylElement
        assert back.translation == w.translation and back.finite == w.finite
        assert repr(back) == repr(w)


def test_element_is_never_an_affine_root_or_a_newton_index():
    g = fresh_group("A2")
    for w in g.enumerate_ball(2):
        lam, u = w
        for other in (AffineRoot(lam, u), NewtonIndex(lam, u)):
            assert w != other and other != w
            assert not {w} & {other}


def test_multiply_and_inverse_agree_with_the_plain_matrix_path():
    # conjugate too, which reads x w x^-1 off one product formula
    g = fresh_group("GL4")
    ball = g.enumerate_ball(3)
    for i, w1 in enumerate(ball):
        p1 = AffineWeylElement(w1.translation, plain(w1.finite))
        inv = inverse(w1)
        uinv = tuple(tuple(int(x) for x in row) for row in oracle_rational_inverse(w1.finite))
        assert inverse(p1) == inv
        assert inv == (tuple(-x for x in mat_act(uinv, w1.translation)), uinv)
        assert multiply(w1, inv) == g.identity
        for w2 in ball[i % 11::11]:
            p2 = AffineWeylElement(w2.translation, plain(w2.finite))
            expected = multiply(w1, w2)
            assert type(expected) is AffineWeylElement
            assert multiply(p1, p2) == expected
            assert conjugate(w1, w2) == conjugate(p1, p2) == multiply(expected, inv)
            assert expected == (
                tuple(a + b for a, b in zip(w1.translation, mat_act(w1.finite, w2.translation))),
                mat_mul(w1.finite, w2.finite))


# -- memos ---------------------------------------------------------------


def test_newton_index_from_warm_memos_equals_cold_recomputation():
    warm = fresh_group("GL4")
    ball = warm.enumerate_ball(4)
    first = {w: newton_index(warm, w) for w in ball}
    for v in _levi_faces(warm):
        m = levi_weyl_group(warm, v)
        cold = fresh_group("GL4")
        m_cold = levi_weyl_group(cold, v)
        for w in [w for w in ball if m.is_member(w)] + _levi_box(warm, m, 3):
            got = m.newton_index(w)
            assert m.newton_index(w) == got == newton_index(m_cold, w)
    cold = fresh_group("GL4")
    for w in reversed(ball):
        assert newton_index(warm, w) == first[w] == newton_index(cold, w)


DOMINANT_CASES = [("A1", [(0,), (1,), (5,), (-3,)]),
                  ("A2", [(0, 0), (1, 0), (3, -3), (-2, 2)]),
                  ("G2", [(0, 0), (1, -1), (-2, 3)]),
                  ("GL3", [(1, 0, 0), (0, 1, 0), (3, -1, -1), (-2, 2, 1)])]


@pytest.mark.parametrize("label,lams", DOMINANT_CASES)
@pytest.mark.parametrize("bounds", [(2, 5, 9), (9, 5, 2), (5, 5, 3, 5, 11, 0)])
def test_dominant_translation_memo_equals_direct_enumeration(label, lams, bounds):
    g, direct = fresh_group(label), fresh_group(label)
    for lam in lams:
        # lam itself and other members of its coroot-lattice coset
        coset = [lam] + [tuple(x + k * c for x, c in zip(lam, cv))
                         for k in (1, -2) for cv in g.datum.simple_coroots]
        for bound in bounds:
            for mu in coset:
                expected = _enumerate_dominant(direct, mu, bound)
                assert _dominant_translations(g, mu, bound) == expected
                assert all(length <= bound for _, length in expected)


# -- Levi boxes ----------------------------------------------------------


def full_sort_levi_box(group, m, max_m_length, box=2, cap=None):
    """The Levi box as built before the tiers: every candidate sorted by
    the whole word-based M-sort key, then cut to `cap`."""
    if group.datum.rank > 2:
        box = 1
        cap = 150 if cap is None else cap
    out = []
    rng = range(-box, box + 1)
    for coords in product(rng, repeat=group.datum.rank):
        for u in m.finite_elements():
            w = AffineWeylElement(tuple(coords), u)
            if m.length(w) <= max_m_length:
                out.append(w)
    out.sort(key=lambda w: oracle_sort_key(m, w))
    return out if cap is None else out[:cap]


@pytest.mark.parametrize("label,lattice", [
    pytest.param(*data, marks=pytest.mark.slow) if data == ("GL5", "gl") else data
    for data in ALL_DATA])
def test_tiered_levi_box_equals_full_sort(label, lattice):
    """The generated boxes against the whole box filtered and sorted,
    on every Levi of the verify grid (the name predates the generator)."""
    g, oracle = fresh_group(label, lattice), fresh_group(label, lattice)
    for v in _levi_faces(g):
        m, m_oracle = levi_weyl_group(g, v), levi_weyl_group(oracle, v)
        for args, kwargs in (((4,), {}), ((4,), {"box": 1})):
            box = _levi_box(g, m, *args, **kwargs)
            assert box == full_sort_levi_box(oracle, m_oracle, *args, **kwargs)
            assert _levi_box(g, m, *args, **kwargs) is box
        # a sample cut short: the generator's cut against the sorted box's
        side = 1 if g.datum.rank > 2 else 2
        assert m.short_translates(product(range(-side, side + 1), repeat=g.datum.rank), 2, 7) \
            == full_sort_levi_box(oracle, m_oracle, 2, cap=7)


def test_gl4_levi_boxes_call_m_length_less_often_than_the_box_has_candidates(monkeypatch):
    g = fresh_group("GL4", "gl")
    levis = [levi_weyl_group(g, v) for v in _levi_faces(g)]
    candidates = 3 ** 4 * sum(len(m.finite_elements()) for m in levis)
    assert candidates == 5913
    calls = []
    for m in levis:
        length = m.length
        monkeypatch.setattr(m, "length", lambda w, length=length: calls.append(w) or length(w))
        assert _levi_box(g, m, 4)
    assert len(calls) < candidates


def test_gl4_levi_suite_conjugates_once_per_levi_reflection_and_short_element(monkeypatch):
    """At most 15 Levis x 3 simple reflections x 6 short elements; the
    sweep it replaced conjugated 2,700 times."""
    g = fresh_group("GL4", "gl")
    calls = []
    monkeypatch.setattr(verify, "conjugate", lambda x, w: calls.append(w) or conjugate(x, w))
    assert verify.suite_levi(g, {"m_length": 4, "seed": 0}).passed
    assert len(_levi_faces(g)) == 15
    assert len(calls) <= 15 * 3 * 6


def test_gl4_levi_suite_checks_ambient_strata_on_six_elements_per_levi(monkeypatch):
    """At most 15 Levis x 6 short elements; the whole boxes it replaced
    held 2,181 elements."""
    g = fresh_group("GL4", "gl")
    calls = []
    check = verify._in_ambient_stratum
    monkeypatch.setattr(verify, "_in_ambient_stratum",
                        lambda grp, m, w: calls.append(w) or check(grp, m, w))
    assert verify.suite_levi(g, {"m_length": 4, "seed": 0}).passed
    assert len(calls) <= 15 * 6


def test_gl4_levi_suite_samples_each_box_once(monkeypatch):
    """The stratum and the conjugation checks share one `_short` sample
    per Levi; each took its own before."""
    g = fresh_group("GL4", "gl")
    calls = []
    short = verify._short
    monkeypatch.setattr(verify, "_short", lambda m, box: calls.append(m) or short(m, box))
    assert verify.suite_levi(g, {"m_length": 4, "seed": 0}).passed
    assert len(calls) == len(_levi_faces(g)) == 15


def test_gl4_cocenter_suite_takes_its_pairs_from_a_length_window(monkeypatch):
    """The pairs come from a length window over the ball, not from
    filtering all 7,260 pairs of it by the lengths of both factors,
    which took 15,466 calls."""
    g = fresh_group("GL4", "gl")
    g.enumerate_ball(verify.SUITES["cocenter"][1]["pair_budget"])
    calls = []
    length = g.length
    monkeypatch.setattr(g, "length", lambda w: calls.append(w) or length(w))
    assert verify.suite_cocenter(g, {**verify.SUITES["cocenter"][1], "seed": 0}).passed
    assert len(calls) <= 2000


def test_gl4_positivity_suite_tests_newton_positivity_once_per_box_element(monkeypatch):
    g = fresh_group("GL4", "gl")
    calls = []
    positive = verify.newton_v_positive
    monkeypatch.setattr(verify, "newton_v_positive",
                        lambda grp, plus, w: calls.append(w) or positive(grp, plus, w))
    monkeypatch.setattr(levi_alcove, "newton_v_positive",
                        lambda grp, plus, w: calls.append(w) or positive(grp, plus, w))
    assert verify.suite_positivity(g, {"seed": 0}).passed
    assert len(calls) == sum(len(box) for _, _, box in verify._levi_boxes(g, 4, box=1))


# -- construction --------------------------------------------------------


def test_gl5_root_closure_reflects_only_new_positive_coroots(monkeypatch):
    """The closure runs over Phi+ alone and negates the rest: one coroot
    reflection per positive root that is not simple, |Phi+| - r = 6 for
    GL5, where the closure over all of Phi made 16."""
    calls = []
    reflect = root_datum._reflect
    monkeypatch.setattr(root_datum, "_reflect", lambda *a: calls.append(a) or reflect(*a))
    d = build_root_datum("GL5")
    assert len(calls) == len(d.positive_roots) - len(d.simple_roots) == 6


# -- balls ---------------------------------------------------------------


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_memoised_ball_equals_fresh_enumeration(label, lattice):
    fresh = {r: fresh_group(label, lattice).enumerate_ball(r) for r in range(7)}
    for radii in (range(7), range(6, -1, -1), (3, 3, 0, 5, 5, 2, 6, 6, 1, 4)):
        g = fresh_group(label, lattice)
        for r in radii:
            ball = g.enumerate_ball(r)
            assert ball == fresh[r]
            ball.clear()  # each call returns a list of its own
            assert g.enumerate_ball(r) == fresh[r]
    # another tuple of labels is another memo
    label0 = [g.kappa(fresh[0][0])]
    assert g.enumerate_ball(3, label0) == [w for w in fresh[3] if g.kappa(w) == label0[0]]


def test_ball_walk_sorts_nothing_and_extends_by_one_product_per_new_element(monkeypatch):
    # a ball is the memoised layers of the walk: no multiply, no sort, and
    # radius 6 after 5 builds the new layer alone, one wall product each
    g = fresh_group("GL4", "gl")
    labels = [(0, 0, 0, k) for k in (-1, 0, 1)]
    for lab in labels:
        g.omega_rep(lab)
    products, sorts, walls = [], [], []
    real_multiply, real_sort, real_walls = affine_weyl.multiply, g.canonical_order, g.wall_times
    monkeypatch.setattr(affine_weyl, "multiply",
                        lambda a, b: products.append(a) or real_multiply(a, b))
    monkeypatch.setattr(g, "canonical_order", lambda es: sorts.append(es) or real_sort(es))
    monkeypatch.setattr(g, "wall_times", lambda i, w: walls.append(w) or real_walls(i, w))
    five = g.enumerate_ball(5, labels)
    assert len(walls) == len(five) - len(labels)
    walls.clear()
    six = g.enumerate_ball(6, labels)
    assert six[:len(five)] == five
    assert len(walls) == len(six) - len(five) == sum(g.length(w) == 6 for w in six)
    assert len(g.ball(6, labels[1])) == sum(g.kappa(w) == labels[1] for w in six)
    assert not products and not sorts
