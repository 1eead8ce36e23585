"""Deep normal forms, against the algorithms they replaced.

`cocenter_reduce` takes each basis element through one work-list,
longest element first, and `class_minimal_set` lists a class from the
dominant translations in a two-sided length window, reaching the
conjugates of the finite part by the M-simple reflections instead of
walking W_M.  Each is checked against the algorithm it replaced, kept
below as an oracle: the per-element recursion that memoised the normal
form of every intermediate element, and the one-sided listing over all
of W_M.  The last tests count the work of a deep normal form.
"""

import heapq
import random
from itertools import islice

import pytest

from newton_cocenter import (
    AffineWeylGroup, build_root_datum, class_minimal_set, element_str,
    parse_element, reduce_to_min,
)
from newton_cocenter.affine_weyl import AffineWeylElement, multiply
from newton_cocenter.hecke_cocenter import (
    ONE, Q, Q_MINUS_1, HeckeElement, QPoly, _add_term, cocenter_reduce,
)
from newton_cocenter.levi_alcove import levi_weyl_group
from newton_cocenter.reduction import (
    _coinvariant_hnf, _enumerate_dominant, canonical_class_rep, is_min_in_class,
    lowering_move,
)
from newton_cocenter.root_datum import coset_reduce, mat_act
from conftest import ALL_DATA, kappa_labels, oracle_levi_grid, oracle_sort_key


def fresh(label, lattice="sc"):
    return AffineWeylGroup(build_root_datum(label, lattice))


# -- the work-list against the per-element recursion --------------------------


def recursive_normal_form(group, w, cache):
    """The former normal form of T_w: the forms of s y and s y s for the
    first lowering move at y, resolved depth-first on an explicit stack
    and each memoised in `cache`, then combined as (q-1) NF(s y) + q NF(s y s)."""
    pending = {}
    stack = [w]
    while stack:
        cur = stack[-1]
        if cur in cache:
            stack.pop()
            continue
        frame = pending.get(cur)
        if frame is None:
            move = lowering_move(group, cur)
            if move is None:
                cache[cur] = {canonical_class_rep(group, cur): ONE}
                stack.pop()
                continue
            parents, (y, label, z) = move
            frame = pending[cur] = parents, multiply(dict(group.simple_items())[label], y), z
        parents, sy, z = frame
        if sy not in cache:
            stack.append(sy)
            continue
        if z not in cache:
            stack.append(z)
            continue
        result = {}
        for rep, c in cache[sy].items():
            _add_term(result, rep, c * Q_MINUS_1)
        for rep, c in cache[z].items():
            _add_term(result, rep, c * Q)
        for elem in parents:
            cache[elem] = result
        del pending[cur]
        stack.pop()
    return cache[w]


def recursive_reduce(group, f):
    cache, out = {}, {}
    for w, c in f.terms.items():
        for rep, x in recursive_normal_form(group, w, cache).items():
            _add_term(out, rep, c * x)
    return HeckeElement(out)


def random_expression(rng, elems):
    """Up to six terms, with coefficients of both signs in several
    degrees, some of which may cancel."""
    f = HeckeElement()
    for w in rng.sample(elems, min(len(elems), rng.randint(1, 6))):
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        f = f + HeckeElement.basis(w, QPoly(coeffs) or ONE)
    return f


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_work_list_equals_recursion_on_random_expressions(label, lattice):
    g, oracle = fresh(label, lattice), fresh(label, lattice)
    rng = random.Random(f"forms:{label}:{lattice}")
    radius = max(3, 7 - g.datum.rank)
    elems = [w for lab in kappa_labels(g)[:3] for w in g.ball(radius, lab)]
    long = [w for w in elems if g.length(w) >= radius - 1]
    for _ in range(12):
        f = random_expression(rng, long if rng.random() < 0.5 else elems)
        assert cocenter_reduce(g, f) == recursive_reduce(oracle, f), f


def test_work_list_equals_recursion_at_depth():
    g, oracle = fresh("A1"), fresh("A1")
    f = HeckeElement()
    for text, c in (("t[40]*s1", ONE), ("t[-37]", QPoly((2, -1))), ("t[25]*s1", Q)):
        f = f + HeckeElement.basis(parse_element(g, text), c)
    assert cocenter_reduce(g, f) == recursive_reduce(oracle, f)


def test_work_list_equals_recursion_in_levis():
    g = fresh("GL4", "gl")
    rng = random.Random("forms:levis")
    for v in islice(oracle_levi_grid(g), 4):
        m = levi_weyl_group(g, v)
        oracle = levi_weyl_group(fresh("GL4", "gl"), v)
        elems = [w for lab in kappa_labels(m)[:2] for w in m.ball(3, lab)]
        for _ in range(6):
            f = random_expression(rng, elems)
            assert cocenter_reduce(m, f) == recursive_reduce(oracle, f), m


# -- the work it takes -------------------------------------------------------


@pytest.mark.parametrize("k", [50, 100, 150, 200])
def test_deep_a1_form_pops_each_element_once(k, monkeypatch):
    # t^k s1 has length 2k - 1, and its rewrite chain meets one element
    # of each smaller length once
    pops = []
    real = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or real(heap))
    g = fresh("A1")
    nf = cocenter_reduce(g, HeckeElement.basis(parse_element(g, f"t[{k}]*s1")))
    assert len(nf.terms) == k
    assert len(pops) == 2 * k - 1
    assert len(g.nf_steps) == 2 * k - 1
    # the memo holds the form of the input only
    assert list(g.nf_cache) == [parse_element(g, f"t[{k}]*s1")]


@pytest.mark.parametrize("label,lattice,text", [
    ("A2", "sc", "t[3,-1]*s1"), ("B2", "sc", "t[3,-1]*s2"), ("G2", "sc", "t[2,-3]*s1"),
])
def test_every_element_is_popped_once(label, lattice, text, monkeypatch):
    # rewrite chains that merge: an element popped before all its
    # coefficient has arrived would be pushed and popped again
    popped = []
    real = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda heap: popped.append(heap[0][1]) or real(heap))
    g, oracle = fresh(label, lattice), fresh(label, lattice)
    f = HeckeElement.basis(parse_element(g, text))
    assert cocenter_reduce(g, f) == recursive_reduce(oracle, f)
    assert len(popped) == len(set(popped)) > 30


def test_forms_are_memoised_per_input_element():
    g = fresh("A2")
    x, y = parse_element(g, "t[3,-3]"), parse_element(g, "t[2,-1]*s1")
    f = HeckeElement({x: ONE, y: Q})
    first = cocenter_reduce(g, f)
    assert set(g.nf_cache) == {x, y}
    steps = dict(g.nf_steps)
    assert cocenter_reduce(g, f.scale(Q)) == first.scale(Q)
    assert g.nf_steps == steps


# -- the windowed listing against the one-sided one over W_M ------------------


def w_m_orbit(ctx, mu):
    return {mat_act(u, mu) for u in ctx.finite_elements()}


def one_sided_class_set(ctx, w_min):
    """The former listing: the conjugates a' = u a u^{-1} and the
    centraliser cosets R read off a walk over all of W_M, and every
    dominant translation of length at most L + length(a'), with the
    W_M-orbits taken over W_M; sorted by the word-based key."""
    datum = ctx.datum
    length = ctx.length(w_min)
    lam, a = w_min
    hnf = _coinvariant_hnf(ctx, a)
    conjugators, cosets = {}, set()
    for u in ctx.finite_elements():
        a_conj = datum.product(datum.product(u, a), datum.finite_inverse(u))
        conjugators.setdefault(a_conj, u)
        if a_conj == a:
            cosets.add(coset_reduce(mat_act(u, lam), hnf))
    bounds = {a_conj: length + ctx.finite_length(a_conj) for a_conj in conjugators}
    members = []
    for mu, mu_length in _enumerate_dominant(ctx, lam, max(bounds.values())):
        for nu in w_m_orbit(ctx, mu):
            if coset_reduce(nu, hnf) not in cosets:
                continue
            for a_conj, u in conjugators.items():
                if mu_length <= bounds[a_conj]:
                    z = AffineWeylElement(mat_act(u, nu), a_conj)
                    if ctx.length(z) == length:
                        members.append(z)
    return tuple(sorted(members, key=lambda w: oracle_sort_key(ctx, w)))


def ball_classes(label, lattice, radius):
    """The minimal representatives reached from the class-listing balls
    of test_class_keys."""
    g = fresh(label, lattice)
    labels = g.datum.omega_labels()
    n = g.datum.rank
    if labels is None and n < 4:
        labels = [(0,) * n, (1,) + (0,) * (n - 1)]
    return g, {reduce_to_min(g, w)[0] for w in g.enumerate_ball(radius, labels)}


@pytest.mark.parametrize("label,lattice,radius", [
    ("A1", "sc", 6), ("A1", "ad", 6), ("A2", "sc", 5), ("A2", "ad", 5),
    ("B2", "sc", 5), ("B2", "ad", 5), ("C2", "sc", 5), ("C2", "ad", 5),
    ("G2", "sc", 5), ("G2", "ad", 5), ("GL2", "sc", 5), ("GL3", "sc", 4),
    ("GL4", "sc", 3),
])
def test_windowed_listing_equals_one_sided_walk_over_w_m(label, lattice, radius):
    g, classes = ball_classes(label, lattice, radius)
    oracle = fresh(label, lattice)
    for w_min in sorted(classes, key=lambda w: oracle_sort_key(g, w)):
        assert class_minimal_set(g, w_min) == one_sided_class_set(oracle, w_min), \
            element_str(g, w_min)
    # members sit on both ends of their windows |length(t^mu) - L| <= length(a')
    offsets = {(g.length(g.translation(z.translation)) - g.length(z),
                g.finite_length(z.finite))
               for w_min in classes for z in class_minimal_set(g, w_min)}
    assert any(d == -span for d, span in offsets)
    assert any(d == span > 0 for d, span in offsets)


@pytest.mark.parametrize("label,lattice", [("GL4", "gl"), ("GL5", "gl"), ("G2", "sc")])
def test_windowed_listing_equals_one_sided_walk_in_levis(label, lattice):
    g = fresh(label, lattice)
    for v in islice(oracle_levi_grid(g), 8):
        m = levi_weyl_group(g, v)
        for lab in kappa_labels(m)[:2]:
            for w in m.ball(max(2, 6 - g.datum.rank), lab):
                w_min = reduce_to_min(m, w)[0]
                assert class_minimal_set(m, w_min) == one_sided_class_set(m, w_min), \
                    (m, element_str(g, w_min))


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_translation_orbit_walk_equals_w_m_orbit(label, lattice):
    g = fresh(label, lattice)
    n = g.datum.rank
    for ctx in [g] + [levi_weyl_group(g, v) for v in islice(oracle_levi_grid(g), 3)]:
        for lam in [(0,) * n, (1,) + (0,) * (n - 1), tuple(range(n, 0, -1)),
                    tuple((-1) ** i * i for i in range(n))]:
            assert ctx.translation_orbit(lam) == w_m_orbit(ctx, lam), (ctx, lam)


def test_gl5_cocenter_reduce_never_enumerates_w_m(monkeypatch):
    g = fresh("GL5", "gl")

    def refuse(*args):
        raise AssertionError("W_M was enumerated")

    monkeypatch.setattr(type(g.datum), "reflection_subgroup", refuse)
    monkeypatch.setattr(AffineWeylGroup, "finite_elements", refuse)
    w = parse_element(g, "t[0,1,0,0,0]*s2*s3")
    nf = cocenter_reduce(g, HeckeElement.basis(w))
    assert nf and all(is_min_in_class(g, rep) for rep in nf.terms)
