import functools
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from newton_cocenter import (
    AffineWeylGroup, InputError, NewtonIndex, ResourceError, build_root_datum,
    canonical_class_rep, is_min_in_class, multiply, newton_index, parse_element,
)
from newton_cocenter.hecke_cocenter import (
    ONE, Q, HeckeElement, QPoly, cocenter_reduce, cocenter_reduce_randomized,
    hecke_mul, induce, newton_components, parse_poly, rigid_decomposition,
)
from newton_cocenter.levi_alcove import levi_weyl_group, parabolic_faces
from newton_cocenter.root_datum import coweight
from conftest import ALL_DATA, group, kappa_labels

F = Fraction


# -- polynomials -----------------------------------------------------------

def test_qpoly_arithmetic():
    p = QPoly((1, 2))          # 1 + 2q
    q = QPoly((0, 0, 3))       # 3q^2
    assert p + q == QPoly((1, 2, 3))
    assert p * q == QPoly((0, 0, 3, 6))
    assert (p - p) == QPoly()
    assert not QPoly()
    assert QPoly((0, 1, 1)).evaluate(3) == 12


def test_qpoly_str_parse_round_trip():
    for text in ["q^2-1", "q", "-q", "1", "0", "2*q^3+q-4", "q-1"]:
        assert str(parse_poly(text)) == text
    assert parse_poly("(q-1)") == QPoly((-1, 1))
    assert parse_poly("3q^2") == QPoly((0, 0, 3))
    with pytest.raises(InputError):
        parse_poly("q**2")


# -- multiplication --------------------------------------------------------

def test_quadratic_relation(a1):
    s1 = parse_element(a1, "S1")
    prod = hecke_mul(a1, HeckeElement.basis(s1), HeckeElement.basis(s1))
    assert prod.terms == {a1.identity: Q, s1: QPoly((-1, 1))}


def test_length_additive_products(a2):
    for x in a2.enumerate_ball(3):
        for y in a2.enumerate_ball(2):
            if a2.length(multiply(x, y)) == a2.length(x) + a2.length(y):
                prod = hecke_mul(a2, HeckeElement.basis(x), HeckeElement.basis(y))
                assert prod.terms == {multiply(x, y): ONE}


def test_sl2_braid_product(a1):
    s0, s1 = parse_element(a1, "S0"), parse_element(a1, "S1")
    prod = hecke_mul(a1, hecke_mul(a1, HeckeElement.basis(s0),
                                   HeckeElement.basis(s1)),
                     HeckeElement.basis(s0))
    w = multiply(multiply(s0, s1), s0)
    assert prod.terms == {w: ONE}


def test_unit_and_omega_translation(gl2):
    om = parse_element(gl2, "t[1,0]*s1")
    f = HeckeElement.basis(om, QPoly((1, 1)))
    assert hecke_mul(gl2, HeckeElement.basis(gl2.identity), f) == f
    prod = hecke_mul(gl2, f, HeckeElement.basis(om))
    assert prod.terms == {multiply(om, om): QPoly((1, 1))}


def test_q1_specialization_is_group_algebra():
    rng = random.Random(7)
    g = group("C2")
    ball = g.enumerate_ball(4)
    for _ in range(60):
        x, y = rng.choice(ball), rng.choice(ball)
        prod = hecke_mul(g, HeckeElement.basis(x), HeckeElement.basis(y))
        assert prod.evaluate_q(1) == {multiply(x, y): 1}


def test_associativity_random():
    rng = random.Random(8)
    g = group("A2")
    ball = g.enumerate_ball(3)
    for _ in range(40):
        fx, fy, fz = (HeckeElement.basis(rng.choice(ball)) for _ in range(3))
        left = hecke_mul(g, hecke_mul(g, fx, fy), fz)
        right = hecke_mul(g, fx, hecke_mul(g, fy, fz))
        assert left == right


@pytest.mark.parametrize("label,lattice", [("A2", "sc"), ("C2", "ad"), ("GL3", "gl")])
def test_subtraction_equals_adding_the_negation(label, lattice):
    # f - h subtracts in place; the oracle scales h by the constant -1
    g = group(label, lattice)
    ball = g.enumerate_ball(4)
    rng = random.Random(f"{label}:{lattice}")

    def combination():
        return HeckeElement({w: QPoly(tuple(rng.randint(-3, 3) for _ in range(3)))
                             for w in rng.sample(ball, rng.randint(1, 4))})

    for _ in range(40):
        f, h = combination(), combination()
        assert f - h == f + h.scale(QPoly.const(-1))
        assert (f + h) - f == h
        assert (f - f).terms == {}


# -- cocenter reduction ----------------------------------------------------

def test_sl2_single_down_step_normal_form(a1):
    w = parse_element(a1, "S1*S0*S1")
    nf = cocenter_reduce(a1, HeckeElement.basis(w))
    t_rep = canonical_class_rep(a1, a1.translation([1]))
    s0_rep = canonical_class_rep(a1, parse_element(a1, "S0"))
    assert nf.terms == {t_rep: QPoly((-1, 1)), s0_rep: Q}
    comps = newton_components(a1, nf)
    zero = NewtonIndex((0,), coweight([F(0)]))
    coroot = NewtonIndex((0,), coweight([F(1)]))
    assert comps[zero].terms == {s0_rep: Q}
    assert comps[coroot].terms == {t_rep: QPoly((-1, 1))}


def test_reduce_fixes_canonical_support(a2):
    for w in a2.enumerate_ball(4):
        rep = canonical_class_rep(a2, w)
        nf = cocenter_reduce(a2, HeckeElement.basis(rep))
        assert nf.terms == {rep: ONE}


def test_reduce_zero(a1):
    nf = cocenter_reduce(a1, HeckeElement.zero())
    assert not nf
    assert newton_components(a1, nf).get(NewtonIndex((0,), coweight([F(0)])),
                                         HeckeElement.zero()) == HeckeElement.zero()


def test_commutators_vanish_small():
    for label in ("A1", "A2", "C2"):
        g = group(label)
        ball = g.enumerate_ball(4)
        for x, y in combinations(ball, 2):
            if g.length(x) + g.length(y) > 4:
                continue
            tx, ty = HeckeElement.basis(x), HeckeElement.basis(y)
            comm = hecke_mul(g, tx, ty) - hecke_mul(g, ty, tx)
            assert not cocenter_reduce(g, comm), \
                f"[{x},{y}] did not vanish in {label}"


def test_kappa_discipline(gl2):
    for w in gl2.enumerate_ball(4, [(0, 0), (0, 1)]):
        nf = cocenter_reduce(gl2, HeckeElement.basis(w))
        for key in nf.terms:
            assert gl2.kappa(key) == gl2.kappa(w)


def test_minimal_support_at_own_index(c2):
    from newton_cocenter import is_min_in_class
    for w in c2.enumerate_ball(5):
        if not is_min_in_class(c2, w):
            continue
        nf = cocenter_reduce(c2, HeckeElement.basis(w))
        assert list(nf.terms.values()) == [ONE]
        (key,) = nf.terms
        assert newton_index(c2, key) == newton_index(c2, w)


def test_q1_class_map(a2):
    for w in a2.enumerate_ball(5):
        nf = cocenter_reduce(a2, HeckeElement.basis(w))
        assert nf.evaluate_q(1) == {canonical_class_rep(a2, w): 1}


def test_confluence_randomized(a2):
    ball = a2.enumerate_ball(4)
    f = HeckeElement()
    for i, w in enumerate(x for x in ball if a2.length(x) >= 2):
        if i >= 4:
            break
        f = f + HeckeElement.basis(w, QPoly((i, 1)))
    target = cocenter_reduce(a2, f)
    for seed in range(60):
        assert cocenter_reduce_randomized(a2, f, random.Random(seed)) == target


def test_randomized_reduction_refuses_to_run_out_of_steps(a2):
    w = parse_element(a2, "S1*S0*S2*S1")
    assert not is_min_in_class(a2, w)
    with pytest.raises(ResourceError):
        cocenter_reduce_randomized(a2, HeckeElement.basis(w), random.Random(0),
                                   max_steps=1)


def test_confluence_check_counts_exhausted_seeds(a2, monkeypatch):
    from newton_cocenter import verify
    short = functools.partial(cocenter_reduce_randomized, max_steps=1)
    monkeypatch.setattr(verify, "cocenter_reduce_randomized", short)
    report = verify.suite_cocenter(a2, {"pair_budget": 4, "seeds": 3, "seed": 0})
    check = next(c for c in report.checks
                 if c.property_id == "confluence-under-random-strategies")
    assert (check.instances, check.failures) == (3, 3)
    assert not report.passed


def test_nf_basis_does_not_recurse_per_descent():
    # a recursive normal form needs one frame per descent: k for t[k]*s1
    f = HeckeElement.basis(parse_element(group("A1"), "t[150]*s1"))
    expected = cocenter_reduce(AffineWeylGroup(build_root_datum("A1")), f)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        got = cocenter_reduce(AffineWeylGroup(build_root_datum("A1")), f)
    finally:
        sys.setrecursionlimit(limit)
    assert expected and got == expected


# -- induction -------------------------------------------------------------

def test_induce_full_group_is_reduce(a2):
    m = levi_weyl_group(a2, coweight([0, 0]))
    w = a2.enumerate_ball(3)[5]
    from newton_cocenter import is_min_in_class
    for w in a2.enumerate_ball(3):
        if not is_min_in_class(m, w):
            continue
        nf = induce(a2, m, HeckeElement.basis(w))
        assert nf == cocenter_reduce(a2, HeckeElement.basis(w))


def test_induce_sl2_torus_identifies_signs(a1):
    m = levi_weyl_group(a1, coweight([F(1)]))
    t_rep = canonical_class_rep(a1, a1.translation([1]))
    up = induce(a1, m, HeckeElement.basis(a1.translation([1])))
    down = induce(a1, m, HeckeElement.basis(a1.translation([-1])))
    assert up.terms == down.terms == {t_rep: ONE}
    coroot = NewtonIndex((0,), coweight([F(1)]))
    assert newton_components(a1, up)[coroot].terms == {t_rep: ONE}


def test_induce_component_discipline(a1):
    m = levi_weyl_group(a1, coweight([F(1)]))
    t = a1.translation([2])
    nf = induce(a1, m, HeckeElement.basis(t))
    comps = newton_components(a1, nf)
    assert list(comps) == [NewtonIndex((0,), coweight([F(2)]))]


def test_induce_precondition_errors(a1):
    m = levi_weyl_group(a1, coweight([F(1)]))
    s1 = parse_element(a1, "S1")
    with pytest.raises(InputError):
        induce(a1, m, HeckeElement.basis(s1))
    t1, t2 = a1.translation([1]), a1.translation([2])
    mixed = HeckeElement.basis(t1) + HeckeElement.basis(t2)
    with pytest.raises(InputError, match="support must be in the nu_m fiber"):
        induce(a1, m, mixed)
    with pytest.raises(InputError, match="induce needs a nonzero element"):
        induce(a1, m, HeckeElement())


def test_induce_checks_every_key_for_membership_first(a1):
    # a key outside W(M) is refused as such wherever it stands, before
    # nu_m is read off the keys and a member's fiber is compared
    m = levi_weyl_group(a1, coweight([F(1)]))
    t2, s1 = a1.translation([2]), parse_element(a1, "S1")
    for keys in ([t2, s1], [s1, t2]):
        f = HeckeElement.basis(keys[0]) + HeckeElement.basis(keys[1])
        with pytest.raises(InputError, match="support must lie in the Levi subgroup"):
            induce(a1, m, f)


def test_induce_refuses_stratum_straddling_support(gl5):
    # M-minimal but far from ambient-minimal: its Iwahori class meets
    # several Newton strata, so the basis-level shadow must refuse.
    m = levi_weyl_group(gl5, coweight([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)]))
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    assert m.length(w) == 0
    with pytest.raises(InputError):
        induce(gl5, m, HeckeElement.basis(w))


def test_induce_ambient_minimal_gl5_key(gl5):
    # the canonical representative sits in the Levi of its own Newton
    # point, a conjugate of the standard GL3 x GL2 Levi
    from newton_cocenter import canonical_class_rep, is_min_in_class, newton_point
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    rep = canonical_class_rep(gl5, w)
    m = levi_weyl_group(gl5, newton_point(gl5, rep))
    assert is_min_in_class(gl5, rep) and is_min_in_class(m, rep)
    nf = induce(gl5, m, HeckeElement.basis(rep))
    assert nf.terms == {rep: ONE}


def test_induce_into_a_levi_labels_kappa_in_that_levi():
    # torus T inside L = GL2 x GL1 of GL3: the target kappa is taken mod
    # the coroot lattice of L, not of GL3, so the image is one term
    g = group("GL3", "gl")
    m = levi_weyl_group(g, coweight([F(2), F(1), F(0)]))
    ell = levi_weyl_group(g, coweight([F(1), F(1), F(0)]))
    x = g.translation([2, 1, 0])
    nf = induce(ell, m, HeckeElement.basis(x))
    assert nf.terms == {canonical_class_rep(ell, x): ONE}
    assert list(newton_components(ell, nf)) == [ell.newton_index(x)]


@pytest.mark.parametrize("label, lattice", ALL_DATA)
def test_induce_is_a_function_on_levi_classes(label, lattice):
    # induce is the induction map on its domain, where M contains the
    # centraliser of the Newton point, and refuses every other key: any
    # two M-minimal members of one M-class that it accepts give one
    # image.  One M-ball per Levi containing T, by rank.
    g = group(label, lattice)
    radius = {1: 6, 2: 4, 3: 3}.get(g.datum.rank, 2)
    levis = {m.phi_m: m for m in (levi_weyl_group(g, v) for v in parabolic_faces(g))}
    for m in levis.values():
        images = {}
        for w in m.enumerate_ball(radius, kappa_labels(m)):
            if not is_min_in_class(m, w):
                continue
            try:
                nf = induce(g, m, HeckeElement.basis(w))
            except InputError:
                continue
            first = images.setdefault(canonical_class_rep(m, w), (w, nf))
            assert first[1] == nf, (m, first[0], w)


# -- rigid decomposition ---------------------------------------------------

def test_rigid_sl2_ball4(a1):
    rows = rigid_decomposition(a1, 4, [(0,)])
    table = [(r.nu.nu_bar, r.levi_label, r.class_count, r.covered)
             for r in rows]
    assert table == [
        (coweight([F(0)]), "G", 3, True),
        (coweight([F(1)]), "T", 1, True),
        (coweight([F(2)]), "T", 1, True),
    ]


def test_rigid_l0_omega_elements(gl2):
    rows = rigid_decomposition(gl2, 0, [(0, 0), (0, 1)])
    assert len(rows) == 2
    assert all(r.class_count == 1 and r.covered for r in rows)
    assert {r.levi_label for r in rows} == {"G"}


def test_rigid_all_covered_a2_c2():
    for label in ("A2", "C2"):
        g = group(label)
        rows = rigid_decomposition(g, 6)
        assert rows and all(r.covered for r in rows)
