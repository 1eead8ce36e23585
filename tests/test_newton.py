from fractions import Fraction

from newton_cocenter import (
    Coweight, NewtonIndex, conjugate, coweight, is_straight, is_straight_by_powers, multiply,
    newton_index, newton_point, parse_element, strata,
)
from conftest import group

F = Fraction


def test_gl5_anchor_newton_point(gl5):
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    assert newton_point(gl5, w) == coweight([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)])


def test_translation_newton_point_is_itself(c2):
    for lam in [(1, 0), (0, -2), (3, 1)]:
        assert newton_point(c2, c2.translation(lam)) == coweight(lam)


def test_sl2_affine_reflection_has_zero_newton_point(a1):
    s0 = parse_element(a1, "S0")
    assert newton_point(a1, s0) == coweight([F(0)])
    assert newton_index(a1, s0) == NewtonIndex((0,), coweight([F(0)]))


def test_newton_index_examples(a1, gl2):
    t = a1.translation([1])
    w2 = multiply(parse_element(a1, "S0"), parse_element(a1, "S1"))
    assert a1.length(w2) == 2
    assert newton_index(a1, w2) == NewtonIndex((0,), coweight([F(1)]))
    assert newton_index(a1, a1.identity) == NewtonIndex((0,), coweight([F(0)]))
    om = parse_element(gl2, "t[1,0]*s1")
    idx = newton_index(gl2, om)
    assert idx.nu_bar == coweight([F(1, 2), F(1, 2)])
    assert idx.omega == gl2.kappa(om) != (0, 0)


def test_newton_index_conjugation_invariant_exhaustive():
    for label in ("A1", "A2", "C2"):
        g = group(label)
        for w in g.enumerate_ball(5):
            idx = newton_index(g, w)
            for _, s in g.simple_items():
                assert newton_index(g, conjugate(s, w)) == idx


def test_straightness_examples(a1):
    assert is_straight(a1, a1.translation([2]))
    s0 = parse_element(a1, "S0")
    assert not is_straight(a1, s0)
    assert not is_straight_by_powers(a1, s0)
    for w in (multiply(parse_element(a1, "S0"), parse_element(a1, "S1")),
              multiply(parse_element(a1, "S1"), parse_element(a1, "S0"))):
        assert a1.length(w) == 2
        assert is_straight(a1, w)


def test_straightness_two_routes_agree_exhaustive():
    for label in ("A1", "A2", "C2", "G2"):
        g = group(label)
        for w in g.enumerate_ball(6):
            assert is_straight(g, w) == is_straight_by_powers(g, w), \
                f"straightness mismatch at {w} in {label}"


def test_straight_powers_scale(c2):
    for w in c2.enumerate_ball(5):
        if not is_straight(c2, w):
            continue
        base = newton_index(c2, w).nu_bar
        power = w
        for k in range(2, 7):
            power = multiply(power, w)
            assert c2.length(power) == k * c2.length(w)
            assert newton_index(c2, power).nu_bar == Coweight(base.d, [k * c for c in base.x])


def test_strata_sl2_ball4(a1):
    fibers = strata(a1, 4, [(0,)])
    sizes = {idx: len(elems) for idx, elems in fibers.items()}
    assert sizes == {
        NewtonIndex((0,), coweight([F(0)])): 5,
        NewtonIndex((0,), coweight([F(1)])): 2,
        NewtonIndex((0,), coweight([F(2)])): 2,
    }


def test_strata_partition_and_l0(gl2):
    fibers = strata(gl2, 0, [(0, 0), (1, 0)])
    assert all(len(v) == 1 for v in fibers.values())
    assert len(fibers) == 2
    fibers3 = strata(gl2, 3, [(0, 0)])
    total = sum(len(v) for v in fibers3.values())
    assert total == len(gl2.enumerate_ball(3, [(0, 0)]))


def test_zero_fiber_contains_non_straight_short_elements(a2):
    fibers = strata(a2, 3, [(0, 0)])
    zero = NewtonIndex((0, 0), coweight([F(0), F(0)]))
    members = fibers[zero]
    assert a2.identity in members
    for w in a2.enumerate_ball(3, [(0, 0)]):
        expected = (newton_point(a2, w) != coweight([F(0), F(0)])) or w in members
        assert expected
