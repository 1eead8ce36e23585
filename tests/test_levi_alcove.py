from fractions import Fraction
from itertools import product

import pytest

from newton_cocenter import (
    AffineRoot, InputError, act_on_affine_root, conjugate,
    is_min_in_class, multiply, newton_index, newton_point, parse_element,
)
from newton_cocenter.affine_weyl import AffineWeylElement
from newton_cocenter.levi_alcove import (
    conjugate_levi, is_v_alcove, levi_weyl_group, parabolic_faces, positivity_exponent,
)
from newton_cocenter.root_datum import coweight, dot, mat_act
from newton_cocenter.verify import _is_v_alcove_wide, _levi_faces
from conftest import ALL_DATA, group, oracle_levi_grid, oracle_sort_key

F = Fraction

GL5_V = coweight([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)])


def levi_box(g, m, box=1):
    out = []
    for coords in product(range(-box, box + 1), repeat=g.datum.rank):
        for u in m.finite_elements():
            out.append(AffineWeylElement(tuple(coords), u))
    return sorted(out, key=lambda w: oracle_sort_key(m, w))


def test_levi_full_group_length_is_ambient(a2):
    m = levi_weyl_group(a2, coweight([0, 0]))
    for w in a2.enumerate_ball(4):
        assert m.length(w) == a2.length(w)
    assert len(m.simple_items()) == len(a2.simple_items())


def test_levi_torus_is_trivial(a1):
    m = levi_weyl_group(a1, coweight([1]))
    assert m.simple_items() == ()
    t = a1.translation([-3])
    assert m.length(t) == 0
    assert m.newton_index(t) == m.newton_index(t)
    assert m.newton_index(t).nu_bar == coweight([-3])
    assert m.kappa(t) == (-3,)


def test_levis_are_cut_from_the_ambient_group_only():
    g = group("GL3")
    m = levi_weyl_group(g, coweight([1, 0, 0]))
    with pytest.raises(InputError, match="from the ambient group only"):
        levi_weyl_group(m, coweight([1, 0, 0]))


def test_gl5_anchor_levi_lengths(gl5):
    m = levi_weyl_group(gl5, GL5_V)
    assert len(m.simple_items()) == 5      # affine A2 + affine A1 walls
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    assert m.is_member(w)
    assert m.length(w) == 0
    assert gl5.length(w) == 3


def test_levi_length_never_exceeds_ambient_with_strictness(c2):
    m = levi_weyl_group(c2, coweight([1, 0]))
    strict = 0
    for w in levi_box(c2, m):
        assert m.length(w) <= c2.length(w)
        if m.length(w) < c2.length(w):
            strict += 1
    assert strict > 0


def test_newton_index_map_examples(a1, gl5):
    mt = levi_weyl_group(a1, coweight([1]))
    t_neg = a1.translation([-1])
    nu_m = mt.newton_index(t_neg)
    assert nu_m.omega == (-1,) and nu_m.nu_bar == coweight([-1])
    image = a1.index_of(nu_m.omega, nu_m.nu_bar)
    assert image.omega == (0,) and image.nu_bar == coweight([1])

    m = levi_weyl_group(gl5, GL5_V)
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    nu_m = m.newton_index(w)
    assert gl5.index_of(nu_m.omega, nu_m.nu_bar) == newton_index(gl5, w)


def test_newton_index_map_full_group_is_identity(a2):
    m = levi_weyl_group(a2, coweight([0, 0]))
    for w in a2.enumerate_ball(4):
        nu_m = m.newton_index(w)
        assert a2.index_of(nu_m.omega, nu_m.nu_bar) == newton_index(a2, w)


def test_conjugate_levi_identity_and_w_m(a2):
    v = coweight([1, 1])
    m = levi_weyl_group(a2, v)
    ident = tuple(tuple(int(i == j) for j in range(2)) for i in range(2))
    m2, index_map = conjugate_levi(a2, ident, v)
    assert m2 is m
    for w in levi_box(a2, m):
        assert index_map(m.newton_index(w)) == m.newton_index(w)


def test_conjugate_levi_by_levi_weyl_element(c2):
    v = coweight([1, 1])
    m = levi_weyl_group(c2, v)
    for u0 in m.finite_elements():
        assert mat_act(u0, v.x) == v.x
        m2, index_map = conjugate_levi(c2, u0, v)
        assert m2 is m
        for w in levi_box(c2, m):
            assert index_map(m.newton_index(w)) == m.newton_index(w)


def test_conjugate_levi_three_cycle():
    g = group("GL3")
    v = coweight([1, 0, -1])
    m = levi_weyl_group(g, v)
    cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))      # e1->e2->e3->e1
    m2, index_map = conjugate_levi(g, cycle, v)
    assert m2.phi_m == m.phi_m == ()
    x0 = g.finite_element(cycle)
    for w in levi_box(g, m):
        assert m2.newton_index(conjugate(x0, w)) == index_map(m.newton_index(w))


def test_is_v_alcove_dominant_translation(c2):
    v = coweight([1, F(1, 2)])
    for lam in [(1, 0), (2, 1), (1, 1)]:
        assert is_v_alcove(c2, c2.translation(lam), v)


def test_is_v_alcove_moving_v_fails(a2):
    s1 = parse_element(a2, "S1")
    v = coweight([1, 0])
    assert mat_act(s1.finite, v.x) != v.x
    assert not is_v_alcove(a2, s1, v)


def test_gl5_anchor_element_is_not_its_newton_alcove(gl5):
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    assert not is_min_in_class(gl5, w)
    assert not is_v_alcove(gl5, w, newton_point(gl5, w))


def test_minimal_elements_are_newton_alcove():
    for label in ("A1", "A2", "C2"):
        g = group(label)
        for w in g.enumerate_ball(6):
            if is_min_in_class(g, w):
                assert is_v_alcove(g, w, newton_point(g, w))


def alcove_window_oracle(g, w, v, widen=2):
    """The alcove test with a doubled level window: extra levels must
    never change the verdict."""
    from newton_cocenter import inverse
    if mat_act(w.finite, v.x) != v.x:
        return False
    plus = [a for a in g.datum.roots if dot(a, v.x) > 0]
    winv = inverse(w)
    window = widen * (max((abs(dot(a, w.translation))
                          for a in g.datum.roots), default=0) + 1)
    from newton_cocenter import is_positive_affine_root
    for beta in plus:
        for k in range(-window, window + 1):
            b = AffineRoot(beta, k)
            if is_positive_affine_root(g.datum, act_on_affine_root(g.datum, winv, b)) \
                    and not is_positive_affine_root(g.datum, b):
                return False
    return True


def test_alcove_window_is_exact(c2):
    for w in c2.enumerate_ball(5):
        v = newton_point(c2, w)
        assert is_v_alcove(c2, w, v) == alcove_window_oracle(c2, w, v)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_closed_form_alcove_test_equals_level_window(label, lattice):
    """One comparison per v-positive root against the walk over every
    affine root in a doubled level window, for the Newton point of each
    ball element and every parabolic face."""
    g = group(label, lattice)
    radius = 3 if g.datum.rank <= 2 else 2
    faces = parabolic_faces(g)
    for w in g.enumerate_ball(radius):
        for v in [newton_point(g, w), *faces]:
            assert is_v_alcove(g, w, v) == _is_v_alcove_wide(g, w, v), (w, v)


def shift_oracle(g, power, v):
    """Independent route: act on actual affine roots and read the level
    shifts instead of pairing the translation part."""
    plus = [a for a in g.datum.roots if dot(a, v.x) > 0]
    shifts = []
    for beta in plus:
        image = act_on_affine_root(g.datum, power, AffineRoot(beta, 0))
        assert image.vector_part in plus
        shifts.append(image.level)
    return min(shifts) if shifts else 0


def test_positivity_exponent_gl2(gl2):
    cert = positivity_exponent(gl2, gl2.translation([1, 0]), coweight([1, 0]))
    assert cert.exponent == 1
    assert cert.bound == 4
    assert cert.exponent <= cert.bound


def test_positivity_exponent_central_translation(c2):
    v = coweight([1, F(1, 2)])
    m = levi_weyl_group(c2, v)
    lam = (2, 1)
    assert all(dot(a, lam) >= 1 for a in g_plus(c2, v))
    cert = positivity_exponent(c2, c2.translation(lam), v)
    assert cert.exponent == 1


def g_plus(g, v):
    return [a for a in g.datum.roots if dot(a, v.x) > 0]


def test_positivity_exponent_gl5_anchor_element(gl5):
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    cert = positivity_exponent(gl5, w, GL5_V)
    assert cert.exponent > 1
    assert cert.denominator_scale == 6
    assert cert.bound == (2 * cert.n0 + cert.n1 + 1) * 6
    assert cert.exponent <= cert.bound
    assert cert.exponent == 6
    # cross-check the exponent with the affine-root-action oracle
    power = gl5.identity
    for i in range(1, cert.exponent + 1):
        power = multiply(power, w)
        ok = shift_oracle(gl5, power, GL5_V) >= 1
        assert ok == (i == cert.exponent)


def test_positivity_rejects_non_positive_direction(a1):
    with pytest.raises(InputError):
        positivity_exponent(a1, a1.identity, coweight([1]))


def test_positivity_requires_levi_membership(a2):
    s1 = parse_element(a2, "S1")
    with pytest.raises(InputError):
        positivity_exponent(a2, s1, coweight([1, 0]))


def _in_ambient_stratum(g, m, w):
    # the ambient Newton index of w is the image of its M-index
    nu_m = m.newton_index(w)
    return g.index_of(nu_m.omega, nu_m.nu_bar) == g.newton_index(w)


def test_m_in_g_stratum_exhaustive():
    for label in ("A1", "A2", "C2"):
        g = group(label)
        vs = {(F(0),) * g.datum.rank}
        for coords in product((F(0), F(1, 2), F(1), F(2, 3)),
                              repeat=g.datum.rank):
            vs.add(coords)
        seen = set()
        for v in sorted(vs):
            m = levi_weyl_group(g, coweight(v))
            key = m.phi_m
            if key in seen:
                continue
            seen.add(key)
            for w in levi_box(g, m):
                assert _in_ambient_stratum(g, m, w)


def test_m_in_g_gl3_torus():
    g = group("GL3")
    m = levi_weyl_group(g, coweight([1, F(1, 2), 0]))
    for coords in product(range(-3, 4), repeat=3):
        t = g.translation(coords)
        assert _in_ambient_stratum(g, m, t)



# -- the parabolic faces ------------------------------------------------------

# (faces, distinct Levis) of every datum, sc and ad alike: the faces of
# GL(n) are the ordered set partitions of n, its Levis the set partitions
FACE_COUNTS = {"A1": (3, 2), "A2": (13, 5), "B2": (17, 6), "C2": (17, 6), "G2": (25, 8),
               "GL1": (1, 1), "GL2": (3, 2), "GL3": (13, 5), "GL4": (75, 15),
               "GL5": (541, 52)}


def phi_m_of(g, v):
    return frozenset(a for a in g.datum.roots if dot(a, v.x) == 0)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_parabolic_faces_count_every_levi(label, lattice):
    g = group(label, lattice)
    faces = parabolic_faces(g)
    assert len(set(faces)) == len(faces) == FACE_COUNTS[label][0]
    levis = _levi_faces(g)
    assert len({phi_m_of(g, v) for v in faces}) == len(levis) == FACE_COUNTS[label][1]
    assert levis == [next(f for f in faces if phi_m_of(g, f) == phi_m_of(g, v))
                     for v in levis]
    assert [sorted(phi_m_of(g, v)) for v in levis] \
        == sorted(sorted(phi_m_of(g, v)) for v in levis)
    if lattice == "gl":
        assert all(sum(v.x) == 0 for v in faces)
    assert parabolic_faces(g) == faces


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_dominant_faces_are_the_standard_levis(label, lattice):
    # one dominant face v_J per set J of simple roots, pairing to 0 on J
    # and to 1 off it, whose Levi has exactly J as its M-simple roots
    g = group(label, lattice)
    simple = g.datum.simple_roots
    dominant = [v for v in parabolic_faces(g) if all(dot(a, v.x) >= 0 for a in simple)]
    assert len(dominant) == 2 ** len(simple)
    js = set()
    for v in dominant:
        assert {dot(a, v.x) for a in simple} <= {0, v.d}
        j = frozenset(a for a in simple if dot(a, v.x) == 0)
        assert set(levi_weyl_group(g, v).m_simple_roots) == j
        js.add(j)
    assert len(js) == len(dominant)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_grid_levis_are_face_levis(label, lattice):
    # the coordinate grid finds a subset of the faces' Levis, all of them
    # but GL5's torus
    g = group(label, lattice)
    faces = {phi_m_of(g, v) for v in parabolic_faces(g)}
    for max_den in (4, 6):
        grid = {phi_m_of(g, v) for v in oracle_levi_grid(g, max_den)}
        assert grid <= faces
        assert faces - grid == ({frozenset()} if label == "GL5" else set())
