import random
from fractions import Fraction
from math import gcd

import pytest

from newton_cocenter import (
    AffineWeylGroup, ConfigurationError, build_root_datum, coweight,
)
from newton_cocenter.errors import LogicError
from newton_cocenter.levi_alcove import levi_weyl_group, parabolic_faces, phi_plus
from newton_cocenter.root_datum import (
    Coweight, RootDatum, coset_reduce, dot, hnf_columns, integer_inverse, mat_act,
    mat_mul, weyl_inverse,
)
from newton_cocenter.verify import _levi_faces
from conftest import ALL_DATA, kappa_labels, oracle_rational_inverse

F = Fraction


def test_a1_sc_defining_data():
    d = build_root_datum("A1", "sc")
    assert d.rank == 1
    assert d.positive_roots == ((2,),)
    assert d.simple_coroots == ((1,),)
    assert d.w0_order == 2


def test_gl5_roots_and_lattice():
    d = build_root_datum("GL", rank=5)
    assert d.rank == 5
    assert len(d.positive_roots) == 10
    e14 = (1, 0, 0, -1, 0)
    assert d.is_positive_root(e14)
    assert d.coroot[e14] == e14
    assert d.w0_order == 120


def test_g2_closure_counts():
    d = build_root_datum("G2", "sc")
    assert len(d.positive_roots) == 6
    assert d.w0_order == 12


@pytest.mark.parametrize("label,positives,order", [
    ("A1", 1, 2), ("A2", 3, 6), ("B2", 4, 8), ("C2", 4, 8), ("G2", 6, 12),
])
@pytest.mark.parametrize("lattice", ["sc", "ad"])
def test_all_types_structure(label, positives, order, lattice):
    d = build_root_datum(label, lattice)
    assert len(d.positive_roots) == positives
    assert d.w0_order == order
    for a in d.roots:
        assert dot(a, d.coroot[a]) == 2
    # the root set is closed under negation with the positives as one half
    neg = {tuple(-x for x in a) for a in d.positive_roots}
    assert set(d.roots) == set(d.positive_roots) | neg
    assert neg.isdisjoint(d.positive_roots)


def test_root_pairing_to_one_with_its_coroot_is_refused():
    # s(a) = a - <a, a^vee> a = 0 is no root: the closure must stop and
    # the pairing guard fire, as a LogicError that survives python -O
    with pytest.raises(LogicError, match="must pair to 2"):
        RootDatum("X", "sc", 1, [(1,)], [(1,)])


def test_a_simple_reflection_that_makes_a_root_nonpositive_is_refused():
    # <alpha_1, alpha_2^vee> = 1 > 0, so s_2 alpha_1 = alpha_1 - alpha_2
    # would be a root of height 0
    with pytest.raises(LogicError, match="sends every other positive root to a positive root"):
        RootDatum("X", "sc", 2, [(1, 0), (0, 1)], [(2, 1), (1, 2)])


def test_a_reducible_ambient_root_system_is_refused():
    # A1 x A1: two Dynkin components, so two highest roots and two
    # affine walls
    d = RootDatum("X", "sc", 2, [(2, 0), (0, 2)], [(1, 0), (0, 1)])
    with pytest.raises(LogicError, match="must be irreducible"):
        AffineWeylGroup(d)


def oracle_closure(simple_roots, simple_coroots):
    """The closure of the simple roots under the simple reflections over
    all of Phi, the construction before the positive-root closure:
    (roots, coroot, height, images) with images[j][a] = s_j a."""
    simple = tuple(zip(simple_roots, simple_coroots))
    coroot, height = dict(simple), dict.fromkeys(simple_roots, 1)
    images = [{} for _ in simple]
    frontier = list(simple_roots)
    while frontier:
        a = frontier.pop()
        for image, (b, bv) in zip(images, simple):
            k = dot(a, bv)
            c = image[a] = tuple(x - k * y for x, y in zip(a, b))
            if c not in coroot:
                av, m = coroot[a], dot(b, coroot[a])
                coroot[c] = tuple(x - m * y for x, y in zip(av, bv))
                height[c] = height[a] - k
                frontier.append(c)
    return tuple(sorted(coroot)), coroot, height, images


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_positive_closure_equals_the_full_reflection_closure(label, lattice):
    d = build_root_datum(label, lattice)
    roots, coroot, height, images = oracle_closure(d.simple_roots, d.simple_coroots)
    assert d.roots == roots
    assert all(d.roots[~i] == tuple(-x for x in a) for i, a in enumerate(d.roots))
    assert d.coroot == coroot and d.height == height
    assert d.positive_roots == tuple(a for a in roots if height[a] > 0)
    assert d.tau == tuple(int(height[a] > 0) for a in roots)
    for j, (a, av) in enumerate(zip(d.simple_roots, d.simple_coroots)):
        perm = tuple(roots.index(images[j][b]) for b in roots)
        assert d.root_permutation(d.simple_reflections[j]) == perm
        # s_j(x) = x - <alpha_j, x> alpha_j^vee on cocharacters
        assert d.simple_reflections[j] == tuple(
            tuple(int(r == c) - av[r] * a[c] for c in range(d.rank)) for r in range(d.rank))


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_levi_coroot_lattice_from_its_simple_coroots(label, lattice):
    # the M-simple coroots span the lattice of all of Phi_M^vee: both
    # Hermite forms reduce the translations of a ball to one representative
    g = AffineWeylGroup(build_root_datum(label, lattice))
    lams = {w.translation for w in g.enumerate_ball(4, kappa_labels(g))}
    levis = {levi_weyl_group(g, v).phi_m: levi_weyl_group(g, v) for v in parabolic_faces(g)}
    for phi_m, m in levis.items():
        full = hnf_columns([g.datum.coroot[a] for a in phi_m])
        for lam in lams:
            assert coset_reduce(lam, m.coroot_hnf) == coset_reduce(lam, full)


def test_unsupported_descriptors():
    with pytest.raises(ConfigurationError):
        build_root_datum("E8")
    with pytest.raises(ConfigurationError):
        build_root_datum("GL", rank=6)
    with pytest.raises(ConfigurationError):
        build_root_datum("A2", "weird")


def test_weyl_preserves_roots_and_pairing():
    for label in ("A2", "C2", "G2"):
        d = build_root_datum(label)
        vs = [coweight([1, 0]), coweight([F(1, 3), F(-1, 2)])]
        for u in d.weyl_elements:
            for a in d.roots:
                b = d.act_covector(u, a)
                assert d.is_root(b)
                for v in vs:
                    assert dot(b, mat_act(u, v.x)) == dot(a, v.x)


def test_dominant_rep_gl5_anchor_point():
    d = build_root_datum("GL", rank=5)
    v = coweight([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)])
    vbar, u = AffineWeylGroup(d).dominant_rep(v)
    assert vbar == v
    assert u == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def test_dominant_rep_sl2_negative_coroot():
    d = build_root_datum("A1")
    v = coweight([-1])
    vbar, u = AffineWeylGroup(d).dominant_rep(v)
    assert vbar == coweight([1])
    assert Coweight(v.d, mat_act(u, v.x)) == vbar
    assert u == ((-1,),)


def test_dominant_rep_zero():
    d = build_root_datum("C2")
    vbar, u = AffineWeylGroup(d).dominant_rep(coweight([0, 0]))
    assert vbar == coweight([0, 0])


def test_dominant_rep_idempotent_and_orbit_invariant():
    d = build_root_datum("C2")
    g = AffineWeylGroup(d)
    samples = [coweight([F(1, 2), F(-1, 3)]), coweight([-2, 1]),
               coweight([F(5, 6), F(5, 6)])]
    for v in samples:
        vbar, _ = g.dominant_rep(v)
        assert all(dot(a, vbar.x) >= 0 for a in d.simple_roots)
        assert g.dominant_rep(vbar)[0] == vbar
        for u in d.weyl_elements:
            assert g.dominant_rep(Coweight(v.d, mat_act(u, v.x)))[0] == vbar


def test_levi_datum_gl5_anchor_levi():
    d = build_root_datum("GL", rank=5)
    v = coweight([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)])
    g = AffineWeylGroup(d)
    m = levi_weyl_group(g, v)
    # GL3 x GL2 inside GL5
    assert len(m.finite_elements()) == 12
    assert len(m.phi_m) == 8
    assert len(phi_plus(g, v)) == 6


def test_levi_datum_extremes():
    d = build_root_datum("A2")
    g = AffineWeylGroup(d)
    regular = levi_weyl_group(g, coweight([F(1, 5), F(1, 7)]))
    assert regular.phi_m == ()
    assert len(regular.finite_elements()) == 1
    full = levi_weyl_group(g, coweight([0, 0]))
    assert set(full.phi_m) == set(d.roots)
    assert len(full.finite_elements()) == d.w0_order


def test_levi_datum_conjugation_consistency():
    d = build_root_datum("C2")
    v = coweight([F(1, 2), F(1, 2)])
    g = AffineWeylGroup(d)
    m = levi_weyl_group(g, v)
    vbar, u = g.dominant_rep(v)
    mbar = levi_weyl_group(g, vbar)
    moved = {d.act_covector(u, a) for a in m.phi_m}
    assert moved == set(mbar.phi_m)


def test_levi_fixes_v():
    d = build_root_datum("G2")
    v = coweight([F(1, 2), 0])
    m = levi_weyl_group(AffineWeylGroup(d), v)
    for u in m.finite_elements():
        assert mat_act(u, v.x) == v.x


@pytest.mark.parametrize("label,fundamental_group_order", [
    ("A1", 2), ("A2", 3), ("B2", 2), ("C2", 2), ("G2", 1),
])
def test_adjoint_component_group(label, fundamental_group_order):
    d = build_root_datum(label, "ad")
    labels = d.omega_labels()
    assert labels is not None
    assert len(labels) == fundamental_group_order
    # every coroot must reduce to the trivial coset
    for av in d.coroot.values():
        assert d.kappa_label(av) == (0,) * d.rank


def omega_labels_by_search(d):
    """The coroot-lattice cosets, found by a breadth-first walk from 0
    along the unit vectors."""
    labels = {d.kappa_label((0,) * d.rank)}
    frontier = list(labels)
    basis = [tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank)]
    while frontier:
        lab = frontier.pop()
        for e in basis:
            for sgn in (1, -1):
                nxt = d.kappa_label(tuple(x + sgn * y for x, y in zip(lab, e)))
                if nxt not in labels:
                    labels.add(nxt)
                    frontier.append(nxt)
    return tuple(sorted(labels))


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_omega_labels_equal_coset_search(label, lattice):
    d = build_root_datum(label, lattice)
    if d.omega_is_finite:
        assert d.omega_labels() == omega_labels_by_search(d)
    else:
        assert d.omega_labels() is None


def test_sc_component_group_trivial():
    for label in ("A1", "A2", "B2", "C2", "G2"):
        d = build_root_datum(label, "sc")
        assert d.omega_labels() == ((0,) * d.rank,)


def test_hnf_keeps_all_generators():
    from newton_cocenter.root_datum import coset_reduce, hnf_columns
    # columns whose Euclid steps zero a row entry mid-reduction
    gens = [(2, -3), (-1, 2)]       # spans all of Z^2
    hnf = hnf_columns(gens)
    assert len(hnf) == 2
    for v in [(1, 0), (0, 1), (5, -7)]:
        assert coset_reduce(v, hnf) == (0, 0)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_a_negative_root_reuses_the_reflection_of_its_negative(label, lattice):
    d = build_root_datum(label, lattice)
    for b in d.roots:
        s = d.reflection(b)
        assert s is d.reflection(tuple(-x for x in b))
        assert d.act_covector(s, b) == tuple(-x for x in b)
        assert d.product(s, s) == d.weyl_identity


# -- integer_inverse against the Fraction oracle --------------------------


def checked_inverse(u):
    """integer_inverse(u) = (d, a), after checking u a = d I, that d is
    least (gcd(d, entries) = 1) and a / d against the Fraction oracle."""
    d, a = integer_inverse(u)
    n = len(u)
    assert d > 0 and gcd(d, *[x for row in a for x in row]) == 1
    assert mat_mul(tuple(map(tuple, u)), a) == tuple(
        tuple(d * int(i == j) for j in range(n)) for i in range(n))
    assert [[F(x, d) for x in row] for row in a] \
        == [list(row) for row in oracle_rational_inverse(u)]
    return d, a


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_integer_inverse_of_the_matrices_the_engine_inverts(label, lattice):
    # the pairing of the simple roots with the simple coroots, the Cartan
    # matrix of every Levi (the torus's is 0 x 0), the row system of
    # parabolic_faces (with GL's row (1, ..., 1)), and every element of W0
    g = AffineWeylGroup(build_root_datum(label, lattice))
    datum = g.datum
    checked_inverse([[dot(a, cv) for cv in datum.simple_coroots] for a in datum.simple_roots])
    sizes = set()
    for v in _levi_faces(g):
        simple = levi_weyl_group(g, v).m_simple_roots
        sizes.add(len(simple))
        checked_inverse([[dot(a, datum.coroot[b]) for b in simple] for a in simple])
    assert 0 in sizes
    rows = list(datum.simple_roots) + [(1,) * datum.rank] * (datum.lattice == "gl")
    checked_inverse(rows)
    for u in datum.weyl_elements:
        assert checked_inverse(u)[0] == 1


@pytest.mark.parametrize("seed", range(4))
def test_integer_inverse_of_random_matrices(seed):
    # sparse entries with a common factor, so that the elimination swaps
    # rows and the gcd of det(u) and the adjugate is often above 1
    rng = random.Random(seed)
    inverted = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        k = rng.choice((1, 1, 2, 3))
        u = [[k * rng.choice((0, rng.randint(-4, 4))) for _ in range(n)] for _ in range(n)]
        try:
            oracle_rational_inverse(u)
        except StopIteration:  # singular
            with pytest.raises(LogicError, match="singular"):
                integer_inverse(u)
            continue
        checked_inverse(u)
        inverted += 1
    assert inverted > 40


def test_a_singular_matrix_is_a_logic_error():
    with pytest.raises(LogicError, match="singular"):
        integer_inverse(((1, 2), (2, 4)))
    # not interned, so weyl_inverse eliminates rather than looks it up
    with pytest.raises(LogicError, match="singular"):
        weyl_inverse(((0, 0, 1), (1, 0, 0), (2, 0, 2)))
