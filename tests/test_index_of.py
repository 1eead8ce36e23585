"""`AffineWeylGroup.index_of`, the one construction of a Newton index,
against test-local copies of the three constructions it replaced: the
Newton index of an element, the induction map of M-Newton indices into
the ambient group, and the index bijection of a conjugated Levi; and
`newton.orbit_sum` against a loop over the powers of the finite part."""

import pytest

from newton_cocenter import NewtonIndex, newton_point
from newton_cocenter.levi_alcove import conjugate_levi, levi_weyl_group
from newton_cocenter.newton import orbit_sum
from newton_cocenter.root_datum import Coweight, coset_reduce, mat_act
from newton_cocenter.verify import _levi_box, _levi_faces
from conftest import ALL_DATA, group


def old_newton_index(ctx, w):
    nu_bar, _ = ctx.dominant_rep(newton_point(ctx, w))
    return NewtonIndex(ctx.kappa(w), nu_bar)


def old_newton_index_map(g, m, nu_m):
    label = coset_reduce(tuple(nu_m.omega), g.coroot_hnf)
    nu_bar, _ = g.dominant_rep(nu_m.nu_bar)
    return NewtonIndex(label, nu_bar)


def old_conjugate_levi(g, u0, v):
    m_new = levi_weyl_group(g, Coweight(v.d, mat_act(u0, v.x)))

    def index_map(nu_m):
        label = coset_reduce(mat_act(u0, nu_m.omega), m_new.coroot_hnf)
        d, x = nu_m.nu_bar
        nu_bar, _ = m_new.dominant_rep(Coweight(d, mat_act(u0, x)))
        return NewtonIndex(label, nu_bar)

    return m_new, index_map


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_index_of_equals_the_replaced_index_maps(label, lattice):
    # every Levi of the verify grid, every element of its box, and u0
    # the identity or a simple reflection
    g = group(label, lattice)
    conjugators = [g.datum.weyl_identity, *g.datum.simple_reflections]
    moved = 0
    for v in _levi_faces(g):
        m = levi_weyl_group(g, v)
        maps = [(conjugate_levi(g, u0, v), old_conjugate_levi(g, u0, v)) for u0 in conjugators]
        for w in _levi_box(g, m, 4):
            nu_m = m.newton_index(w)
            assert nu_m == old_newton_index(m, w)
            image = g.index_of(nu_m.omega, nu_m.nu_bar)
            assert image == old_newton_index_map(g, m, nu_m) == g.newton_index(w)
            moved += image.omega != nu_m.omega
            for (m_new, index_map), (old_m_new, old_map) in maps:
                assert m_new is old_m_new
                assert index_map(nu_m) == old_map(nu_m)
    # some label is reduced in the ambient coroot lattice, which is zero
    # only for a torus
    assert moved or not g.datum.roots


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_orbit_sum_equals_the_orbit_loop(label, lattice):
    g = group(label, lattice)
    for w in g.enumerate_ball(4):
        order = g.datum.element_order(w.finite)
        for n in (order, 2 * order):
            total, cur = [0] * g.datum.rank, w.translation
            for _ in range(n):
                total = [a + b for a, b in zip(total, cur)]
                cur = mat_act(w.finite, cur)
            assert orbit_sum(w, n) == tuple(total)
        assert newton_point(g, w) == Coweight(order, orbit_sum(w, order))
