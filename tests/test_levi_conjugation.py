"""Levi conjugation: the sweep `conjugation-compatible-strata` replaced,
and the two facts that make its smaller form enough.

The `levi` suite checks, per (Levi M, simple reflection s), that s
carries the coroot lattice and the Weyl group of M onto those of
M' = s M s, and the index map on six short elements.  Here the sweep it
replaced stays as a differential oracle: 60 short elements of each
Levi box, conjugated by all of W0 when |W0| <= 16 and by the simple
reflections otherwise.  And the two facts are checked for every face
Levi and every u0 in W0, not only for the simple reflections, by plain
matrix products: that is the composition the suite relies on.
"""

import pytest

from newton_cocenter.affine_weyl import conjugate
from newton_cocenter.levi_alcove import conjugate_levi, levi_weyl_group
from newton_cocenter.root_datum import coset_reduce, mat_act, mat_mul
from newton_cocenter.verify import _levi_boxes, _levi_faces
from conftest import ALL_DATA, group, oracle_rational_inverse

# the sweep's size at its last release, where the property reported it
SWEEP_SIZES = {"GL3": 1494, "GL4": 2700, "GL5": 12480}


def sweep_cases(g):
    """(v, u0, w, ok) of the sweep that `conjugation-compatible-strata`
    ran before it was cut to one check per (M, s)."""
    conjugators = g.datum.weyl_elements if g.datum.w0_order <= 16 \
        else g.datum.simple_reflections
    for v, m, box in _levi_boxes(g, 4):
        small = [w for w in box if m.length(w) <= 3
                 and all(abs(x) <= 1 for x in w.translation)][:60]
        for u0 in conjugators:
            m2, index_map = conjugate_levi(g, u0, v)
            x0 = g.finite_element(u0)
            for w in small:
                yield v, u0, w, \
                    m2.newton_index(conjugate(x0, w)) == index_map(m.newton_index(w))


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_old_sweep_holds(label, lattice):
    cases = list(sweep_cases(group(label, lattice)))
    assert [c for c in cases if not c[3]] == []
    assert len(cases) == SWEEP_SIZES.get(label, len(cases))
    assert cases or label == "GL1"


def in_lattice(x, hnf):
    return not any(coset_reduce(x, hnf))


def plain(u):
    return tuple(map(tuple, u))


@pytest.mark.parametrize("label,lattice", [d for d in ALL_DATA if d != ("GL5", "gl")])
def test_every_conjugator_carries_lattice_and_weyl_group(label, lattice):
    """For every face Levi M and u0 in W0, with M' the Levi of u0(v):
    u0 maps the coroot lattice of M onto that of M', and
    u0 W_M u0^-1 = W_M' as sets of matrices."""
    g = group(label, lattice)
    datum = g.datum
    assert datum.w0_order <= 24
    for v in _levi_faces(g):
        m = levi_weyl_group(g, v)
        w_m = [plain(u) for u in m.finite_elements()]
        for u0 in datum.weyl_elements:
            m2 = conjugate_levi(g, u0, v)[0]
            u0_inv = oracle_rational_inverse(u0)
            assert all(in_lattice(mat_act(u0, datum.coroot[a]), m2.coroot_hnf) for a in m.phi_m)
            assert all(in_lattice(mat_act(u0_inv, datum.coroot[a]), m.coroot_hnf)
                       for a in m2.phi_m)
            assert {plain(mat_mul(mat_mul(u0, u), u0_inv)) for u in w_m} \
                == {plain(u) for u in m2.finite_elements()}
