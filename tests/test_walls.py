"""The walls of every context against the level scan they replaced.

`AffineWeylGroup` builds the walls of the base M-alcove from the root
data: the M-simple roots at level 0 and the highest root of each
M-component at level 1.  Before, a Levi found its walls by reflecting
every positive M-root at levels -2..2 and keeping those of M-length
one, and the Coxeter diagram was found by testing which walls commute.
Both searches are kept here as oracles, on the ambient group and every
Levi of `_levi_faces` for each supported group.  The scan labels a
Levi's walls by the word-based ambient `oracle_sort_key` of conftest,
the oracle of the ambient `canonical_order` by which the Levi labels
them.
"""

import pytest

from newton_cocenter import AffineRoot, AffineWeylGroup, build_root_datum
from newton_cocenter.affine_weyl import multiply
from newton_cocenter.levi_alcove import levi_weyl_group
from newton_cocenter.root_datum import dot
from newton_cocenter.verify import _levi_faces
from conftest import ALL_DATA, oracle_sort_key


def contexts(g):
    """(context, its roots Phi_M) for the ambient group and its Levis."""
    yield g, g.datum.roots
    for v in _levi_faces(g):
        m = levi_weyl_group(g, v)
        yield m, m.phi_m


def dynkin_components(datum, simple_roots):
    comps = []
    seen = set()
    for a in simple_roots:
        if a in seen:
            continue
        comp, frontier = {a}, [a]
        while frontier:
            b = frontier.pop()
            for c in simple_roots:
                if c not in comp and dot(b, datum.coroot[c]) != 0:
                    comp.add(c)
                    frontier.append(c)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def level_scan(g, ctx, phi_m):
    """Reflections of length one over the positive roots of phi_m at
    levels -2..2, labelled 0, 1, ... in the ambient canonical order, and
    counted against rank plus components."""
    found = []
    for a in phi_m:
        if not g.datum.is_positive_root(a):
            continue
        for k in range(-2, 3):
            s = ctx.reflection(AffineRoot(a, k))
            if ctx.length(s) == 1 and s not in found:
                found.append(s)
    found.sort(key=lambda s: oracle_sort_key(g, s))
    expected = len(ctx.m_simple_roots) + len(dynkin_components(g.datum, ctx.m_simple_roots))
    assert len(found) == expected, (ctx, found)
    return tuple(enumerate(found))


def commutation_components(ctx):
    """Connected components of the diagram on the walls, with an edge
    between each pair that does not commute."""
    elem = dict(ctx.simple_items())
    labels = list(elem)
    seen, comps = set(), []
    for lab in labels:
        if lab in seen:
            continue
        comp, frontier = {lab}, [lab]
        while frontier:
            a = frontier.pop()
            for b in labels:
                if b not in comp and multiply(elem[a], elem[b]) != multiply(elem[b], elem[a]):
                    comp.add(b)
                    frontier.append(b)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_walls_equal_level_scan(label, lattice):
    g = AffineWeylGroup(build_root_datum(label, lattice))
    for ctx, phi_m in contexts(g):
        assert ctx.simple_items() == level_scan(g, ctx, phi_m), ctx


def test_coxeter_diagram_equals_commutation_search():
    for label, lattice in ALL_DATA:
        g = AffineWeylGroup(build_root_datum(label, lattice))
        for ctx, _ in contexts(g):
            assert ctx.coxeter_diagram == commutation_components(ctx), (label, ctx)
