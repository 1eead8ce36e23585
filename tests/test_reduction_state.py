"""The per-context state of the reduction module against brute force.

The finite parabolic subsets and the largest finite parabolic order are
read off the Coxeter diagram that each context stores with its walls
(itself checked in test_walls.py); here they are checked on
every context of `_levi_faces` for every supported group by closing each
label subset under multiplication.  A finite subgroup of X_* ⋊ W_M maps
injectively to W_M, so a closure that outgrows |W_M| is infinite.  The
move-orbit memo must give the same answers whatever it already holds.
"""

from itertools import combinations

import pytest

from newton_cocenter import (
    AffineWeylGroup, LogicError, build_root_datum, canonical_min_rep, coweight,
    is_min_in_class, minimal_class,
)
from newton_cocenter.affine_weyl import multiply
from newton_cocenter.levi_alcove import levi_weyl_group
from newton_cocenter.reduction import (
    finite_parabolics, max_finite_parabolic_order, parabolic_elements,
)
from newton_cocenter.verify import _levi_faces

GROUPS = [(label, lattice) for label in ("A1", "A2", "B2", "C2", "G2")
          for lattice in ("sc", "ad")] + [(f"GL{n}", "gl") for n in range(1, 6)]


def closure_order(ctx, labels):
    """The order of the subgroup generated by the reflections of labels,
    or None once the closure outgrows W_M."""
    elem = dict(ctx.simple_items())
    bound = len(ctx.finite_elements())
    seen, frontier = {ctx.identity}, [ctx.identity]
    while frontier:
        frontier = [v for v in {multiply(u, elem[lab]) for u in frontier
                                for lab in labels} if v not in seen]
        seen.update(frontier)
        if len(seen) > bound:
            return None
    return len(seen)


def contexts(g):
    yield g
    for v in _levi_faces(g):
        yield levi_weyl_group(g, v)


@pytest.mark.parametrize("label,lattice", GROUPS)
def test_finite_parabolics_equal_brute_force(label, lattice):
    g = AffineWeylGroup(build_root_datum(label, lattice))
    for ctx in contexts(g):
        labels = [lab for lab, _ in ctx.simple_items()]
        orders = {sub: closure_order(ctx, sub)
                  for size in range(len(labels) + 1)
                  for sub in combinations(labels, size)}
        finite = tuple(sub for sub, order in orders.items() if order is not None)
        assert finite_parabolics(ctx) == finite, (label, ctx)
        assert max_finite_parabolic_order(ctx) == max(
            orders[sub] for sub in finite), (label, ctx)


def test_infinite_parabolic_raises_on_every_call():
    g = AffineWeylGroup(build_root_datum("A1"))
    for _ in range(2):
        with pytest.raises(LogicError, match="exceeded cap"):
            parabolic_elements(g, (0, 1))


def move_orbit_answers(make_ctx, w):
    """(is minimal, move orbit or None, canonical rep), each asked of a
    context of its own that has answered nothing before."""
    minimal = is_min_in_class(make_ctx(), w)
    orbit = minimal_class(make_ctx(), w) if minimal else None
    return minimal, orbit, canonical_min_rep(make_ctx(), w)


@pytest.mark.parametrize("label,radius,v", [
    ("A2", 5, None), ("C2", 5, None), ("G2", 4, None), ("GL3", 4, None),
    ("C2", 5, (1, 0)), ("GL3", 4, (1, 1, 0)),
])
def test_move_orbit_memo_warm_equals_cold(label, radius, v):
    datum = build_root_datum(label)
    def make_ctx():
        g = AffineWeylGroup(datum)
        return g if v is None else levi_weyl_group(g, coweight(v))

    warm = make_ctx()
    ball = warm.enumerate_ball(radius)
    # the warm context answers canonical_min_rep first, in reverse ball
    # order, so its memo is filled from reduction paths
    reps = {w: canonical_min_rep(warm, w) for w in reversed(ball)}
    for w in ball:
        minimal = is_min_in_class(warm, w)
        orbit = minimal_class(warm, w) if minimal else None
        assert (minimal, orbit, reps[w]) == move_orbit_answers(make_ctx, w), w

