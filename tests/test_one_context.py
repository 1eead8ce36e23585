"""One Iwahori-Weyl context serves the ambient group and every Levi.

The ball walker (`AffineWeylGroup.ball`) is a breadth-first walk that
never consults the length function; the length-filtered walk that the
ambient and the Levi groups each ran before is kept here as its oracle,
and the walker in turn is the oracle of the ball counts that
`wa_ball_count` reads off Bott's formula.
The Levi of v = 0 must be the ambient group itself, which is the
contract that lets both share every method, and every memo of those
methods is declared on every context: only the ambient group's memo of
its Levis is its own, and only a Levi's box memo is the Levi's.  That
memo of Levis holds one context per Levi, whatever direction names it.
"""

import pytest

from newton_cocenter import AffineWeylGroup, build_root_datum, coweight
from newton_cocenter.affine_weyl import multiply
from newton_cocenter.levi_alcove import levi_weyl_group, parabolic_faces
from newton_cocenter.reduction import canonical_class_rep, wa_ball_count
from newton_cocenter.root_datum import dot
from newton_cocenter.verify import _affine_word, _levi_faces
from conftest import ALL_DATA, kappa_labels, oracle_sort_key, oracle_word

GROUPS = [("A1", "sc"), ("A2", "sc"), ("B2", "sc"), ("C2", "sc"), ("G2", "sc"),
          ("C2", "ad"), ("GL3", "gl"), ("GL4", "gl")]


def fresh_group(label, lattice):
    return AffineWeylGroup(build_root_datum(label, lattice))


def filtered_ball(ctx, max_length, labels):
    """{w: length} by the length-filtered breadth-first walk: a new
    element at depth d is kept only when its length is d."""
    out = {}
    for label in labels:
        start = ctx.omega_rep(label)
        seen, frontier = {start}, [start]
        out[start] = 0
        for depth in range(1, max_length + 1):
            new = []
            for w in frontier:
                for _, s in ctx.simple_items():
                    sw = multiply(s, w)
                    if sw not in seen and ctx.length(sw) == depth:
                        seen.add(sw)
                        new.append(sw)
            out.update(dict.fromkeys(new, depth))
            frontier = new
    return out


def contexts(g):
    yield g, g.datum.omega_labels() or [(0,) * g.datum.rank]
    for v in _levi_faces(g):
        m = levi_weyl_group(g, v)
        yield m, kappa_labels(m)


@pytest.mark.parametrize("label,lattice", GROUPS)
def test_walker_equals_length_filtered_walk(label, lattice):
    g = fresh_group(label, lattice)
    for ctx, labels in contexts(g):
        for label_ in labels:
            assert ctx.ball(3, label_) == filtered_ball(ctx, 3, [label_]), (ctx, label_)
        oracle = filtered_ball(ctx, 3, labels)
        assert ctx.enumerate_ball(3, labels) == \
            sorted(oracle, key=lambda w: oracle_sort_key(ctx, w))
        for radius in range(4):
            zero = [(0,) * g.datum.rank]
            assert wa_ball_count(ctx, radius) == len(filtered_ball(ctx, radius, zero))


@pytest.mark.parametrize("label,lattice", GROUPS)
def test_levi_of_zero_is_the_ambient_group(label, lattice):
    g = fresh_group(label, lattice)
    m = levi_weyl_group(g, coweight((0,) * g.datum.rank))
    assert m.simple_items() == g.simple_items()
    assert [lab for lab, _ in m.simple_items()] == list(range(len(g.datum.simple_roots) + 1))
    radius = 3 if g.datum.rank > 3 else 4
    ball = g.enumerate_ball(radius)
    assert m.enumerate_ball(radius) == ball
    for w in ball:
        assert m.length(w) == g.length(w)
        assert m.kappa(w) == g.kappa(w)
        assert _affine_word(m, w) == _affine_word(g, w)
        assert _affine_word(m, w) == oracle_word(m, w)
        assert canonical_class_rep(m, w) == canonical_class_rep(g, w)


@pytest.mark.parametrize("label,lattice", GROUPS)
def test_levis_declare_every_memo_but_the_levi_memo(label, lattice):
    # a Levi holds the ambient's attributes but its memo of Levis, and
    # its box memo; no direction v, nor the roots positive on it
    g = fresh_group(label, lattice)
    for v in _levi_faces(g):
        m = levi_weyl_group(g, v)
        assert set(vars(m)) == set(vars(g)) - {"levi_groups"} | {"boxes"}, m
        assert not hasattr(m, "v") and not hasattr(m, "phi_plus"), m


# (faces, Levis) of `parabolic_faces`, by datum
FACES_AND_LEVIS = {"A1": (3, 2), "A2": (13, 5), "B2": (17, 6), "C2": (17, 6),
                   "G2": (25, 8), "GL1": (1, 1), "GL2": (3, 2), "GL3": (13, 5),
                   "GL4": (75, 15), "GL5": (541, 52)}


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_one_context_per_levi(label, lattice):
    # every face of one Levi, the roots vanishing on it, gets the same
    # context, and the ambient group holds those contexts and no other
    g = fresh_group(label, lattice)
    faces = parabolic_faces(g)
    by_roots = {}
    for v in faces:
        m = levi_weyl_group(g, v)
        assert by_roots.setdefault(frozenset(a for a in g.datum.roots
                                             if dot(a, v.x) == 0), m) is m, v
    assert len({id(m) for m in by_roots.values()}) == len(by_roots)
    assert (len(faces), len(by_roots)) == FACES_AND_LEVIS[label]
    assert len(g.levi_groups) == len(by_roots)
    assert all(frozenset(m.phi_m) == roots for roots, m in by_roots.items())


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_ball_count_by_bott_formula_equals_the_walk(label, lattice):
    # the count of W_a(M) up to length L, read off the exponents of W_M,
    # against the walk it replaced, on the ambient group and every Levi
    g = fresh_group(label, lattice)
    top = 5 if label == "GL5" else 6
    for ctx in [g] + [levi_weyl_group(g, v) for v in _levi_faces(g)]:
        for radius in range(top + 1):
            walk = ctx.ball(radius, ctx.kappa(ctx.identity))
            assert wa_ball_count(ctx, radius) == len(walk), (ctx, radius)
