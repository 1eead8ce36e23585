"""Class keys and cocenter normal forms on every Levi context.

`class_minimal_set` lists the minimal elements of a full conjugacy class
of X_* ⋊ W_M from its translation cosets, over W_M, the M-simple roots
and 2 rho_M.  Its oracle here is an M-ball cut into classes by pairwise
`is_conjugate`: every minimal element of a class has the class's least
length, so when that length is within the radius, the ball holds all of
them.  The normal forms of the cocenter of M must then kill every
commutator and specialise at q = 1 to the class of the element.
"""

import pytest

from newton_cocenter import AffineWeylGroup, build_root_datum
from newton_cocenter.hecke_cocenter import HeckeElement, cocenter_reduce, hecke_mul
from newton_cocenter.levi_alcove import levi_weyl_group
from newton_cocenter.reduction import (
    canonical_class_rep, class_minimal_set, is_conjugate, is_min_in_class,
)
from newton_cocenter.verify import _levi_faces
from conftest import kappa_labels

GROUPS = [(label, lattice) for label in ("A1", "A2", "B2", "C2", "G2")
          for lattice in ("sc", "ad")] + [(f"GL{n}", "gl") for n in range(1, 6)]


def levis(label, lattice):
    g = AffineWeylGroup(build_root_datum(label, lattice))
    return [levi_weyl_group(g, v) for v in _levi_faces(g)]


def conjugacy_classes(m, ball):
    """The ball cut into conjugacy classes of the context by pairwise
    `is_conjugate`, each class in ball order."""
    by_kappa: dict = {}
    for w in ball:
        classes = by_kappa.setdefault(m.kappa(w), [])
        for members in classes:
            if is_conjugate(m, members[0], w):
                members.append(w)
                break
        else:
            classes.append([w])
    return [members for classes in by_kappa.values() for members in classes]


@pytest.mark.parametrize("label,lattice", GROUPS)
def test_class_keys_equal_the_ball_oracle_on_every_levi(label, lattice):
    n_classes = 0
    for m in levis(label, lattice):
        rank = m.datum.rank
        radius = 4 if rank <= 2 else 3 if rank <= 4 else 2
        ball = m.enumerate_ball(radius, kappa_labels(m))
        for members in conjugacy_classes(m, ball):
            low = min(m.length(w) for w in members)
            minimal = tuple(w for w in members if m.length(w) == low)
            assert class_minimal_set(m, minimal[0]) == minimal, (m, minimal[0])
            for w in members:
                assert is_min_in_class(m, w) == (m.length(w) == low), (m, w)
                assert canonical_class_rep(m, w) == minimal[0], (m, w)
            n_classes += 1
    assert n_classes > 0


@pytest.mark.parametrize("label,lattice", [
    ("A2", "sc"), ("B2", "sc"), ("C2", "ad"), ("G2", "sc"), ("GL3", "gl")])
def test_levi_cocenter_kills_commutators_and_specialises_to_classes(label, lattice):
    radius = 3
    for m in levis(label, lattice):
        ball = m.enumerate_ball(radius, kappa_labels(m))
        for w in ball:
            nf = cocenter_reduce(m, HeckeElement.basis(w))
            assert nf.evaluate_q(1) == {canonical_class_rep(m, w): 1}, (m, w)
        for i, x in enumerate(ball):
            tx = HeckeElement.basis(x)
            for y in ball[i + 1:]:
                if m.length(x) + m.length(y) > radius:
                    continue
                ty = HeckeElement.basis(y)
                commutator = hecke_mul(m, tx, ty) - hecke_mul(m, ty, tx)
                assert not cocenter_reduce(m, commutator), (m, x, y)
