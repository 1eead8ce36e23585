"""Levi sub-Iwahori-Weyl groups, alcove tests and positivity exponents.

A rational coweight v cuts the roots into the vanishing part (the Levi
M) and the strictly positive part `phi_plus(group, v)` (the unipotent
direction).  The group X_* ⋊ W_M sits inside the ambient extended
affine Weyl group but carries its own length function, computed by
counting inversions over the Levi roots only; it genuinely differs from
the restriction of the ambient length.  `LeviWeylGroup` is an
`AffineWeylGroup` over the Levi roots `phi_m`, with W_M its
`finite_elements()`: it adds only membership and the memo of the boxes
that the verify suites sample.  `levi_weyl_group` keys it by Phi_M, so
each Levi has one context whatever v names it, and what depends on v is
computed from the v at hand.  Its walls, those of the M-alcove
containing the ambient base alcove, are built as the ambient group
builds its own, labelled in the ambient canonical order, which the Levi
is given at construction; it holds no reference to the ambient group.
An M-Newton index is carried to the ambient group, or to a conjugate
Levi, by that group's `index_of`.  `parabolic_faces` reads every
direction v that gives a parabolic, y(v_J) for y in W0, off the root
datum alone.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .affine_weyl import AffineWeylElement, AffineWeylGroup, multiply
from .errors import InputError, LogicError
from .newton import NewtonIndex, newton_point
from .reduction import max_finite_parabolic_order, wa_ball_count
from .root_datum import Coweight, Matrix, dot, hnf_columns, integer_inverse, mat_act


class LeviWeylGroup(AffineWeylGroup):
    """The Iwahori-Weyl group of the Levi M with roots phi_m.

    Every method of the ambient group applies with Phi_M, W_M and the
    M-walls, so the reduction machinery runs verbatim with the M-length.
    """

    def __init__(self, parent: AffineWeylGroup, phi_m: tuple):
        """W_M, the fixer of any v with Phi_M the roots vanishing on v,
        is generated by the s_alpha over Phi_M (Steinberg), so by those
        of the simple roots of Phi_M ∩ Phi+, the indecomposable ones.
        Their coroots span the coroot lattice of M, as they are the simple
        roots of the dual root system Phi_M^vee."""
        datum = parent.datum
        pos = {a for a in phi_m if datum.is_positive_root(a)}
        simple = tuple(a for a in phi_m if a in pos and not any(
            tuple([p - q for p, q in zip(a, b)]) in pos for b in pos))
        self._context(datum, phi_m, simple,
                      hnf_columns([datum.coroot[a] for a in simple]),
                      parent.newton_points, parent.levels, wall_order=parent.canonical_order)
        # the Levi boxes of the verify suites (`verify._levi_box`)
        self.boxes: dict[int, list[AffineWeylElement]] = {}

    def is_member(self, w: AffineWeylElement) -> bool:
        return self._w_m is None or w.finite in self._w_m

    def __repr__(self):
        return f"LeviWeylGroup(phi_m={list(map(list, self.phi_m))})"


def levi_weyl_group(group: AffineWeylGroup, v: Coweight) -> LeviWeylGroup:
    """The one context of the Levi of v, whose roots Phi_M vanish on v,
    cut from the ambient group, which holds the memo of its Levis."""
    if isinstance(group, LeviWeylGroup):
        raise InputError("Levis are cut from the ambient group only, not from a Levi")
    phi_m = tuple(a for a in group.datum.roots if dot(a, v.x) == 0)
    m = group.levi_groups.get(phi_m)
    if m is None:
        m = group.levi_groups[phi_m] = LeviWeylGroup(group, phi_m)
    return m


def phi_plus(group: AffineWeylGroup, v: Coweight) -> tuple:
    """The roots strictly positive on v."""
    return tuple(a for a in group.datum.roots if dot(a, v.x) > 0)


def parabolic_faces(group: AffineWeylGroup) -> list[Coweight]:
    """Every y(v_J), y in W0 and J a set of simple roots: the P-alcove
    directions of Görtz-He-Nie.  <alpha_i, v_J> is 0 for alpha_i in J
    and 1 for the others, and for GL the coordinates of v_J sum to 0.
    Listed by those pairings as a 0/1 vector, lexicographic, and then
    by y in `weyl_elements` order, repeats dropped."""
    datum = group.datum
    rows = list(datum.simple_roots)
    if datum.lattice == "gl":
        rows.append((1,) * datum.rank)
    d, inverse = integer_inverse(rows)
    # zip stops at the simple roots: the row (1, ..., 1) pairs to 0
    standard = [Coweight(d, [sum(c for c, b in zip(row, ones) if b) for row in inverse])
                for ones in product((0, 1), repeat=len(datum.simple_roots))]
    return list(dict.fromkeys(Coweight(v.d, mat_act(u, v.x))
                              for v in standard for u in datum.weyl_elements))


def conjugate_levi(group: AffineWeylGroup, u0: Matrix, v: Coweight):
    """The Levi of u0(v) together with the induced index bijection,
    which reads the u0-image of an index of the Levi of v in that Levi."""
    m_new = levi_weyl_group(group, Coweight(v.d, mat_act(u0, v.x)))

    def index_map(nu_m: NewtonIndex) -> NewtonIndex:
        d, x = nu_m.nu_bar
        return m_new.index_of(mat_act(u0, nu_m.omega), Coweight(d, mat_act(u0, x)))

    return m_new, index_map


def is_v_alcove(group: AffineWeylGroup, w: AffineWeylElement, v: Coweight) -> bool:
    """The alcove condition for the direction v.

    Requires the finite part to fix v, and that w never pulls a positive
    affine root with vector part strictly positive on v from a negative
    one: for every such b, w^{-1}(b) positive implies b positive.  For
    w = t^lam u, w^{-1}(beta, k) = (u^{-1} beta, k - <beta, lam>), so
    with tau(a) = 1 for a positive and 0 otherwise this is one
    comparison per v-positive root beta = u(alpha):
    tau(alpha) + <beta, lam> >= tau(beta).
    """
    x = v.x
    lam, u = w
    if mat_act(u, x) != x:
        return False
    datum = group.datum
    roots = datum.roots
    for alpha, j in zip(roots, datum.root_permutation(u)):
        beta = roots[j]
        if dot(beta, x) > 0 and datum.is_positive_root(alpha) + dot(beta, lam) \
                < datum.is_positive_root(beta):
            return False
    return True


def newton_v_positive(group: AffineWeylGroup, plus: tuple, w: AffineWeylElement) -> bool:
    """Whether nu_w is strictly positive on the roots plus, those
    positive on v (`phi_plus(group, v)`)."""
    nu = newton_point(group, w).x
    return all(dot(beta, nu) > 0 for beta in plus)


# Witness that a power of w shifts every v-positive level up.  exponent
# is the least i such that w^i raises the level of every affine root
# with vector part strictly positive on v by at least 1 (equivalently
# lowers the strictly negative ones); bound is the a-priori value
# (2 N0 + N1 + 1) * i0 where N0 counts the M-ball of radius
# length_M(w), N1 is the largest finite parabolic of W(M) and i0 clears
# the denominator of v.
PositivityCertificate = namedtuple("PositivityCertificate", [
    "w", "v", "exponent", "bound", "n0", "n1", "denominator_scale",
    "min_shift_at_exponent"])


def positivity_exponent(group: AffineWeylGroup, w: AffineWeylElement,
                        v: Coweight) -> PositivityCertificate:
    """Search the minimal power making w strictly v-positive.

    Precondition: the finite part of w lies in the Levi of v.  When the
    Newton point of w is strictly positive on the v-positive roots the
    search must succeed within the bound; running past it then raises
    LogicError.  Otherwise no power is strictly v-positive, and the
    input is refused before the search.
    """
    m = levi_weyl_group(group, v)
    if not m.is_member(w):
        raise InputError("positivity_exponent requires w in the Levi of v")
    plus = phi_plus(group, v)
    # If w^i = t^mu u is strictly v-positive, then summing the
    # translations of its powers up to the order n of u gives
    # <beta, n i nu> >= n for every v-positive beta, since u in W_M
    # permutes those roots; so a Newton point not strictly positive on
    # them admits no such power, and is refused before any search.
    if not newton_v_positive(group, plus, w):
        raise InputError(
            "no positive power of w is strictly v-positive: its Newton point "
            "is not strictly positive on the v-positive roots")
    return _power_search(group, m, plus, w, v)


def _power_search(group, m, plus, w, v):
    """The search of `positivity_exponent` for w in the Levi m of v
    with nu_w strictly positive on plus, the v-positive roots."""
    n0 = wa_ball_count(m, m.length(w))
    n1 = max_finite_parabolic_order(m)
    bound = (2 * n0 + n1 + 1) * v.d
    power = group.identity
    for i in range(1, bound + 1):
        power = multiply(power, w)
        shifts = [dot(beta, power.translation) for beta in plus]
        if not plus or min(shifts) >= 1:
            return PositivityCertificate(
                w, v, i, bound, n0, n1, v.d,
                min(shifts) if shifts else 0)
    raise LogicError(
        "quasi-positivity must hold within the bound for strictly "
        "v-positive Newton points")
