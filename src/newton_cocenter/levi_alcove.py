"""Levi sub-Iwahori-Weyl groups, alcove tests and positivity exponents.

A rational coweight v cuts the roots into the vanishing part (the Levi
M) and the strictly positive part (the unipotent direction).  The group
X_* ⋊ W_M sits inside the ambient extended affine Weyl group but
carries its own length function, computed by counting inversions over
the Levi roots only; it genuinely differs from the restriction of the
ambient length.  `LeviWeylGroup` is an `AffineWeylGroup` over the Levi
roots: it adds only what the ambient group lacks, namely v, its root
data, membership and boxes.  Its walls, those of the M-alcove containing
the ambient base alcove, are built as the ambient group builds its own,
from the M-simple roots and the highest root of each M-component, and
are labelled in the ambient canonical order, which the Levi is given at
construction; it holds no reference to the ambient group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .affine_weyl import AffineWeylElement, AffineWeylGroup, multiply
from .errors import InputError, LogicError
from .newton import NewtonIndex, newton_point
from .reduction import max_finite_parabolic_order, wa_ball_count
from .root_datum import (
    Coweight, Matrix, coweight, coset_reduce, dot, hnf_columns, levi_datum,
    mat_act, scaled,
)


class LeviWeylGroup(AffineWeylGroup):
    """The Iwahori-Weyl group of the Levi attached to a rational coweight.

    Every method of the ambient group applies with Phi_M, W_M and the
    M-walls, so the reduction machinery runs verbatim with the M-length.
    """

    def __init__(self, parent: AffineWeylGroup, v):
        datum = parent.datum
        self.levi = levi_datum(datum, v)
        self.v = self.levi.v
        phi_m = self.levi.phi_zero
        self._context(datum, parent.ball_cap, phi_m, self.levi.simple_roots,
                      hnf_columns([datum.coroot[a] for a in phi_m]),
                      *parent.newton_memos(),
                      wall_order=parent.sort_key)
        self._boxes: dict[tuple, list[AffineWeylElement]] = {}

    def is_member(self, w: AffineWeylElement) -> bool:
        return self._w_m is None or w.finite in self._w_m

    def box(self, max_m_length: int, box: int,
            cap: int | None) -> list[AffineWeylElement]:
        """All t^lam u with u in W_M and sup-norm of lam at most `box`,
        filtered to M-length <= max_m_length, in M-sort order and cut to
        the first `cap` (memoised).

        The candidates are grouped by (M-length, kappa_M), the prefix of
        the M-sort key, and only the tiers that reach the first `cap`
        places are sorted, so no M-word is built for the rest.
        """
        key = (max_m_length, box, cap)
        out = self._boxes.get(key)
        if out is None:
            tiers = {}
            for lam in product(range(-box, box + 1), repeat=self.datum.rank):
                label = None
                for u in self.levi.w_m:
                    w = AffineWeylElement(lam, u)
                    length = self.length(w)
                    if length <= max_m_length:
                        if label is None:
                            label = self.kappa(w)
                        tiers.setdefault((length, label), []).append(w)
            out = []
            for tier in sorted(tiers):
                if cap is not None and len(out) >= cap:
                    break
                out.extend(sorted(tiers[tier], key=self.sort_key))
            out = self._boxes[key] = out if cap is None else out[:cap]
        return out

    def __repr__(self):
        return f"LeviWeylGroup(v={tuple(map(str, self.v))})"


def levi_weyl_group(group: AffineWeylGroup, v) -> LeviWeylGroup:
    v = coweight(v)
    cache = group.levi_groups
    if v not in cache:
        cache[v] = LeviWeylGroup(group, v)
    return cache[v]


def newton_index_map(group: AffineWeylGroup, m: LeviWeylGroup,
                     nu_m: NewtonIndex) -> NewtonIndex:
    """Push an M-Newton index to an ambient one: the coset label goes
    along the lattice inclusion, the coweight to its dominant orbit
    representative."""
    label = coset_reduce(tuple(nu_m.omega), group.coroot_hnf)
    nu_bar, _ = group.dominant_rep(nu_m.nu_bar)
    return NewtonIndex(label, nu_bar)


def conjugate_levi(group: AffineWeylGroup, u0: Matrix, m: LeviWeylGroup):
    """The Levi of u0(v) together with the induced index bijection."""
    v_new = tuple(mat_act(u0, m.v))
    m_new = levi_weyl_group(group, v_new)

    def index_map(nu_m: NewtonIndex) -> NewtonIndex:
        label = coset_reduce(tuple(mat_act(u0, nu_m.omega)), m_new.coroot_hnf)
        d, x = scaled(nu_m.nu_bar)
        nu_bar, _ = m_new.dominant_rep_scaled(d, mat_act(u0, x))
        return NewtonIndex(label, nu_bar)

    return m_new, index_map


def is_v_alcove(group: AffineWeylGroup, w: AffineWeylElement, v) -> bool:
    """The alcove condition for the direction v.

    Requires the finite part to fix v, and that w never pulls a positive
    affine root with vector part strictly positive on v from a negative
    one: for every such b, w^{-1}(b) positive implies b positive.  For
    w = t^lam u, w^{-1}(beta, k) = (u^{-1} beta, k - <beta, lam>), so
    with tau(a) = 1 for a positive and 0 otherwise this is one
    comparison per v-positive root beta = u(alpha):
    tau(alpha) + <beta, lam> >= tau(beta).
    """
    _, x = scaled(v)
    lam, u = w
    if mat_act(u, x) != tuple(x):
        return False
    datum = group.datum
    roots = datum.roots
    for alpha, j in zip(roots, datum.root_permutation(u)):
        beta = roots[j]
        if dot(beta, x) > 0 and datum.is_positive_root(alpha) + dot(beta, lam) \
                < datum.is_positive_root(beta):
            return False
    return True


@dataclass(frozen=True)
class PositivityCertificate:
    """Witness that a power of w shifts every v-positive level up.

    exponent is the least i such that w^i raises the level of every
    affine root with vector part strictly positive on v by at least 1
    (equivalently lowers the strictly negative ones); bound is the
    a-priori value (2 N0 + N1 + 1) * i0 where N0 counts the M-ball of
    radius length_M(w), N1 is the largest finite parabolic of W(M) and
    i0 clears the denominator of v.
    """

    w: AffineWeylElement
    v: Coweight
    exponent: int
    bound: int
    n0: int
    n1: int
    denominator_scale: int
    min_shift_at_exponent: int


def positivity_exponent(group: AffineWeylGroup, w: AffineWeylElement,
                        v) -> PositivityCertificate:
    """Search the minimal power making w strictly v-positive.

    Precondition: the finite part of w lies in the Levi of v.  When the
    Newton point of w is strictly positive on the v-positive roots the
    search must succeed within the bound; running past it then raises
    LogicError.  Otherwise no power is strictly v-positive, and the
    input is refused before the search.
    """
    v = coweight(v)
    m = levi_weyl_group(group, v)
    if not m.is_member(w):
        raise InputError("positivity_exponent requires w in the Levi of v")
    plus = m.levi.phi_plus
    # If w^i = t^mu u is strictly v-positive, then summing the
    # translations of its powers up to the order n of u gives
    # <beta, n i nu> >= n for every v-positive beta, since u in W_M
    # permutes those roots; so a Newton point not strictly positive on
    # them admits no such power, and is refused before any search.
    nu = newton_point(group, w)
    if not all(dot(beta, nu) > 0 for beta in plus):
        raise InputError(
            "no positive power of w is strictly v-positive: its Newton point "
            "is not strictly positive on the v-positive roots")
    denom = lcm(*(c.denominator for c in v))
    n0 = wa_ball_count(m, m.length(w))
    n1 = max_finite_parabolic_order(m)
    bound = (2 * n0 + n1 + 1) * denom
    power = group.identity
    for i in range(1, bound + 1):
        power = multiply(power, w)
        shifts = [dot(beta, power.translation) for beta in plus]
        if not plus or min(shifts) >= 1:
            return PositivityCertificate(
                w, v, i, bound, n0, n1, denom,
                min(shifts) if shifts else 0)
    raise LogicError(
        "quasi-positivity must hold within the bound for strictly "
        "v-positive Newton points")


def m_in_g_stratum_check(group: AffineWeylGroup, m: LeviWeylGroup,
                         w: AffineWeylElement, nu_m: NewtonIndex) -> bool:
    """The ambient Newton index of w must be the image of its M-index.

    This holds for every input; the operation exists to be run
    exhaustively as a stratum-compatibility check.
    """
    if m.newton_index(w) != nu_m:
        raise InputError("nu_m is not the M-Newton index of w")
    return group.newton_index(w) == newton_index_map(group, m, nu_m)
