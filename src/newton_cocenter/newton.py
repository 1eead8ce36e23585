"""Newton points, dominant representatives and stratification.

For w = t^lam u with n the order of u, the Newton point is the averaged
translation nu_w = (1/n) sum_i u^i(lam); it satisfies w^n = t^{n nu_w}
and does not depend on which valid exponent is used.  The Newton index
pairs the coroot-lattice coset kappa(w) with the dominant Weyl orbit
representative of nu_w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .affine_weyl import AffineWeylElement, AffineWeylGroup, multiply
from .root_datum import Coweight, IntVector, dot, frac_str, mat_act


@dataclass(frozen=True)
class NewtonIndex:
    """A coroot-lattice coset label plus a dominant rational coweight."""

    omega: IntVector
    nu_bar: Coweight

    def sort_key(self):
        return (self.nu_bar, self.omega)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.omega) + ";" + \
            ",".join(frac_str(c) for c in self.nu_bar) + ")"


def newton_point(group: AffineWeylGroup, w: AffineWeylElement) -> Coweight:
    """The averaged translation part of w."""
    u = w.finite
    order = group.datum.element_order(u)
    total = list(w.translation)
    cur = w.translation
    for _ in range(order - 1):
        cur = mat_act(u, cur)
        total = [a + b for a, b in zip(total, cur)]
    return tuple(Fraction(x, order) for x in total)


def newton_index(group: AffineWeylGroup, w: AffineWeylElement) -> NewtonIndex:
    nu = newton_point(group, w)
    nu_bar, _ = group.datum.dominant_rep(nu)
    return NewtonIndex(group.kappa(w), nu_bar)


def is_straight(group: AffineWeylGroup, w: AffineWeylElement) -> bool:
    """Straightness via the pairing criterion length(w) = <nu_bar, 2 rho>.

    The defining power condition is `is_straight_by_powers`; the two are
    asserted to agree on every test ball.
    """
    nu_bar = newton_index(group, w).nu_bar
    return group.length(w) == dot(group.datum.two_rho, nu_bar)


def is_straight_by_powers(group: AffineWeylGroup, w: AffineWeylElement) -> bool:
    """The defining condition length(w^n) = n length(w), checked up to
    the order of the finite part times the denominator of nu_w (powers
    beyond that are controlled by the translation w^{order} already)."""
    nu = newton_point(group, w)
    denom = lcm(*(c.denominator for c in nu))
    bound = group.datum.element_order(w.finite) * denom
    target = group.length(w)
    power = w
    for n in range(2, bound + 1):
        power = multiply(power, w)
        if group.length(power) != n * target:
            return False
    return True


def strata(group: AffineWeylGroup, max_length: int, omega_labels=None,
           cap: int | None = None) -> dict[NewtonIndex, list[AffineWeylElement]]:
    """Partition of the length ball by Newton index, canonically ordered."""
    ball = group.enumerate_ball(max_length, omega_labels, cap=cap)
    fibers: dict[NewtonIndex, list[AffineWeylElement]] = {}
    for w in ball:
        fibers.setdefault(newton_index(group, w), []).append(w)
    return {nu: fibers[nu] for nu in sorted(fibers, key=NewtonIndex.sort_key)}
