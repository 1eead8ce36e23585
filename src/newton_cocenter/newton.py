"""Newton points, dominant representatives and stratification.

For w = t^lam u with n the order of u, the Newton point is the averaged
translation nu_w = (1/n) sum_i u^i(lam) (`orbit_sum` is the sum); it
satisfies w^n = t^{n nu_w} and does not depend on which valid exponent
is used.  The Newton index pairs the coroot-lattice coset kappa(w) with
the dominant Weyl orbit representative of nu_w; `AffineWeylGroup.index_of`
builds every Newton index, of an element or induced from a Levi.
"""

from __future__ import annotations

from .affine_weyl import AffineWeylElement, AffineWeylGroup, multiply
from .root_datum import Coweight, FrozenRecord, IntVector, mat_act


class NewtonIndex(FrozenRecord):
    """A coroot-lattice coset label plus a dominant rational coweight."""

    __slots__ = ("omega", "nu_bar")

    def __init__(self, omega: IntVector, nu_bar: Coweight):
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "nu_bar", nu_bar)

    def sort_key(self):
        return (self.nu_bar, self.omega)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.omega) + ";" + \
            ",".join(self.nu_bar.strs()) + ")"


def newton_point(ctx, w: AffineWeylElement) -> Coweight:
    """The averaged translation part of w.

    ctx is an ambient or a Levi group.  The value is memoised on the
    ambient group, whose Levis share the memo (nu_w does not depend on
    M).
    """
    nu = ctx.newton_points.get(w)
    if nu is None:
        order = ctx.datum.element_order(w.finite)
        nu = ctx.newton_points[w] = Coweight(order, orbit_sum(w, order))
    return nu


def orbit_sum(w: AffineWeylElement, n: int) -> IntVector:
    """sum_{i<n} u^i(lam) for w = t^lam u: n nu_w when the order of u
    divides n."""
    total, cur = list(w.translation), w.translation
    for _ in range(n - 1):
        cur = mat_act(w.finite, cur)
        total = [a + b for a, b in zip(total, cur)]
    return tuple(total)


# the Newton index and the pairing criterion of straightness are methods
# of the group, ambient or Levi; these are the same functions
newton_index = AffineWeylGroup.newton_index
is_straight = AffineWeylGroup.is_straight


def is_straight_by_powers(group: AffineWeylGroup, w: AffineWeylElement) -> bool:
    """The defining condition length(w^n) = n length(w), checked up to
    the order of the finite part times the denominator of nu_w (powers
    beyond that are controlled by the translation w^{order} already)."""
    bound = group.datum.element_order(w.finite) * newton_point(group, w).d
    target = group.length(w)
    power = w
    for n in range(2, bound + 1):
        power = multiply(power, w)
        if group.length(power) != n * target:
            return False
    return True


def strata(group: AffineWeylGroup, max_length: int,
           omega_labels=None) -> dict[NewtonIndex, list[AffineWeylElement]]:
    """Partition of the length ball by Newton index, canonically ordered."""
    ball = group.enumerate_ball(max_length, omega_labels)
    fibers: dict[NewtonIndex, list[AffineWeylElement]] = {}
    for w in ball:
        fibers.setdefault(group.newton_index(w), []).append(w)
    return {nu: fibers[nu] for nu in sorted(fibers, key=NewtonIndex.sort_key)}
