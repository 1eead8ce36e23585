"""Levi sub-Iwahori-Weyl groups, alcove tests and positivity exponents.

A rational coweight v cuts the roots into the vanishing part (the Levi
M) and the strictly positive part (the unipotent direction).  The group
X_* ⋊ W_M sits inside the ambient extended affine Weyl group but
carries its own length function, computed by counting inversions over
the Levi roots only; it genuinely differs from the restriction of the
ambient length.  Its affine simple reflections are the walls of the
M-alcove containing the ambient base alcove, which here means the
reflections of M-length one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .affine_weyl import (
    AffineRoot, AffineWeylElement, AffineWeylGroup, act_on_affine_root,
    conjugate, inverse, is_positive_affine_root, multiply,
)
from .errors import InputError, LogicError
from .newton import NewtonIndex, newton_index, newton_point
from .reduction import max_finite_parabolic_order, wa_ball_count
from .root_datum import (
    Coweight, IntVector, Matrix, coweight, coset_reduce, dominant_walk, dot,
    hnf_columns, levi_datum, mat_act,
)


class LeviWeylGroup:
    """The Iwahori-Weyl group of the Levi attached to a rational coweight.

    Satisfies the same context interface as AffineWeylGroup (identity,
    simple_items, length, sort_key, newton_index, is_straight, caches),
    so the reduction machinery applies verbatim with the M-length.
    """

    def __init__(self, parent: AffineWeylGroup, v):
        self.parent = parent
        self.datum = parent.datum
        self.levi = levi_datum(self.datum, v)
        self.v = self.levi.v
        self.identity = parent.identity
        self._w_m = frozenset(self.levi.w_m)
        self._phi_m = tuple(sorted(set(self.levi.phi_zero)))
        self._phi_m_index = tuple(self.datum.root_index[a] for a in self._phi_m)
        self._m_simple_roots = self._find_m_simples()
        self._m_walls = tuple((a, self.datum.coroot[a], self.datum.reflection(a))
                              for a in self._m_simple_roots)
        self._coroot_hnf = hnf_columns(
            [self.datum.coroot[a] for a in self._phi_m])
        self._length_cache: dict[AffineWeylElement, int] = {}
        self._simples = self._find_affine_simples()
        self.parabolic_cap = len(self._w_m) + 1
        self._omega_cache: dict[IntVector, AffineWeylElement] = {}
        self._class_cache: dict = {}
        self._triple_cache: dict = {}

    # -- construction --------------------------------------------------

    def _find_m_simples(self):
        """Indecomposable elements of the M-positive roots."""
        pos = [a for a in self._phi_m if self.datum.is_positive_root(a)]
        pos_set = set(pos)
        simples = []
        for a in pos:
            if not any(tuple(x - y for x, y in zip(a, b)) in pos_set
                       for b in pos if b != a):
                simples.append(a)
        return tuple(sorted(simples))

    def _find_affine_simples(self):
        """Reflections of M-length one: the walls of the base M-alcove.

        Wall levels lie in {0, 1} because the ambient base alcove pins
        every root value into (-1, 1); the scan range is wider only as
        a safety margin, with the count checked against the expected
        rank-plus-components total.
        """
        found = []
        for a in self._phi_m:
            if not self.datum.is_positive_root(a):
                continue
            for k in range(-2, 3):
                s = self.parent.reflection(AffineRoot(a, k))
                if self.length(s) == 1 and s not in found:
                    found.append(s)
        found.sort(key=self.parent.sort_key)
        items = tuple(enumerate(found))
        n_components = len(_components_of_roots(self.datum, self._m_simple_roots))
        expected = len(self._m_simple_roots) + n_components
        if len(items) != expected:
            raise LogicError(
                f"found {len(items)} M-walls, expected {expected}")
        return items

    # -- context interface -----------------------------------------------

    def simple_items(self):
        return self._simples

    def finite_elements(self):
        return self.levi.w_m

    def is_member(self, w: AffineWeylElement) -> bool:
        return w.finite in self._w_m

    def length(self, w: AffineWeylElement) -> int:
        """Inversions over affine roots with vector part in the Levi."""
        cached = self._length_cache.get(w)
        if cached is not None:
            return cached
        if not self.is_member(w):
            raise InputError("M-length is only defined on the Levi subgroup")
        roots, tau = self.datum.roots, self.datum.tau
        perm = self.datum.root_permutation(w.finite)
        total = 0
        for i in self._phi_m_index:
            j = perm[i]
            d = tau[j] - dot(roots[j], w.translation) - tau[i]
            if d > 0:
                total += d
        self._length_cache[w] = total
        return total

    def kappa(self, w: AffineWeylElement) -> IntVector:
        return coset_reduce(w.translation, self._coroot_hnf)

    def omega_rep(self, label) -> AffineWeylElement:
        label = coset_reduce(tuple(label), self._coroot_hnf)
        cached = self._omega_cache.get(label)
        if cached is not None:
            return cached
        w = self.parent.translation(label)
        while self.length(w) > 0:
            for _, s in self._simples:
                sw = multiply(s, w)
                if self.length(sw) < self.length(w):
                    w = sw
                    break
            else:
                raise LogicError("descent must exist while M-length is positive")
        self._omega_cache[label] = w
        return w

    def word(self, w: AffineWeylElement) -> tuple[int, ...]:
        omega = self.omega_rep(self.kappa(w))
        cur = multiply(w, inverse(omega))
        word = []
        length = self.length(cur)
        while length > 0:
            for lab, s in self._simples:
                sw = multiply(s, cur)
                lsw = self.length(sw)
                if lsw < length:
                    word.append(lab)
                    cur, length = sw, lsw
                    break
            else:
                raise LogicError("descent must exist while M-length is positive")
        return tuple(word)

    def sort_key(self, w: AffineWeylElement):
        return (self.length(w), self.kappa(w), self.word(w),
                self.parent.sort_key(w))

    def dominant_rep(self, x) -> tuple[Coweight, Matrix]:
        """The M-dominant representative in the W_M-orbit."""
        return dominant_walk(self.datum, x, self._m_walls)

    def newton_index(self, w: AffineWeylElement) -> NewtonIndex:
        nu = newton_point(self.parent, w)
        nu_bar, _ = self.dominant_rep(nu)
        return NewtonIndex(self.kappa(w), nu_bar)

    def is_straight(self, w: AffineWeylElement) -> bool:
        two_rho_m = tuple(
            sum(a[i] for a in self._phi_m if self.datum.is_positive_root(a))
            for i in range(self.datum.rank))
        return self.length(w) == dot(two_rho_m, self.newton_index(w).nu_bar)

    def enumerate_ball(self, max_length: int, omega_labels,
                       cap: int = 64) -> list[AffineWeylElement]:
        """All of W(M) with M-length <= max_length over the given
        kappa_M labels (Omega_M is infinite in general, so the label
        set must be supplied explicitly)."""
        if max_length > cap:
            raise InputError(f"M-ball of radius {max_length} exceeds cap {cap}")
        out = []
        for label in omega_labels:
            start = self.omega_rep(tuple(label))
            seen = {start}
            frontier = [start]
            out.append(start)
            depth = 0
            while depth < max_length:
                depth += 1
                new = []
                for w in frontier:
                    for _, s in self._simples:
                        sw = multiply(s, w)
                        if sw not in seen and self.length(sw) == depth:
                            seen.add(sw)
                            new.append(sw)
                out.extend(new)
                frontier = new
        out.sort(key=self.sort_key)
        return out

    def __repr__(self):
        return f"LeviWeylGroup(v={tuple(map(str, self.v))})"


def _components_of_roots(datum, m_simple_roots):
    comps = []
    seen = set()
    for a in m_simple_roots:
        if a in seen:
            continue
        comp, frontier = {a}, [a]
        while frontier:
            b = frontier.pop()
            for c in m_simple_roots:
                if c not in comp and dot(b, datum.coroot[c]) != 0:
                    comp.add(c)
                    frontier.append(c)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def levi_weyl_group(group: AffineWeylGroup, v) -> LeviWeylGroup:
    v = coweight(v)
    cache = group._triple_cache.setdefault("levi_groups", {})
    if v not in cache:
        cache[v] = LeviWeylGroup(group, v)
    return cache[v]


def is_member(w: AffineWeylElement, m: LeviWeylGroup) -> bool:
    return m.is_member(w)


def newton_index_map(group: AffineWeylGroup, m: LeviWeylGroup,
                     nu_m: NewtonIndex) -> NewtonIndex:
    """Push an M-Newton index to an ambient one: the coset label goes
    along the lattice inclusion, the coweight to its dominant orbit
    representative."""
    label = group.datum.kappa_label(nu_m.omega)
    nu_bar, _ = group.datum.dominant_rep(nu_m.nu_bar)
    return NewtonIndex(label, nu_bar)


def conjugate_levi(group: AffineWeylGroup, u0: Matrix, m: LeviWeylGroup):
    """The Levi of u0(v) together with the induced index bijection."""
    v_new = tuple(mat_act(u0, m.v))
    m_new = levi_weyl_group(group, v_new)

    def index_map(nu_m: NewtonIndex) -> NewtonIndex:
        label = coset_reduce(tuple(mat_act(u0, nu_m.omega)), m_new._coroot_hnf)
        nu_bar, _ = m_new.dominant_rep(tuple(mat_act(u0, nu_m.nu_bar)))
        return NewtonIndex(label, nu_bar)

    return m_new, index_map


def is_v_alcove(group: AffineWeylGroup, w: AffineWeylElement, v) -> bool:
    """The alcove condition for the direction v.

    Requires the finite part to fix v, and that w never pulls a positive
    affine root with vector part strictly positive on v from a negative
    one: for every such b, w^{-1}(b) positive implies b positive.  Only
    levels within the translation window can change sign, so the check
    is finite.
    """
    v = coweight(v)
    if tuple(mat_act(w.finite, v)) != v:
        return False
    datum = group.datum
    plus = [a for a in datum.roots if dot(a, v) > 0]
    winv = inverse(w)
    window = max((abs(dot(a, w.translation)) for a in datum.roots), default=0) + 1
    for beta in plus:
        for k in range(-window, window + 1):
            b = AffineRoot(beta, k)
            pre = act_on_affine_root(datum, winv, b)
            if is_positive_affine_root(datum, pre) and \
                    not is_positive_affine_root(datum, b):
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
    LogicError.
    """
    v = coweight(v)
    m = levi_weyl_group(group, v)
    if not m.is_member(w):
        raise InputError("positivity_exponent requires w in the Levi of v")
    plus = [a for a in group.datum.roots if dot(a, v) > 0]
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
    nu = newton_point(group, w)
    if all(dot(beta, nu) > 0 for beta in plus):
        raise LogicError(
            "quasi-positivity must hold within the bound for strictly "
            "v-positive Newton points")
    raise InputError(
        "no positive power of w is strictly v-positive: its Newton point "
        "is not strictly positive on the v-positive roots")


def m_in_g_stratum_check(group: AffineWeylGroup, m: LeviWeylGroup,
                         w: AffineWeylElement, nu_m: NewtonIndex) -> bool:
    """The ambient Newton index of w must be the image of its M-index.

    This holds for every input; the operation exists to be run
    exhaustively as a stratum-compatibility check.
    """
    if m.newton_index(w) != nu_m:
        raise InputError("nu_m is not the M-Newton index of w")
    return newton_index(group, w) == newton_index_map(group, m, nu_m)
