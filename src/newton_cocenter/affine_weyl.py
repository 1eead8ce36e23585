"""The extended affine Weyl group X_* ⋊ W0.

Elements are pairs t^lam * u with lam an integral coweight (a tuple of
ints, since X_* = Z^rank in the chosen coordinates) and u a finite Weyl
group matrix.  The base alcove sits in the antidominant chamber with the
origin as its fixed special vertex; an affine root (alpha, k), meaning
the function x -> <alpha, x> + k, is positive when it is positive on
that alcove:

    (alpha, k) > 0  iff  k >= 1 for alpha in Phi+, else k >= 0.

The group acts on affine roots by

    (t^lam u)(alpha, k) = (u(alpha), k + <u(alpha), lam>),

the unique orientation for which a permutation-with-translation in
GL(5) sends e4 - e3 to e5 - e2 - 1 (pinned by a test in
tests/test_affine_weyl.py).  Length is the number of positive affine
roots sent to negative ones, computed in closed form per finite-root
family.  A wall s with positive affine root a_s has length(s w) <
length(w) iff w^{-1}(a_s) < 0, and length(w s) < length(w) iff w(a_s) <
0 (Humphreys, Reflection Groups and Coxeter Groups, 4.4 and 5.6): a
descent is a sign, read off without a product or a length.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import islice
from operator import itemgetter, mul

from .errors import InputError, LogicError
from .root_datum import (
    Coweight, Covector, FrozenRecord, IntVector, Matrix, RootDatum,
    coset_reduce, dominant_walk, dot, weyl_inverse, weyl_product,
)


class AffineWeylElement(tuple):
    """t^translation * finite, with the semidirect product group law.

    The pair (translation, finite) itself, as `WeylElement` is its
    matrix: hashing and equality run in C on every memo lookup, and an
    element equals the plain pair.
    """

    __slots__ = ()

    def __new__(cls, translation: IntVector, finite: Matrix):
        return _new(cls, (translation, finite))

    translation = property(itemgetter(0))
    finite = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"AffineWeylElement(translation={self[0]!r}, finite={self[1]!r})"

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        return multiply(self, other)

    def inverse(self) -> "AffineWeylElement":
        return inverse(self)


_new = tuple.__new__


class AffineRoot(FrozenRecord):
    """The affine function x -> <vector_part, x> + level."""

    __slots__ = ("vector_part", "level")

    def __init__(self, vector_part: Covector, level: int):
        object.__setattr__(self, "vector_part", vector_part)
        object.__setattr__(self, "level", level)

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(tuple(-a for a in self.vector_part), -self.level)

    def __str__(self):
        if self.level == 0:
            return f"{self.vector_part}"
        sign = "+" if self.level > 0 else "-"
        return f"{self.vector_part}{sign}{abs(self.level)}"


def multiply(w1: AffineWeylElement, w2: AffineWeylElement) -> AffineWeylElement:
    """(t^a u)(t^b v) = t^{a + u(b)} uv."""
    a, u = w1
    b, v = w2
    return _new(AffineWeylElement, (
        tuple([x + sum(map(mul, row, b)) for x, row in zip(a, u)]),
        weyl_product(u, v)))


def inverse(w: AffineWeylElement) -> AffineWeylElement:
    lam, u = w
    uinv = weyl_inverse(u)
    return _new(AffineWeylElement, (
        tuple([-sum(map(mul, row, lam)) for row in uinv]), uinv))


def conjugate(x: AffineWeylElement, w: AffineWeylElement) -> AffineWeylElement:
    """x w x^{-1} = t^{a + u(b) - c(a)} c for x = t^a u, w = t^b v, c = u v u^-1."""
    (a, u), (b, v) = x, w
    c = weyl_product(weyl_product(u, v), weyl_inverse(u))
    return _new(AffineWeylElement, (tuple([p + sum(map(mul, row, b)) - sum(map(mul, r, a))
                                           for p, row, r in zip(a, u, c)]), c))


def act_on_affine_root(datum: RootDatum, w: AffineWeylElement, a: AffineRoot) -> AffineRoot:
    """The action of w on affine roots; see the module docstring."""
    if not datum.is_root(a.vector_part):
        raise InputError(f"{a.vector_part} is not a root of {datum.descriptor()}")
    beta = datum.act_covector(w.finite, a.vector_part)
    return AffineRoot(beta, a.level + dot(beta, w.translation))


def is_positive_affine_root(datum: RootDatum, a: AffineRoot) -> bool:
    if not datum.is_root(a.vector_part):
        raise InputError(f"{a.vector_part} is not a root of {datum.descriptor()}")
    if datum.is_positive_root(a.vector_part):
        return a.level >= 1
    return a.level >= 0


class AffineWeylGroup:
    """The Iwahori-Weyl group X_* ⋊ W_M of a Levi M: length, affine
    simple reflections, kappa, the canonical order, Newton indices and
    balls.

    Everything is computed over the roots Phi_M of M (`phi_m`), and W_M
    is `finite_elements()`.  Built from a root datum it is the ambient
    group: M = G, Phi_M is every root, W_M = W0 and the simple labels
    are 0..r.  `levi_alcove.LeviWeylGroup` is the group of the Levi of
    a rational coweight v, built by the same methods over its own Phi_M;
    the ambient group is the one of v = 0.  Either is the group
    "context" of the reduction module.
    """

    def __init__(self, datum: RootDatum):
        self._context(datum, datum.roots, datum.simple_roots,
                      datum.coroot_hnf, {}, wall_order=None)
        # the one memo of the ambient group only: its Levis by Phi_M
        self.levi_groups: dict[tuple, AffineWeylGroup] = {}

    def _context(self, datum, phi_m, m_simple_roots, coroot_hnf,
                 newton_points, wall_order):
        """The state of the group of M, with roots phi_m, simple roots
        m_simple_roots and coroot lattice coroot_hnf, its walls labelled as
        `_build_walls` says, and the memos of every method.  A Levi shares
        the Newton points of its ambient group."""
        self.datum = datum
        self.identity = AffineWeylElement((0,) * datum.rank, datum.weyl_identity)
        self.phi_m = phi_m
        tau, index = datum.tau, datum.root_index
        self._m_taus = tuple([(index[a], tau[index[a]]) for a in phi_m])
        # (index, root) of the M-positive roots
        self._m_positive = tuple([(j, a) for a, (j, t) in zip(phi_m, self._m_taus) if t])
        self.m_simple_roots = m_simple_roots
        self._walls = tuple((a, datum.coroot[a], datum.reflection(a))
                            for a in m_simple_roots)
        self.coroot_hnf = coroot_hnf
        # None when W_M = W0: length tests no membership, nor builds W0
        self._w_m = None if len(phi_m) == len(datum.roots) \
            else frozenset(self.finite_elements())
        self.two_rho_m = tuple(map(sum, zip((0,) * datum.rank,
                                            *[a for _, a in self._m_positive])))
        self._length_cache: dict[AffineWeylElement, int] = {}
        self._newton_indices: dict[AffineWeylElement, NewtonIndex] = {}
        self._walks: dict[IntVector, list[list[AffineWeylElement]]] = {}
        self._raisers: tuple | None = None  # the ascent tests of `_walk`
        self._levels: dict[IntVector, list[int]] = {}
        self._omega_cache: dict[IntVector, AffineWeylElement] = {}
        self._finite_words: dict[Matrix, tuple[int, ...]] = {}
        # Newton memos, filled on demand.  nu_w does not depend on a
        # Levi, so every Levi of a group shares its newton_points; each
        # context keeps its own dominant_rep memo.
        self.newton_points: dict[AffineWeylElement, Coweight] = newton_points
        self._dominant_cache: dict[Coweight, tuple[Coweight, Matrix]] = {}
        # memos of the reduction module (see there)
        self.move_orbits: dict[AffineWeylElement, tuple | None] = {}
        self.coinvariant_hnfs: dict[Matrix, list] = {}
        self.finite_classes: dict[Matrix, tuple] = {}
        self.finite_parabolics: tuple[tuple[int, ...], ...] | None = None
        self.parabolics: dict[tuple[int, ...], frozenset] = {}
        self.exponents: tuple[int, ...] | None = None
        self.wa_ball_counts: dict[int, int] = {}
        self.standard_triples: dict = {}
        self.class_reps: dict[AffineWeylElement, AffineWeylElement] = {}
        self.dominant_translations: dict[IntVector, tuple] = {}
        # the W_M-orbits of translation_orbit; the normal forms of the inputs
        # of cocenter_reduce, its rewrite steps, and hecke_mul's T_x T_y
        self._orbits: dict[IntVector, set[IntVector]] = {}
        self.nf_cache: dict = {}
        self.nf_steps: dict[AffineWeylElement, tuple] = {}
        self.hecke_products: dict[tuple, dict] = {}
        self._build_walls(wall_order)

    # -- basic constructors -------------------------------------------

    def translation(self, lam) -> AffineWeylElement:
        lam = tuple(lam)
        ints = tuple([int(x) for x in lam])
        if ints != lam:
            raise InputError(f"translation {lam} is not in the cocharacter lattice")
        return AffineWeylElement(ints, self.datum.weyl_identity)

    def finite_element(self, u: Matrix) -> AffineWeylElement:
        return AffineWeylElement((0,) * self.datum.rank, u)

    def reflection(self, a: AffineRoot) -> AffineWeylElement:
        """The element acting on affine roots as the reflection in a."""
        av = self.datum.coroot[a.vector_part]
        return AffineWeylElement(tuple(a.level * c for c in av),
                                 self.datum.reflection(a.vector_part))

    def finite_elements(self):
        return self.datum.reflection_subgroup(self.m_simple_roots)

    # -- length --------------------------------------------------------

    def length(self, w: AffineWeylElement) -> int:
        """Inversions over the affine roots with vector part in Phi_M.

        For the family of affine roots over alpha the image family sits
        over beta = u(alpha) with level shift c = <beta, lam>; levels at
        least tau(alpha) are positive, so exactly
        max(0, tau(beta) - c - tau(alpha)) of them land negative.  The
        root permutation of u gives beta as an index; the levels
        tau(beta) - <beta, lam> over Phi_M depend on lam alone and are
        memoised per lam.
        """
        cached = self._length_cache.get(w)
        if cached is not None:
            return cached
        lam, u = w
        if self._w_m is not None and u not in self._w_m:
            raise InputError("M-length is only defined on the Levi subgroup")
        level = self._level(lam)
        perm = self.datum.root_permutation(u)
        total = 0
        for i, t in self._m_taus:
            d = level[perm[i]] - t
            if d > 0:
                total += d
        self._length_cache[w] = total
        return total

    def _level(self, lam: IntVector) -> list[int]:
        """level[j] = tau(beta) - <beta, lam>, beta = roots[j] in Phi_M: t^lam u
        sends (alpha, k) to a negative root iff k < level[u(alpha)].  Read
        off the positive beta alone: -beta is roots[~j], at level <beta, lam>."""
        level = self._levels.get(lam)
        if level is None:
            level = self._levels[lam] = [0] * len(self.datum.roots)
            for j, a in self._m_positive:
                c = sum(map(mul, a, lam))
                level[j], level[~j] = 1 - c, c
        return level

    def finite_length(self, u: Matrix) -> int:
        return self.length(self.finite_element(u))

    def left_descents(self, w: AffineWeylElement) -> list[bool]:
        """Flag i: length(s w) < length(w) for the wall s of label i, with
        root (beta, k): w^{-1}(beta, k) = (u^{-1} beta, k - <beta, lam>) < 0."""
        lam, u = w
        level, tau = self._level(lam), self.datum.tau
        perm = self.datum.root_permutation(u)
        return [k - tau[j] + level[j] < tau[perm.index(j)] for j, k in self._wall_roots]

    def right_descents(self, w: AffineWeylElement) -> list[bool]:
        """Flag i: length(w s) < length(w) for the wall s of label i, with
        root (beta, k): w(beta, k) = (u beta, k + <u beta, lam>) < 0."""
        lam, u = w
        level = self._level(lam)
        perm = self.datum.root_permutation(u)
        return [level[perm[j]] > k for j, k in self._wall_roots]

    def least_left_descent(self, w: AffineWeylElement) -> int | None:
        """The least label whose flag in `left_descents` is set, or None."""
        return self._first_inversion(self._wall_roots, self._level(w[0]),
                                     self.datum.root_permutation(w[1]))

    def _first_inversion(self, roots, level, perm) -> int | None:
        """The first t with w^{-1}(roots[t]) < 0, or None, for affine roots
        (root index j, level k) and w = t^lam u read as level = `_level(lam)`
        and the root permutation perm of u, as in `left_descents`."""
        tau = self.datum.tau
        for t, (j, k) in enumerate(roots):
            if k - tau[j] + level[j] < tau[perm.index(j)]:
                return t
        return None

    def least_right_descent(self, w: AffineWeylElement) -> int | None:
        """The least label whose flag in `right_descents` is set, or None."""
        level = self._level(w[0])
        perm = self.datum.root_permutation(w[1])
        for i, (j, k) in enumerate(self._wall_roots):
            if level[perm[j]] > k:
                return i
        return None

    def is_right_descent(self, w: AffineWeylElement, i: int) -> bool:
        """Flag i of `right_descents` alone."""
        j, k = self._wall_roots[i]
        return self._level(w[0])[self.datum.root_permutation(w[1])[j]] > k

    # -- affine simple reflections --------------------------------------

    def _build_walls(self, wall_order):
        """The walls of the base M-alcove and the affine Coxeter diagram.

        The walls are the M-simple roots at level 0 and, for each
        connected component of the M-Dynkin diagram, its highest root at
        level 1 (Humphreys, Reflection Groups and Coxeter Groups, ch. 4):
        of the M-positive roots pairing nonzero with a coroot of the
        component, the first by descending height.  With wall_order None
        (the ambient group) the simple walls are labelled 1..r and the
        highest root 0; a Levi labels its walls 0, 1, ... in the order
        wall_order, the ambient canonical order, yields them.
        `coxeter_diagram` holds the labels of the walls of each component,
        `_wall_roots` their positive affine roots (-alpha, 0) and (theta, 1)
        as (root index, level), in label order, and `_wall_data` each as
        (root index, level, root, coroot, reflection), for the wall products.
        """
        datum, coroot = self.datum, self.datum.coroot
        # the M-Dynkin components: each simple root merges those it links to
        components = []
        for a in self.m_simple_roots:
            linked = [c for c in components if any(dot(b, coroot[a]) for b in c)]
            components = [c for c in components if c not in linked] + [sum(linked, [a])]
        positive = sorted([a for _, a in self._m_positive],
                          key=datum.height.__getitem__, reverse=True)
        roots = [AffineRoot(tuple(-x for x in a), 0) for a in self.m_simple_roots] + [
            AffineRoot(next(b for b in positive if any(dot(b, coroot[c]) for c in comp)), 1)
            for comp in components]
        wall_roots = {self.reflection(a): (datum.root_index[a.vector_part], a.level)
                      for a in roots}
        walls = list(wall_roots)
        simple, affine = dict(zip(self.m_simple_roots, walls)), walls[len(self.m_simple_roots):]
        if any(self.length(s) != 1 for s in walls):
            raise LogicError("affine simple reflections must have length 1")
        if wall_order is None:
            if len(affine) > 1:
                raise LogicError("the ambient root system must be irreducible")
            labels = dict(zip(walls, [*range(1, len(simple) + 1), 0]))
        else:
            labels = {s: i for i, s in enumerate(wall_order(walls))}
        self._simples = tuple(sorted((lab, s) for s, lab in labels.items()))
        self._wall_roots = tuple(wall_roots[s] for _, s in self._simples)
        self._wall_data = tuple(
            (j, k, datum.roots[j], coroot[datum.roots[j]], datum.reflection(datum.roots[j]))
            for j, k in self._wall_roots)
        self.coxeter_diagram = tuple(sorted(
            tuple(sorted([labels[simple[a]] for a in comp] + [labels[s]]))
            for comp, s in zip(components, affine)))

    def simple_items(self) -> tuple[tuple[int, AffineWeylElement], ...]:
        """(label, reflection) pairs, ascending label; for the ambient
        group label 0 is the affine one."""
        return self._simples

    def wall_times(self, i: int, w: AffineWeylElement) -> AffineWeylElement:
        """s w for the wall s of label i, with root (beta, k), in O(rank):
        s (lam, u) = (lam - (<beta, lam> - k) beta^vee, r_beta u)."""
        lam, u = w
        _, k, beta, beta_vee, r = self._wall_data[i]
        c = sum(map(mul, beta, lam)) - k
        if c:
            lam = tuple([x - c * y for x, y in zip(lam, beta_vee)])
        return _new(AffineWeylElement, (lam, self.datum.product(r, u)))

    def times_wall(self, w: AffineWeylElement, i: int) -> AffineWeylElement:
        """w s for the wall s of label i, with root (beta, k), in O(rank):
        (lam, u) s = (lam + k (u beta)^vee, u r_beta), u beta read off the
        root permutation of u."""
        lam, u = w
        datum = self.datum
        j, k, _, _, r = self._wall_data[i]
        if k:
            u_beta_vee = datum.coroot[datum.roots[datum.root_permutation(u)[j]]]
            lam = tuple([x + k * y for x, y in zip(lam, u_beta_vee)])
        return _new(AffineWeylElement, (lam, datum.product(u, r)))

    # -- Omega ----------------------------------------------------------

    def kappa(self, w: AffineWeylElement) -> IntVector:
        """lam mod the coroot lattice of M, as a canonical coset representative."""
        return coset_reduce(w[0], self.coroot_hnf)

    def omega_rep(self, label) -> AffineWeylElement:
        """The unique length-zero element with the given kappa, reached
        from the translation by descents."""
        label = coset_reduce(tuple(label), self.coroot_hnf)
        cached = self._omega_cache.get(label)
        if cached is None:
            w = self.translation(label)
            for _ in range(self.length(w)):
                if (lab := self.least_left_descent(w)) is None:
                    raise LogicError("descent must exist while length is positive")
                w = self.wall_times(lab, w)
            cached = self._omega_cache[label] = w
        return cached

    def finite_word(self, u: Matrix) -> tuple[int, ...]:
        """Lex-least reduced word of u in the finite simple reflections:
        the least i with u^{-1}(alpha_i) < 0, then the word of s_i u
        (memoised per u, at most |W0| words)."""
        if (word := self._finite_words.get(u)) is not None:
            return word
        datum, v, word = self.datum, u, []
        while v != datum.weyl_identity:
            inv = datum.root_permutation(datum.finite_inverse(v))
            for i, (a, s) in enumerate(zip(datum.simple_roots, datum.simple_reflections), 1):
                if not datum.tau[inv[datum.root_index[a]]]:
                    word.append(i)
                    v = datum.product(s, v)
                    break
            else:
                raise LogicError("descent must exist while length is positive")
        word = self._finite_words[u] = tuple(word)
        return word

    def canonical_order(self, elems):
        """Yield elems in the canonical order, without building a word:
        by length, then kappa, then the lex-least reduced word, in the
        wall labels, of w omega^{-1}, omega = omega_rep(kappa(w)).  The
        order is total, since w is that word's product times omega.

        Elements are grouped by (length, kappa).  Within a group the
        first letter of the word of w is its least left descent s, so a
        group splits into buckets by that letter, in ascending order,
        and a bucket of several members is ordered as the s w of its
        members are: they share a length and a kappa, and their words
        are those of the members with the first letter dropped.  An
        explicit stack of (length, [(element, current)]) buckets keeps
        deep inputs off the recursion limit, and a bucket is split only
        when the order reaches it, so the least element costs one
        descent chain through the least buckets.  Equal elements are
        yielded in input order, as by a stable sort.
        """
        groups: dict = {}
        for w in elems:
            groups.setdefault((self.length(w), self.kappa(w)), []).append((w, w))
        stack = [(key[0], groups[key]) for key in sorted(groups, reverse=True)]
        while stack:
            length, bucket = stack.pop()
            if len(bucket) == 1 or length == 0:
                for w, _ in bucket:
                    yield w
                continue
            letters: dict[int, list] = {}
            for w, cur in bucket:
                i = self.least_left_descent(cur)
                letters.setdefault(i, []).append((w, self.wall_times(i, cur)))
            stack.extend((length - 1, letters[i]) for i in sorted(letters, reverse=True))

    # -- Newton indices -------------------------------------------------

    def index_of(self, lam: IntVector, nu: Coweight) -> NewtonIndex:
        """lam mod the coroot lattice of M and the M-dominant rep of nu:
        the Newton index of an element, or the image of a Levi's index."""
        return NewtonIndex(coset_reduce(lam, self.coroot_hnf), self.dominant_rep(nu)[0])

    def newton_index(self, w: AffineWeylElement) -> NewtonIndex:
        """kappa(w) and the dominant representative of nu_w, both taken
        in this group (for a Levi: kappa_M and the M-dominant one)."""
        index = self._newton_indices.get(w)
        if index is None:
            index = self.index_of(w.translation, newton_point(self, w))
            self._newton_indices[w] = index
        return index

    def is_straight(self, w: AffineWeylElement) -> bool:
        """Straightness via the pairing criterion length(w) =
        <nu_bar, 2 rho_M>.  The defining power condition is
        `newton.is_straight_by_powers`; the two are asserted to agree on
        every test ball."""
        d, x = self.newton_index(w).nu_bar
        return self.length(w) * d == dot(self.two_rho_m, x)

    def dominant_rep(self, v: Coweight) -> tuple[Coweight, Matrix]:
        """The dominant representative of the W_M-orbit of v, with u such
        that u(v) is it; memoised.  Dominance is for the walls of the
        simple roots of M."""
        hit = self._dominant_cache.get(v)
        if hit is None:
            x_bar, u = dominant_walk(self.datum, v.x, self._walls)
            hit = self._dominant_cache[v] = (Coweight(v.d, x_bar), u)
        return hit

    def translation_orbit(self, mu: IntVector) -> set[IntVector]:
        """The W_M-orbit of the translation mu (memoised), walked by the
        reflections in the M-simple roots, without W_M."""
        orbit = self._orbits.get(mu)
        if orbit is None:
            orbit = self._orbits[mu] = {mu}
            frontier = [mu]
            for x in frontier:
                for a, a_vee, _ in self._walls:
                    c = dot(a, x)
                    y = tuple([xi - c * vi for xi, vi in zip(x, a_vee)])
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
        return orbit

    # -- balls ------------------------------------------------------------

    def ball(self, max_length: int, label) -> dict[AffineWeylElement, int]:
        """Every w of length <= max_length in the kappa coset of label, with
        its length, in canonical order: that coset's view of `_walk`."""
        layers = self._walk(coset_reduce(tuple(label), self.coroot_hnf), max_length)
        return {w: n for n, layer in enumerate(layers[:max_length + 1]) for w in layer}

    def _walk(self, kappa, max_length: int) -> list[list[AffineWeylElement]]:
        """The layers 0..max_length (at least) of the kappa coset, memoised
        and extended on demand, with no call of `length`.  Layer 0 is
        omega_rep(kappa); layer n+1 holds, for wall label i ascending and w
        in layer-n order, each s_i w with least left descent i.  So each w of
        length n + 1 is built once, from s w for s the first letter of its
        word, and a layer is in canonical order.  The test is read before
        s_i w is built, off `_raisers[i]`: a_i and the s_i(a_j), j < i, for
        the walls a_j = (beta_j, k_j) as (root index, level).  s_i w is
        longer than w with least left descent i iff w^{-1} sends none of
        them negative, as (s_i w)^{-1}(a_j) = w^{-1}(s_i(a_j)); and s_i(beta, k)
        = (r beta, k - k_i <beta, beta_i^vee>), r the reflection of s_i."""
        if self._raisers is None:
            datum = self.datum
            self._raisers = tuple(
                ((j, k), *[(perm[b], c - k * dot(datum.roots[b], beta_vee))
                           for b, c in self._wall_roots[:i]])
                for i, (j, k, _, beta_vee, r) in enumerate(self._wall_data)
                for perm in [datum.root_permutation(r)])
        layers = self._walks.get(kappa)
        if layers is None:
            layers = self._walks[kappa] = [[self.omega_rep(kappa)]]
        perm_of, first = self.datum.root_permutation, self._first_inversion
        while len(layers) <= max_length:
            reads = [(w, self._level(w[0]), perm_of(w[1])) for w in layers[-1]]
            layers.append([self.wall_times(i, w) for i, roots in enumerate(self._raisers)
                           for w, level, perm in reads if first(roots, level, perm) is None])
        return layers

    def short_translates(self, lams, max_length: int, cap: int | None = None):
        """The first `cap` (all with cap None), in canonical order, of the t^lam u
        with lam in lams, u in W_M and length <= max_length, built length by length
        with their lengths memoised.  The roots of Phi_M at level >= 1 for lam
        (`_level`) are a positive system x(Phi_M+); summing `length` over them gives
        length(t^lam u) = base + length(x^-1 u), base the sum of their level - 1."""
        datum, taus = self.datum, self._m_taus
        x_of, layers = {}, [[] for _ in range(max_length + 1)]
        for u in self.finite_elements():  # u by u(Phi_M+) as a bit mask, and by length
            perm = datum.root_permutation(u)
            x_of[sum(1 << perm[i] for i, t in taus if t)] = u
            if (n := self.finite_length(u)) <= max_length:
                layers[n].append(u)
        starts = []
        for lam in lams:
            level = self._level(lam)
            high = [j for j, _ in taus if level[j] > 0]
            if (base := sum(level[j] for j in high) - len(high)) <= max_length:
                starts.append((base, lam, x_of[sum(1 << j for j in high)]))
        out = []
        for n in range(max_length + 1):
            if cap is not None and len(out) >= cap:
                break
            elems = [_new(AffineWeylElement, (lam, datum.product(x, y)))
                     for base, lam, x in starts if base <= n for y in layers[n - base]]
            self._length_cache.update(dict.fromkeys(elems, n))
            out += elems
        return list(islice(self.canonical_order(out), cap))

    def enumerate_ball(self, max_length: int, omega_labels=None) -> list[AffineWeylElement]:
        """All w with length <= max_length and kappa among the given labels.

        omega_labels defaults to every label of the ambient group when
        its Omega is finite and to the trivial one otherwise.
        Deterministic canonical order: the layers of the cosets' walks
        (`_walk`) by length, then kappa; a coset named k times yields each
        element k times in a row, as a stable sort of the k copies would.
        """
        if omega_labels is None:
            omega_labels = self.datum.omega_labels() or ((0,) * self.datum.rank,)
        copies = Counter(coset_reduce(tuple(label), self.coroot_hnf) for label in omega_labels)
        walks = [(self._walk(kappa, max_length), k) for kappa, k in sorted(copies.items())]
        return [w for n in range(max_length + 1) for layers, k in walks
                for w in layers[n] for _ in range(k)]


# -- element grammar ----------------------------------------------------

_RATIONAL = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")


def element_str(group: AffineWeylGroup, w: AffineWeylElement) -> str:
    """Canonical printed form: translation then finite word.

    >>> from newton_cocenter.root_datum import build_root_datum
    >>> g = AffineWeylGroup(build_root_datum("A1"))
    >>> element_str(g, parse_element(g, "S1*S0*S1"))
    't[-1]*s1'
    """
    text = "t[" + ",".join(str(x) for x in w.translation) + "]"
    word = group.finite_word(w.finite)
    if word:
        text += "*" + "*".join(f"s{i}" for i in word)
    return text


def parse_element(group: AffineWeylGroup, text: str) -> AffineWeylElement:
    """Parse the element grammar.

    elem := "t[" rational ("," rational)* "]" ("*" finite_word)?
          | affine_word ("#" omega_label)?
    finite_word := "s" index ("*s" index)* | "e"
    affine_word := "S" index ("*S" index)* | "E"
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise InputError("empty input for production 'elem'")
    if text.startswith("t["):
        close = text.find("]")
        if close < 0:
            raise InputError("unterminated translation for production 'elem'")
        coords = text[2:close].split(",")
        if len(coords) != group.datum.rank:
            raise InputError(
                f"translation needs {group.datum.rank} coordinates "
                f"(production 'rational')")
        lam = []
        for c in coords:
            if not _RATIONAL.match(c):
                raise InputError(f"bad rational {c!r} (production 'rational')")
            num, _, den = c.partition("/")
            try:
                val, rest = divmod(int(num), int(den or 1))
            except ValueError as exc:  # more digits than int() reads
                raise InputError(f"bad rational (production 'rational'): {exc}") from exc
            if rest:
                raise InputError(
                    f"translation coordinate {c!r} is not in the "
                    f"cocharacter lattice (production 'rational')")
            lam.append(val)
        rest = text[close + 1:]
        w = group.translation(lam)
        if rest:
            if not rest.startswith("*"):
                raise InputError("expected '*' before production 'finite_word'")
            w = multiply(w, group.finite_element(_parse_finite_word(group, rest[1:])))
        return w
    if text[0] in "SE":
        if "#" in text:
            word_text, label_text = text.split("#", 1)
            if not (label_text.startswith("[") and label_text.endswith("]")):
                raise InputError("expected '[..]' for production 'omega_label'")
            try:
                label = tuple(int(x) for x in label_text[1:-1].split(","))
            except ValueError as exc:
                raise InputError(
                    f"bad integer in production 'omega_label': {exc}") from exc
            if len(label) != group.datum.rank:
                raise InputError(
                    f"omega_label needs {group.datum.rank} coordinates")
            omega = group.omega_rep(label)
        else:
            word_text, omega = text, group.identity
        return multiply(_parse_affine_word(group, word_text), omega)
    if text == "e":
        return group.identity
    raise InputError(f"cannot parse {text!r} (production 'elem')")


def _parse_finite_word(group, text: str) -> Matrix:
    if text == "e":
        return group.datum.weyl_identity
    u = group.datum.weyl_identity
    for item in text.split("*"):
        if not item.startswith("s") or not item[1:].isdigit():
            raise InputError(f"bad generator {item!r} (production 'finite_word')")
        i = int(item[1:])
        if not 1 <= i <= len(group.datum.simple_roots):
            raise InputError(f"finite index {i} out of range (production 'finite_word')")
        u = group.datum.product(u, group.datum.simple_reflections[i - 1])
    return u


def _parse_affine_word(group, text: str) -> AffineWeylElement:
    if text == "E":
        return group.identity
    w = group.identity
    for item in text.split("*"):
        if not item.startswith("S") or not item[1:].isdigit():
            raise InputError(f"bad generator {item!r} (production 'affine_word')")
        lab = int(item[1:])
        if lab >= len(group.simple_items()):
            raise InputError(f"affine index {lab} out of range (production 'affine_word')")
        w = group.times_wall(w, lab)
    return w


# The Newton layer imports this module; it is imported last, once every
# name it takes from here exists.
from .newton import NewtonIndex, newton_point  # noqa: E402
