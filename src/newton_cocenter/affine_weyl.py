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
GL(5) sends e4 - e3 to e5 - e2 - 1; a self-test pins this down at first
use.  Length is the number of positive affine roots sent to negative
ones, computed in closed form per finite-root family.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, LogicError, ResourceError
from .root_datum import (
    Covector, IntVector, Matrix, RootDatum, build_root_datum, dot,
    mat_act, mat_identity, mat_inverse, mat_mul,
)

DEFAULT_BALL_CAP_LOW_RANK = 12
DEFAULT_BALL_CAP = 8


@dataclass(frozen=True)
class AffineWeylElement:
    """t^translation * finite, with the semidirect product group law."""

    translation: IntVector
    finite: Matrix

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        return multiply(self, other)

    def inverse(self) -> "AffineWeylElement":
        return inverse(self)


@dataclass(frozen=True)
class AffineRoot:
    """The affine function x -> <vector_part, x> + level."""

    vector_part: Covector
    level: int

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(tuple(-a for a in self.vector_part), -self.level)

    def __str__(self):
        if self.level == 0:
            return f"{self.vector_part}"
        sign = "+" if self.level > 0 else "-"
        return f"{self.vector_part}{sign}{abs(self.level)}"


def multiply(w1: AffineWeylElement, w2: AffineWeylElement) -> AffineWeylElement:
    """(t^a u)(t^b v) = t^{a + u(b)} uv."""
    moved = mat_act(w1.finite, w2.translation)
    return AffineWeylElement(
        tuple(x + y for x, y in zip(w1.translation, moved)),
        mat_mul(w1.finite, w2.finite),
    )


def inverse(w: AffineWeylElement) -> AffineWeylElement:
    uinv = mat_inverse(w.finite)
    return AffineWeylElement(tuple(-x for x in mat_act(uinv, w.translation)), uinv)


def conjugate(x: AffineWeylElement, w: AffineWeylElement) -> AffineWeylElement:
    """x w x^{-1}."""
    return multiply(multiply(x, w), inverse(x))


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
    """Length, affine simple reflections, kappa and ball enumeration.

    Doubles as the "ambient" context consumed by the reduction module:
    it exposes identity, simple_items(), length(), multiply and caches.
    """

    def __init__(self, datum: RootDatum, ball_cap: int | None = None):
        _orientation_self_test()
        self.datum = datum
        n = datum.rank
        if ball_cap is None:
            ball_cap = DEFAULT_BALL_CAP_LOW_RANK if n <= 2 else DEFAULT_BALL_CAP
        self.ball_cap = ball_cap
        self.identity = AffineWeylElement((0,) * n, mat_identity(n))
        self._tau = {a: (1 if datum.is_positive_root(a) else 0) for a in datum.roots}
        self._length_cache: dict[AffineWeylElement, int] = {}
        self._omega_cache: dict[IntVector, AffineWeylElement] = {}
        self._simples = self._build_simples()
        self._label_of = {w: lab for lab, w in self._simples}
        # caches and limits consumed by the reduction module
        self.parabolic_cap = datum.w0_order + 1
        self._class_cache: dict = {}
        self._triple_cache: dict = {}
        self._nf_cache: dict = {}
        # memos filled on demand by affine_word and sort_key
        self._word_cache: dict[AffineWeylElement, tuple[int, ...]] = {}
        self._sort_key_cache: dict[AffineWeylElement, tuple] = {}

    # -- basic constructors -------------------------------------------

    def translation(self, lam) -> AffineWeylElement:
        lam = tuple(lam)
        if any(Fraction(x).denominator != 1 for x in lam):
            raise InputError(f"translation {lam} is not in the cocharacter lattice")
        return AffineWeylElement(tuple(int(x) for x in lam), mat_identity(self.datum.rank))

    def finite_element(self, u: Matrix) -> AffineWeylElement:
        return AffineWeylElement((0,) * self.datum.rank, u)

    def reflection(self, a: AffineRoot) -> AffineWeylElement:
        """The element acting on affine roots as the reflection in a."""
        av = self.datum.coroot[a.vector_part]
        n = self.datum.rank
        s = tuple(
            tuple((1 if i == j else 0) - a.vector_part[j] * av[i] for j in range(n))
            for i in range(n)
        )
        return AffineWeylElement(tuple(a.level * c for c in av), s)

    # -- length --------------------------------------------------------

    def length(self, w: AffineWeylElement) -> int:
        """Inversion count, summed in closed form per root family.

        For the family of affine roots over alpha the image family sits
        over beta = u(alpha) with level shift c = <beta, lam>; levels at
        least tau(alpha) are positive, so exactly
        max(0, tau(beta) - c - tau(alpha)) of them land negative.
        """
        cached = self._length_cache.get(w)
        if cached is not None:
            return cached
        datum, tau = self.datum, self._tau
        lam = w.translation
        total = 0
        for alpha in datum.roots:
            beta = datum.act_covector(w.finite, alpha)
            c = dot(beta, lam)
            d = tau[beta] - c - tau[alpha]
            if d > 0:
                total += d
        self._length_cache[w] = total
        return total

    def finite_length(self, u: Matrix) -> int:
        return self.length(self.finite_element(u))

    # -- affine simple reflections --------------------------------------

    def _build_simples(self):
        datum = self.datum
        items = []
        for i, (a, av) in enumerate(zip(datum.simple_roots, datum.simple_coroots), start=1):
            items.append((i, self.reflection(AffineRoot(a, 0))))
        if datum.positive_roots:
            theta = max(datum.positive_roots,
                        key=lambda a: dot(a, datum.height_coweight))
            s0 = self.reflection(AffineRoot(theta, 1))
            if self.length(s0) != 1:
                raise LogicError("the affine wall reflection must have length 1")
            items.append((0, s0))
        if any(self.length(s) != 1 for _, s in items):
            raise LogicError("affine simple reflections must have length 1")
        return tuple(sorted(items))

    def simple_items(self) -> tuple[tuple[int, AffineWeylElement], ...]:
        """(label, reflection) pairs, ascending label; label 0 is the affine one."""
        return self._simples

    def simple_affine_reflections(self) -> list[AffineWeylElement]:
        """Finite simple reflections s1..sr first, then the affine s0."""
        finite = [s for lab, s in self._simples if lab != 0]
        extra = [s for lab, s in self._simples if lab == 0]
        return finite + extra

    def simple_label(self, s: AffineWeylElement) -> int:
        return self._label_of[s]

    # -- Omega ----------------------------------------------------------

    def kappa(self, w: AffineWeylElement) -> IntVector:
        """lam mod the coroot lattice, as a canonical coset representative."""
        return self.datum.kappa_label(w.translation)

    def omega_rep(self, label) -> AffineWeylElement:
        """The unique length-zero element with the given kappa."""
        label = self.datum.kappa_label(tuple(label))
        cached = self._omega_cache.get(label)
        if cached is not None:
            return cached
        w = self.translation(label)
        while self.length(w) > 0:
            for _, s in self._simples:
                sw = multiply(s, w)
                if self.length(sw) < self.length(w):
                    w = sw
                    break
            else:
                raise LogicError("descent must exist while length is positive")
        self._omega_cache[label] = w
        return w

    def wa_omega_split(self, w: AffineWeylElement):
        """w = (product of the affine word) * omega, both canonical."""
        omega = self.omega_rep(self.kappa(w))
        a = multiply(w, inverse(omega))
        word = self.affine_word(a)
        return word, omega

    def affine_word(self, a: AffineWeylElement) -> tuple[int, ...]:
        """Lex-least reduced word of a in the affine simple reflections.

        The word is greedy: the least descent label s of a, then the
        word of s a.  Every element met on that descent chain is
        memoised, so words of elements sharing a tail are not rederived.
        """
        memo = self._word_cache
        hit = memo.get(a)
        if hit is not None:
            return hit
        if self.kappa(a) != self.kappa(self.identity):
            raise InputError("affine words only exist for elements with trivial kappa")
        chain = []
        cur = a
        length = self.length(cur)
        while length > 0 and cur not in memo:
            for lab, s in self._simples:
                sw = multiply(s, cur)
                lsw = self.length(sw)
                if lsw < length:
                    chain.append((cur, lab))
                    cur, length = sw, lsw
                    break
            else:
                raise LogicError("descent must exist while length is positive")
        word = memo.get(cur)
        if word is None:
            if cur != self.identity:
                raise LogicError("word extraction must terminate at the identity")
            word = ()
        for elem, lab in reversed(chain):
            word = (lab,) + word
            memo[elem] = word
        return word

    def finite_word(self, u: Matrix) -> tuple[int, ...]:
        """Lex-least reduced word of u in the finite simple reflections."""
        word = []
        cur = u
        length = self.finite_length(cur)
        while length > 0:
            for i, s in enumerate(self.datum.simple_reflections, start=1):
                su = mat_mul(s, cur)
                lsu = self.finite_length(su)
                if lsu < length:
                    word.append(i)
                    cur, length = su, lsu
                    break
        return tuple(word)

    def sort_key(self, w: AffineWeylElement):
        key = self._sort_key_cache.get(w)
        if key is None:
            label = self.kappa(w)
            key = (self.length(w), label, self.affine_word(
                multiply(w, inverse(self.omega_rep(label)))))
            self._sort_key_cache[w] = key
        return key

    # thin delegations so this class satisfies the reduction-context
    # interface shared with the Levi sub-Iwahori-Weyl groups
    def finite_elements(self):
        return self.datum.weyl_elements

    def newton_index(self, w: AffineWeylElement):
        from .newton import newton_index
        return newton_index(self, w)

    def is_straight(self, w: AffineWeylElement) -> bool:
        from .newton import is_straight
        return is_straight(self, w)

    # -- ball enumeration -------------------------------------------------

    def enumerate_ball(self, max_length: int, omega_labels=None,
                       cap: int | None = None) -> list[AffineWeylElement]:
        """All w with length <= max_length and kappa among the given labels.

        omega_labels defaults to every label when Omega is finite and to
        the trivial one otherwise.  Deterministic canonical order.
        """
        cap = self.ball_cap if cap is None else cap
        if max_length > cap:
            raise ResourceError(
                f"ball of radius {max_length} exceeds the cap {cap}")
        if omega_labels is None:
            labels = self.datum.omega_labels()
            if labels is None:
                labels = ((0,) * self.datum.rank,)
        else:
            labels = tuple(self.datum.kappa_label(tuple(l)) for l in omega_labels)
        out = []
        for label in labels:
            start = self.omega_rep(label)
            seen = {start}
            frontier = [start]
            depth = 0
            out.append(start)
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


_SELF_TEST_DONE = False


def _orientation_self_test():
    """Pin the affine-root action orientation with the GL(5) witness."""
    global _SELF_TEST_DONE
    if _SELF_TEST_DONE:
        return
    _SELF_TEST_DONE = True
    datum = build_root_datum("GL", rank=5)
    # the permutation 1->3->2->1, 4<->5 acting as u(e_i) = e_{sigma(i)}
    sigma = {1: 3, 3: 2, 2: 1, 4: 5, 5: 4}
    u = tuple(
        tuple(1 if sigma[j + 1] == i + 1 else 0 for j in range(5))
        for i in range(5)
    )
    w = AffineWeylElement((1, 1, 0, 1, 0), u)
    a = AffineRoot((0, 0, -1, 1, 0), 0)          # e4 - e3
    image = act_on_affine_root(datum, w, a)
    expected = AffineRoot((0, -1, 0, 0, 1), -1)  # e5 - e2 - 1
    if image != expected or is_positive_affine_root(datum, image):
        raise LogicError("affine-root orientation self-test failed")


# -- element grammar ----------------------------------------------------

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def element_str(group: AffineWeylGroup, w: AffineWeylElement) -> str:
    """Canonical printed form: translation then finite word.

    >>> g = AffineWeylGroup(build_root_datum("A1"))
    >>> element_str(g, parse_element(g, "S1*S0*S1"))
    't[-1]*s1'
    """
    text = "t[" + ",".join(str(x) for x in w.translation) + "]"
    word = group.finite_word(w.finite)
    if word:
        text += "*" + "*".join(f"s{i}" for i in word)
    return text


def omega_label_str(label: IntVector) -> str:
    return "[" + ",".join(str(x) for x in label) + "]"


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
            val = Fraction(c)
            if val.denominator != 1:
                raise InputError(
                    f"translation coordinate {c!r} is not in the "
                    f"cocharacter lattice (production 'rational')")
            lam.append(int(val))
        rest = text[close + 1:]
        w = group.translation(lam)
        if rest:
            if not rest.startswith("*"):
                raise InputError("expected '*' before production 'finite_word'")
            w = multiply(w, _parse_finite_word(group, rest[1:]))
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


def _parse_finite_word(group, text: str) -> AffineWeylElement:
    if text == "e":
        return group.identity
    w = group.identity
    for item in text.split("*"):
        if not item.startswith("s") or not item[1:].isdigit():
            raise InputError(f"bad generator {item!r} (production 'finite_word')")
        i = int(item[1:])
        if not 1 <= i <= len(group.datum.simple_roots):
            raise InputError(f"finite index {i} out of range (production 'finite_word')")
        w = multiply(w, group.finite_element(group.datum.simple_reflections[i - 1]))
    return w


def _parse_affine_word(group, text: str) -> AffineWeylElement:
    if text == "E":
        return group.identity
    by_label = dict(group.simple_items())
    w = group.identity
    for item in text.split("*"):
        if not item.startswith("S") or not item[1:].isdigit():
            raise InputError(f"bad generator {item!r} (production 'affine_word')")
        lab = int(item[1:])
        if lab not in by_label:
            raise InputError(f"affine index {lab} out of range (production 'affine_word')")
        w = multiply(w, by_label[lab])
    return w


@lru_cache(maxsize=None)
def cached_group(kind: str, lattice: str = "sc") -> AffineWeylGroup:
    return AffineWeylGroup(build_root_datum(kind, lattice))
