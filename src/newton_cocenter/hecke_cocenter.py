"""The generic affine Hecke algebra and its cocenter normal forms.

Basis elements T_w are indexed by the extended affine Weyl group with
coefficients in Z[q]; the product is fixed by T_x T_s = T_{xs} when the
length goes up, T_x T_s = q T_{xs} + (q-1) T_x when it goes down, and
T_x T_omega = T_{x omega} for length-zero omega.

Modulo commutators, T_w only depends on mild moves: T_w = T_{sws} when
conjugation preserves length, and when it drops by two,

    T_w = T_s T_{sw} = T_{sw} T_s + [T_s, T_{sw}]
        = (q-1) T_{sw} + q T_{sws}   mod [H, H].

Iterating lands every class on its canonical minimal representative;
the resulting normal form realizes the cocenter on the span of the
tested elements, which the commutator and confluence suites verify.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .affine_weyl import AffineWeylElement, AffineWeylGroup, multiply, parse_element
from .errors import InputError, LogicError, ResourceError
from .levi_alcove import (
    LeviWeylGroup, levi_weyl_group, newton_index_map,
)
from .newton import NewtonIndex, newton_index, newton_point
from .reduction import _scan, canonical_class_rep, conj_step, is_min_in_class
from .root_datum import dot, mat_act


class QPoly:
    """Integer polynomials in q, stored as trimmed ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @classmethod
    def const(cls, n: int) -> "QPoly":
        return cls((n,))

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "QPoly":
        return cls((0,) * exp + (coeff,))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == QPoly.const(other).coeffs
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __neg__(self):
        return QPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPoly(out)

    def divexact(self, other: "QPoly") -> "QPoly":
        """Exact division; raises if the quotient is not in Z[q]."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return QPoly()
        rem = [Fraction(x) for x in self.coeffs]
        den = other.coeffs
        out = [Fraction(0)] * (len(rem) - len(den) + 1)
        for i in range(len(out) - 1, -1, -1):
            f = rem[i + len(den) - 1] / den[-1]
            out[i] = f
            for j, d in enumerate(den):
                rem[i + j] -= f * d
        if any(rem) or any(f.denominator != 1 for f in out):
            raise LogicError("inexact polynomial division")
        return QPoly(tuple(int(f) for f in out))

    def evaluate(self, x: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if e == 0:
                parts.append(f"{sign}{mag}")
            else:
                head = "" if mag == 1 else f"{mag}*"
                tail = "q" if e == 1 else f"q^{e}"
                parts.append(f"{sign}{head}{tail}")
        return "".join(parts)

    def __repr__(self):
        return f"QPoly({self})"


Q = QPoly((0, 1))
ONE = QPoly((1,))
Q_MINUS_1 = QPoly((-1, 1))

_MONOMIAL = re.compile(r"^([+-]?)(\d+)?(?:\*?q(?:\^(\d+))?)?$")


def parse_poly(text: str) -> QPoly:
    """Parse integer polynomials in q such as "q^2-1" or "-2*q+3"."""
    text = text.strip().replace(" ", "")
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text:
        raise InputError("empty polynomial (production 'poly')")
    chunks = re.findall(r"[+-]?[^+-]+|[+-](?=[+-])", text)
    if "".join(chunks) != text:
        raise InputError(f"cannot tokenize {text!r} (production 'poly')")
    result = QPoly()
    for chunk in chunks:
        m = _MONOMIAL.match(chunk)
        if not m or (m.group(2) is None and "q" not in chunk):
            raise InputError(f"bad monomial {chunk!r} (production 'poly')")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if "q" in chunk:
            exp = int(m.group(3)) if m.group(3) is not None else 1
        else:
            exp = 0
        result = result + QPoly.monomial(sign * coeff, exp)
    return result


class HeckeElement:
    """A finitely supported Z[q]-combination of basis elements T_w."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[AffineWeylElement, QPoly] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    @classmethod
    def basis(cls, w: AffineWeylElement, coeff: QPoly = ONE) -> "HeckeElement":
        return cls({w: coeff})

    @classmethod
    def zero(cls) -> "HeckeElement":
        return cls()

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, QPoly()) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return HeckeElement(out)

    def __sub__(self, other):
        return self + other.scale(QPoly.const(-1))

    def scale(self, c: QPoly) -> "HeckeElement":
        return HeckeElement({w: x * c for w, x in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def evaluate_q(self, x: int) -> dict[AffineWeylElement, int]:
        out = {}
        for w, c in self.terms.items():
            v = c.evaluate(x)
            if v:
                out[w] = v
        return out

    def __repr__(self):
        return f"HeckeElement({len(self.terms)} terms)"


def hecke_mul(group: AffineWeylGroup, f: HeckeElement, g: HeckeElement) -> HeckeElement:
    """Product in the Iwahori-Matsumoto basis."""
    simples = dict(group.simple_items())
    out = HeckeElement()
    for y, cy in sorted(g.terms.items(), key=lambda kv: group.sort_key(kv[0])):
        word, omega = group.wa_omega_split(y)
        part = dict(f.terms)
        for lab in word:
            part = _mul_by_generator(group, part, simples[lab])
        if omega != group.identity:
            part = {multiply(x, omega): c for x, c in part.items()}
        out = out + HeckeElement(part).scale(cy)
    return out


def _mul_by_generator(group, terms, s):
    out: dict[AffineWeylElement, QPoly] = {}

    def add(w, c):
        v = out.get(w, QPoly()) + c
        if v:
            out[w] = v
        else:
            out.pop(w, None)

    for x, c in terms.items():
        xs = multiply(x, s)
        if group.length(xs) > group.length(x):
            add(xs, c)
        else:
            add(xs, c * Q)
            add(x, c * Q_MINUS_1)
    return out


class CocenterNormalForm:
    """A cocenter element written on canonical minimal representatives."""

    __slots__ = ("group", "terms")

    def __init__(self, group: AffineWeylGroup, terms):
        self.group = group
        self.terms: dict[AffineWeylElement, QPoly] = {
            w: c for w, c in terms.items() if c}

    def components(self) -> dict[NewtonIndex, HeckeElement]:
        split: dict[NewtonIndex, dict] = {}
        for w, c in self.terms.items():
            split.setdefault(newton_index(self.group, w), {})[w] = c
        return {nu: HeckeElement(t)
                for nu, t in sorted(split.items(), key=lambda kv: kv[0].sort_key())}

    def component(self, nu: NewtonIndex) -> HeckeElement:
        return self.components().get(nu, HeckeElement.zero())

    def __eq__(self, other):
        return isinstance(other, CocenterNormalForm) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def evaluate_q(self, x: int):
        return HeckeElement(self.terms).evaluate_q(x)


class StoredNormalForms:
    """Normal forms read from a disk cache, each trusted only once checked.

    The entries stay text until `_nf_basis` first needs their element:
    the keys are parsed then, and an entry is parsed and checked when
    its element is reached, so a call that computes few normal forms
    does not pay for the whole file.  An entry is dropped, and counted
    in `dropped`, when it does not parse, when its q = 1 specialisation
    is not {canonical_class_rep(w): 1}, or when its support leaves the
    kappa coset of w.  Other edits are not detected.
    """

    def __init__(self, group: AffineWeylGroup, forms: dict):
        self.group = group
        self.forms = forms      # element text -> {element text: poly text}, unread
        self.dropped = 0
        self._keys: dict | None = None

    def take(self, w: AffineWeylElement) -> dict | None:
        """The checked normal form of w, if one is stored; it leaves `forms`."""
        group = self.group
        if self._keys is None:
            self._keys = {}
            for text in list(self.forms):
                try:
                    self._keys[parse_element(group, text)] = text
                except (InputError, AttributeError, TypeError):
                    del self.forms[text]
                    self.dropped += 1
        text = self._keys.pop(w, None)
        if text is None:
            return None
        terms = self.forms.pop(text)
        try:
            nf = {parse_element(group, k): parse_poly(c) for k, c in terms.items()}
        except (InputError, AttributeError, TypeError):
            self.dropped += 1
            return None
        if HeckeElement(nf).evaluate_q(1) != {canonical_class_rep(group, w): 1} or \
                any(group.kappa(k) != group.kappa(w) for k in nf):
            self.dropped += 1
            return None
        return nf


def _nf_basis(group: AffineWeylGroup, w: AffineWeylElement) -> dict:
    """Normal form of a single T_w, memoized per conjugacy class.

    Minimal elements map to the canonical representative of their full
    conjugacy class: identifying minimal representatives across the
    orbits of the elementary moves is exactly what makes commutators
    reduce to zero (the identification holds in the cocenter with q
    generically invertible, and every coefficient emitted here stays in
    Z[q]).  A non-minimal w combines the forms of s y and s y s for the
    first lowering move at y; those are resolved depth-first on an
    explicit stack (s y before s y s), since the chain of descents is
    as long as the input.  Forms stored from a disk cache
    (`group._nf_stored`) are checked and used before computing.
    """
    cache = group._nf_cache
    stored = group._nf_stored
    pending: dict[AffineWeylElement, tuple] = {}
    stack = [w]
    while stack:
        cur = stack[-1]
        if cur in cache:
            stack.pop()
            continue
        frame = pending.get(cur)
        if frame is None:
            nf = stored.take(cur) if stored is not None else None
            if nf is not None:
                cache[cur] = nf
                stack.pop()
                continue
            if is_min_in_class(group, cur):
                cache[cur] = {canonical_class_rep(group, cur): ONE}
                stack.pop()
                continue
            frame = pending[cur] = _lowering_move(group, cur)
        parents, sy, z = frame
        if sy not in cache:
            stack.append(sy)
            continue
        if z not in cache:
            stack.append(z)
            continue
        result: dict[AffineWeylElement, QPoly] = {}
        for rep, c in cache[sy].items():
            result[rep] = result.get(rep, QPoly()) + c * Q_MINUS_1
        for rep, c in cache[z].items():
            result[rep] = result.get(rep, QPoly()) + c * Q
        result = {rep: c for rep, c in result.items() if c}
        for elem in parents:
            cache[elem] = result
        del pending[cur]
        stack.pop()
    return cache[w]


def _lowering_move(group, w):
    """(length-preserving orbit of w, s y, s y s) for the first lowering
    move s y s of the orbit."""
    parents, descent = _scan(group, w)
    if descent is None:
        raise LogicError("non-minimal element must admit a lowering move")
    y, label, z = descent
    s = dict(group.simple_items())[label]
    sy = multiply(s, y)
    if group.length(sy) != group.length(y) - 1:
        raise LogicError("lowering moves must factor through a one-step descent")
    return parents, sy, z


def cocenter_reduce(group: AffineWeylGroup, f: HeckeElement) -> CocenterNormalForm:
    """Rewrite f modulo commutators onto canonical minimal classes."""
    out: dict[AffineWeylElement, QPoly] = {}
    for w, c in f.terms.items():
        for rep, x in _nf_basis(group, w).items():
            s = out.get(rep, QPoly()) + c * x
            if s:
                out[rep] = s
            else:
                out.pop(rep, None)
    return CocenterNormalForm(group, out)


def cocenter_reduce_randomized(group: AffineWeylGroup, f: HeckeElement,
                               rng: random.Random,
                               max_steps: int = 10000) -> CocenterNormalForm:
    """Reduce with randomly scheduled rewrite moves; used to check that
    the normal form does not depend on the rewriting strategy.  Running
    out of max_steps raises ResourceError rather than finishing by the
    deterministic strategy, which would make that check vacuous."""
    terms = dict(f.terms)
    steps = 0
    while steps < max_steps:
        steps += 1
        pending = []
        for w in terms:
            if not is_min_in_class(group, w) or w != canonical_class_rep(group, w):
                pending.append(w)
        if not pending:
            return CocenterNormalForm(group, terms)
        pending.sort(key=group.sort_key)
        w = pending[rng.randrange(len(pending))]
        c = terms.pop(w)

        def add(x, p):
            s = terms.get(x, QPoly()) + p
            if s:
                terms[x] = s
            else:
                terms.pop(x, None)

        if is_min_in_class(group, w):
            add(canonical_class_rep(group, w), c)
            continue
        moves = []
        for lab, _ in group.simple_items():
            kind, z = conj_step(group, w, lab)
            if kind == "down":
                moves.append(("down", lab, z))
            elif kind == "equal" and z != w:
                moves.append(("equal", lab, z))
        kind, lab, z = moves[rng.randrange(len(moves))]
        if kind == "equal":
            add(z, c)
        else:
            s = dict(group.simple_items())[lab]
            sw = multiply(s, w)
            add(sw, c * Q_MINUS_1)
            add(z, c * Q)
    raise ResourceError(
        f"randomized reduction did not finish within {max_steps} steps")


def newton_component(nf: CocenterNormalForm, nu: NewtonIndex) -> HeckeElement:
    return nf.component(nu)


def induce(group: AffineWeylGroup, m: LeviWeylGroup, f: HeckeElement,
           nu_m: NewtonIndex) -> CocenterNormalForm:
    """Push a Levi cocenter element into the ambient cocenter.

    Every support key must lie in W(M), be M-minimal, and carry the
    M-Newton index nu_m; each T^M_w is then sent to the ambient normal
    form of T_w.  The image must live in the single Newton component
    that nu_m maps to; a key that is far from ambient-minimal can have
    an Iwahori class meeting several Newton strata, in which case this
    basis-level shadow of the induction map is not faithful and the
    call is refused.
    """
    target = newton_index_map(group, m, nu_m)
    for w in f.terms:
        if not m.is_member(w):
            raise InputError("induce: support must lie in the Levi subgroup")
        if m.newton_index(w) != nu_m:
            raise InputError("induce: support must be in the nu_m fiber")
        if not is_min_in_class(m, w):
            raise InputError("induce: support keys must be M-minimal")
    nf = cocenter_reduce(group, f)
    for nu in nf.components():
        if nu != target:
            raise InputError(
                f"induce: image met component {nu} besides {target}; the "
                f"support is not contained in one ambient Newton stratum")
    return nf


@dataclass(frozen=True)
class RigidRow:
    nu: NewtonIndex
    levi_label: str
    class_count: int
    covered: bool


def _levi_label(group: AffineWeylGroup, m: LeviWeylGroup) -> str:
    if len(m._phi_m) == len(group.datum.roots):
        return "G"
    if not m._phi_m:
        return "T"
    idx = [str(i) for i, a in enumerate(group.datum.simple_roots, start=1)
           if a in set(m._phi_m)]
    return "M{" + ",".join(idx) + "}"


def rigid_decomposition(group: AffineWeylGroup, max_length: int,
                        omega_labels=None) -> list[RigidRow]:
    """Cover each Newton component of the length ball from the Levi
    attached to its dominant coweight.

    For a canonical minimal representative x the witness chain is: its
    finite part fixes nu_x, so x lies in the Levi of nu_x (a conjugate
    of the component's standard Levi), where it is M-minimal and its
    M-index maps to the component; inducing T^M_x back returns exactly
    T_x.  `covered` records that every representative admits this chain.
    """
    ball = group.enumerate_ball(max_length, omega_labels)
    fibers: dict[NewtonIndex, set] = {}
    for w in ball:
        rep = canonical_class_rep(group, w)
        fibers.setdefault(newton_index(group, rep), set()).add(rep)
    rows = []
    for nu in sorted(fibers, key=NewtonIndex.sort_key):
        v = nu.nu_bar
        m = levi_weyl_group(group, v)
        if any(dot(a, v) != 0 for a in m._phi_m):
            raise LogicError("the dominant coweight must be central in its Levi")
        covered = all(_covers(group, nu, x) for x in sorted(fibers[nu],
                                                            key=group.sort_key))
        rows.append(RigidRow(nu, _levi_label(group, m), len(fibers[nu]), covered))
    return rows


def _covers(group: AffineWeylGroup, nu: NewtonIndex, x: AffineWeylElement) -> bool:
    nux = newton_point(group, x)
    if tuple(mat_act(x.finite, nux)) != nux:
        return False
    mx = levi_weyl_group(group, nux)
    if not mx.is_member(x) or not is_min_in_class(mx, x):
        return False
    nu_m = mx.newton_index(x)
    if newton_index_map(group, mx, nu_m) != nu:
        return False
    nf = induce(group, mx, HeckeElement.basis(x), nu_m)
    return nf.terms == {x: ONE}


def fraction_free_rank(rows: list[list[QPoly]]) -> int:
    """Rank of a matrix over Z[q] by Bareiss elimination.

    Provided as a refutation oracle for claimed linear identities among
    reduced commutators; it never proves independence of the cocenter
    basis, only exposes nonzero residue spans.
    """
    if not rows:
        return 0
    m = [list(r) for r in rows]
    ncols = len(m[0])
    prev = ONE
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) \
                    .divexact(prev)
            m[r][col] = QPoly()
        prev = m[rank][col]
        rank += 1
    return rank
