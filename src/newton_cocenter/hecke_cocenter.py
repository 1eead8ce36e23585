"""The generic affine Hecke algebra and its cocenter normal forms.

Basis elements T_w are indexed by the extended affine Weyl group with
coefficients in Z[q]; the product is fixed by T_x T_s = T_{xs} when the
length goes up, T_x T_s = q T_{xs} + (q-1) T_x when it goes down, and
T_x T_omega = T_{x omega} for length-zero omega.

Modulo commutators, T_w only depends on mild moves: T_w = T_{sws} when
conjugation preserves length, and when it drops by two,

    T_w = T_s T_{sw} = T_{sw} T_s + [T_s, T_{sw}]
        = (q-1) T_{sw} + q T_{sws}   mod [H, H].

Iterating, longest element first, lands every class on its canonical
minimal representative; the resulting normal form, a `HeckeElement` on
those representatives that `newton_components` splits by Newton index,
realizes the cocenter on the span of the tested elements, which the
commutator and confluence suites verify.

Each rewrite step multiplies coefficients by q or by q-1 and adds
them, so a coefficient is q^e times one int, its other factor evaluated
at q = 2^B (`QPoly`): the steps are C-level shifts, subtractions and
additions, exact at any coefficient size.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple

from .affine_weyl import (
    AffineWeylElement, AffineWeylGroup, multiply,
)
from .errors import InputError, LogicError, ResourceError
from .levi_alcove import LeviWeylGroup, levi_weyl_group, phi_plus
from .newton import NewtonIndex, newton_point, strata
from .reduction import canonical_class_rep, conj_step, is_min_in_class, lowering_move


class QPoly:
    """An integer polynomial in q, kept as q^valuation * P(q) with P(0) != 0.

    P is one int, P(2^width) (Kronecker substitution), in balanced
    digits: every coefficient c of P has |c| <= bound < 2^(width-1), so
    the digits read back exactly and q p, (q-1) p and p + p' are one
    shift, subtraction or addition of ints.  The valuation keeps the
    zero low coefficients out of P: q^a - q^(a-1) is two digits.  Every
    operation tracks the bound of its result; one that could reach
    2^(width-1) first takes its operands' exact bounds from their digits
    and, if those do not fit either, re-encodes them at a doubled width,
    so no digit overflows whatever the coefficients.  `coeffs` is the
    dense ascending view; zero is P = 0 at valuation 0.
    """

    __slots__ = ("valuation", "packed", "width", "bound")

    def __init__(self, coeffs=()):
        digits = list(coeffs)
        e = next((i for i, c in enumerate(digits) if c), len(digits))
        digits = digits[e:]
        self.bound = max(map(abs, digits), default=0)
        self.width = _width(self.bound)
        self.packed = _encode(digits, self.width)
        self.valuation = e if self.packed else 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        if not self.packed:
            return ()
        return (0,) * self.valuation + tuple(_digits(self))

    @classmethod
    def const(cls, n: int) -> "QPoly":
        return cls((n,))

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "QPoly":
        if not coeff:
            return cls()
        return _poly(exp, coeff, _width(abs(coeff)), abs(coeff))

    def __bool__(self):
        return bool(self.packed)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        elif not isinstance(other, QPoly):
            return False
        if self.valuation != other.valuation:
            return False
        if self.width == other.width:
            return self.packed == other.packed
        return _digits(self) == _digits(other)

    def __hash__(self):
        return hash((self.valuation, tuple(_digits(self))))

    def __add__(self, other):
        if not other.packed:
            return self
        if not self.packed:
            return other
        w, bound = self.width, self.bound + other.bound
        if other.width == w and not bound >> (w - 1):
            a, b = self.packed, other.packed
        else:
            w, bound, a, b = _refit(lambda x, y: x + y, self, other)
        ea, eb = self.valuation, other.valuation
        if ea > eb:
            a <<= w * (ea - eb)
        elif eb > ea:
            b <<= w * (eb - ea)
        s = a + b
        if not s:
            return ZERO
        # the lowest nonzero digit, below 2^(w-1), ends in fewer than w - 1 zero bits
        k = ((s & -s).bit_length() - 1) // w
        return _poly(min(ea, eb) + k, s >> w * k, w, bound)

    def __neg__(self):
        return _poly(self.valuation, -self.packed, self.width, self.bound)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        a, b = self.packed, other.packed
        if not a or not b:
            return ZERO
        e = self.valuation + other.valuation
        if a == 1:  # q^e times other
            return _poly(e, b, other.width, other.bound)
        w, bound = self.width, self.bound
        if b == 1:  # times q^e'
            return _poly(e, a, w, bound)
        if not other.valuation and b == (1 << other.width) - 1:  # times q - 1
            bound *= 2
            if bound >> (w - 1):
                w, bound, a = _refit(lambda x: 2 * x, self)
            return _poly(e, (a << w) - a, w, bound)
        n = min(abs(a).bit_length() // w, abs(b).bit_length() // other.width) + 1
        bound *= other.bound * n
        if other.width != w or bound >> (w - 1):
            w, bound, a, b = _refit(lambda x, y: x * y * n, self, other)
        return _poly(e, a * b, w, bound)

    def evaluate(self, x: int) -> int:
        total = 0
        for c in reversed(_digits(self)):
            total = total * x + c
        return total * x ** self.valuation

    def __str__(self):
        parts = []
        for e, c in reversed(list(enumerate(_digits(self), self.valuation))):
            if not c:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if e == 0:
                parts.append(f"{sign}{mag}")
            else:
                head = "" if mag == 1 else f"{mag}*"
                tail = "q" if e == 1 else f"q^{e}"
                parts.append(f"{sign}{head}{tail}")
        return "".join(parts) or "0"

    def __repr__(self):
        return f"QPoly({self})"


def _poly(valuation: int, packed: int, width: int, bound: int) -> QPoly:
    p = object.__new__(QPoly)
    p.valuation, p.packed, p.width, p.bound = valuation, packed, width, bound
    return p


def _width(bound: int, width: int = 24) -> int:
    """The least width in 24, 48, 96, ..., at least `width`, whose
    balanced digits hold coefficients of absolute value <= bound."""
    while bound >> (width - 1):
        width *= 2
    return width


def _digits(p: QPoly) -> list[int]:
    """The coefficients of P, ascending, read off its balanced digits."""
    x, w = p.packed, p.width
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        x = (x - d) >> w
    return out


def _encode(digits, width: int) -> int:
    x = 0
    for c in reversed(digits):
        x = (x << width) + c
    return x


def _refit(need, *polys):
    """(width, bound, packed ints) for an operation on polys whose result
    has coefficients of absolute value <= need(*bounds): the bounds are
    read exactly off the digits, and the width is the least one that
    holds the result and is no narrower than any operand's."""
    digits = [_digits(p) for p in polys]
    bound = need(*(max(map(abs, d), default=0) for d in digits))
    width = _width(bound, max(p.width for p in polys))
    return (width, bound, *(p.packed if p.width == width else _encode(d, width)
                            for p, d in zip(polys, digits)))


ZERO = QPoly()
Q = QPoly((0, 1))
ONE = QPoly((1,))
Q_MINUS_1 = QPoly((-1, 1))


def _add_term(terms: dict, key, c: QPoly) -> None:
    """terms[key] += c in Z[q], dropping key when the sum is zero."""
    s = terms.get(key)
    s = c if s is None else s + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


_MONOMIAL = re.compile(r"^([+-]?)(\d+)?(?:\*?q(?:\^(\d+))?)?$")
# far above any degree a normal form reaches, far below a polynomial
# whose packed digits (a sum with a low term keeps every one up to the
# degree) would exhaust memory
_MAX_EXPONENT = 10 ** 6


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
        try:
            coeff = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError as exc:  # more digits than int() reads
            raise InputError(f"bad coefficient (production 'poly'): {exc}") from exc
        if "q" in chunk:
            digits = (m.group(3) or "1").lstrip("0") or "0"
            # the digit count comes first: int() refuses very long strings
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
                raise InputError(
                    f"exponent of {chunk!r} exceeds {_MAX_EXPONENT} (production 'poly')")
            exp = int(digits)
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
            _add_term(out, w, c)
        return HeckeElement(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, -c)
        return HeckeElement(out)

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
    """Product in the Iwahori-Matsumoto basis, bilinear over the basis
    products T_x T_y of `_basis_product`, which are memoised per context."""
    out: dict[AffineWeylElement, QPoly] = {}
    for y, cy in g.terms.items():
        for x, cx in f.terms.items():
            for z, cz in _basis_product(group, x, y).items():
                _add_term(out, z, cx * cy * cz)
    return HeckeElement(out)


def _basis_product(group, x, y):
    """T_x T_y, memoised by (x, y) in `group.hecke_products` (never handed
    out to mutate): T_{xy} for y of length zero, else (T_x T_{y'}) T_s for
    y = y' s, s the least right descent of y, walked down to a memo hit
    without a word and back up one wall at a time, memoising each prefix."""
    memo, chain = group.hecke_products, []
    while (x, y) not in memo:
        if (s := group.least_right_descent(y)) is None:
            memo[x, y] = {multiply(x, y): ONE}
            break
        chain.append((y, s))
        y = group.times_wall(y, s)
    terms = memo[x, y]
    for y, s in reversed(chain):
        terms = memo[x, y] = _mul_by_generator(group, terms, s)
    return terms


def _mul_by_generator(group, terms, label):
    out: dict[AffineWeylElement, QPoly] = {}
    for x, c in terms.items():
        xs = group.times_wall(x, label)
        if not group.is_right_descent(x, label):
            _add_term(out, xs, c)
        else:
            _add_term(out, xs, c * Q)
            _add_term(out, x, c * Q_MINUS_1)
    return out


def newton_components(group: AffineWeylGroup,
                      f: HeckeElement) -> dict[NewtonIndex, HeckeElement]:
    """f split by the Newton index, in `group`, of its support, in index
    order: the components of a cocenter normal form."""
    split: dict[NewtonIndex, dict] = {}
    for w, c in f.terms.items():
        split.setdefault(group.newton_index(w), {})[w] = c
    return {nu: HeckeElement(t)
            for nu, t in sorted(split.items(), key=lambda kv: kv[0].sort_key())}


def _normal_form(group: AffineWeylGroup, w: AffineWeylElement) -> dict:
    """The normal form of T_w, by one work-list, longest element first.

    Minimal elements map to the canonical representative of their full
    conjugacy class: identifying minimal representatives across the
    orbits of the elementary moves is exactly what makes commutators
    reduce to zero (the identification holds in the cocenter with q
    generically invertible, and every coefficient emitted here stays in
    Z[q]).  A non-minimal element passes (q-1) c to s y and q c to
    s y s; both are shorter, so each element is popped once, with its
    coefficient summed over every path to it.  Ties go by the element
    itself, so no word is built.
    """
    from heapq import heappop, heappush

    coeffs, heap, out = {w: ONE}, [(-group.length(w), w)], {}
    while heap:
        cur = heappop(heap)[1]
        c = coeffs.pop(cur, None)
        if c is None:  # its coefficient summed to zero
            continue
        step = group.nf_steps.get(cur) or _rewrite_step(group, cur)
        if len(step) == 1:
            _add_term(out, step[0], c)
            continue
        for target, x in zip(step, (c * Q_MINUS_1, c * Q)):
            if target not in coeffs:
                heappush(heap, (-group.length(target), target))
            _add_term(coeffs, target, x)
    return out


def _rewrite_step(group, w):
    """(class representative,) for a minimal w, else (s y, s y s) for the
    first lowering move s y s of its length-preserving orbit; memoised in
    `group.nf_steps`, for every member of that orbit."""
    move = lowering_move(group, w)
    if move is None:
        return group.nf_steps.setdefault(w, (canonical_class_rep(group, w),))
    parents, (y, label, z) = move
    sy = group.wall_times(label, y)
    if group.length(sy) != group.length(y) - 1:
        raise LogicError("lowering moves must factor through a one-step descent")
    step = (sy, z)
    group.nf_steps.update(dict.fromkeys(parents, step))
    return step


def cocenter_reduce(group: AffineWeylGroup, f: HeckeElement) -> HeckeElement:
    """Rewrite f modulo commutators onto canonical minimal classes; the
    form of each basis element of f is memoised in `group.nf_cache`."""
    return HeckeElement(_add_forms(group, {}, f.terms))


def commutator_form(group: AffineWeylGroup, x: AffineWeylElement,
                    y: AffineWeylElement) -> dict[AffineWeylElement, QPoly]:
    """The normal form of T_x T_y - T_y T_x, as {representative: coefficient}:
    both basis products, reduced term by term into one dict."""
    return _add_forms(group, _add_forms(group, {}, _basis_product(group, x, y)),
                      _basis_product(group, y, x), negate=True)


def _add_forms(group, out, terms, negate=False):
    """out += (or -=, if negate) the sum of c NF(T_w) over terms {w: c},
    each form memoised in `group.nf_cache`; returns out."""
    cache = group.nf_cache
    for w, c in terms.items():
        form = cache.get(w)
        if form is None:
            form = cache[w] = _normal_form(group, w)
        for rep, x in form.items():
            _add_term(out, rep, -(c * x) if negate else c * x)
    return out


def cocenter_reduce_randomized(group: AffineWeylGroup, f: HeckeElement,
                               rng: random.Random,
                               max_steps: int = 10000) -> HeckeElement:
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
            return HeckeElement(terms)
        pending = list(group.canonical_order(pending))
        w = pending[rng.randrange(len(pending))]
        c = terms.pop(w)
        if is_min_in_class(group, w):
            _add_term(terms, canonical_class_rep(group, w), c)
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
            _add_term(terms, z, c)
        else:
            _add_term(terms, group.wall_times(lab, w), c * Q_MINUS_1)
            _add_term(terms, z, c * Q)
    raise ResourceError(
        f"randomized reduction did not finish within {max_steps} steps")


def induce(group: AffineWeylGroup, m: LeviWeylGroup, f: HeckeElement) -> HeckeElement:
    """Push a nonzero Levi cocenter element into the ambient cocenter.

    Every support key must lie in W(M), checked first, be M-minimal,
    carry one M-Newton index nu_m, that of the first key in M's
    canonical order, and lie in the map's domain: M contains the
    centraliser of its Newton point.  Each T^M_w is then sent to the
    ambient normal form of T_w.  The image must live in the single
    Newton component that nu_m maps to; a key that is far from
    ambient-minimal can have an Iwahori class meeting several Newton
    strata, in which case this basis-level shadow of the induction map
    is not faithful and the call is refused.
    """
    if not f.terms:
        raise InputError("induce needs a nonzero element")
    if not all(map(m.is_member, f.terms)):
        raise InputError("induce: support must lie in the Levi subgroup")
    nu_m = m.newton_index(next(m.canonical_order(f.terms)))
    target = group.index_of(nu_m.omega, nu_m.nu_bar)
    off_m = set(group.phi_m).difference(m.phi_m)
    for w in f.terms:
        if m.newton_index(w) != nu_m:
            raise InputError("induce: support must be in the nu_m fiber")
        if not is_min_in_class(m, w):
            raise InputError("induce: support keys must be M-minimal")
        # nu vanishes on no root +-a off M iff it is positive on half of them
        if len(off_m) != 2 * len(off_m.intersection(phi_plus(group, newton_point(group, w)))):
            raise InputError("induce: M must contain the centraliser of each key's Newton point")
    nf = cocenter_reduce(group, f)
    for nu in newton_components(group, nf):
        if nu != target:
            raise InputError(
                f"induce: image met component {nu} besides {target}; the "
                f"support is not contained in one ambient Newton stratum")
    return nf


RigidRow = namedtuple("RigidRow", "nu levi_label class_count covered")


def _levi_label(group: AffineWeylGroup, m: LeviWeylGroup) -> str:
    if len(m.phi_m) == len(group.datum.roots):
        return "G"
    if not m.phi_m:
        return "T"
    idx = [str(i) for i, a in enumerate(group.datum.simple_roots, start=1)
           if a in m.phi_m]
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
    rows = []
    for nu, fiber in strata(group, max_length, omega_labels).items():
        reps = {canonical_class_rep(group, w) for w in fiber}
        m = levi_weyl_group(group, nu.nu_bar)
        covered = all(_covers(group, nu, x) for x in reps)
        rows.append(RigidRow(nu, _levi_label(group, m), len(reps), covered))
    return rows


def _covers(group: AffineWeylGroup, nu: NewtonIndex, x: AffineWeylElement) -> bool:
    mx = levi_weyl_group(group, newton_point(group, x))
    if not mx.is_member(x) or not is_min_in_class(mx, x):
        return False
    nu_m = mx.newton_index(x)
    if group.index_of(nu_m.omega, nu_m.nu_bar) != nu:
        return False
    nf = induce(group, mx, HeckeElement.basis(x))
    return nf.terms == {x: ONE}

