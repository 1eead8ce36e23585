"""Split root data in exact integer arithmetic.

The cocharacter lattice is identified with Z^rank once and for all: the
basis is the simple coroots for the simply connected variant, the
fundamental coweights for the adjoint variant, and the standard basis
of Z^n for GL(n).  Roots are integer covectors, a coweight is a
`Coweight` (an integer vector over its least common denominator), and
the pairing is the plain dot product, so every computation downstream
is exact integer arithmetic.  No floating point anywhere.
"""

from __future__ import annotations

import weakref
from itertools import product
from math import gcd, lcm, prod
from operator import attrgetter, ge, gt, itemgetter, le, lt, mul

from .errors import ConfigurationError, LogicError

Covector = tuple[int, ...]
IntVector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

# Pairing matrices P[i][j] = <alpha_i, alpha_j^vee> for the supported
# simple types (rows index simple roots, columns simple coroots).
_PAIRING = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "C2": ((2, -1), (-2, 2)),
    "G2": ((2, -1), (-3, 2)),
}

_MAX_GL_RANK = 5


def _by_value(op):
    """op on coweights x / d and y / e by value: as e x and d y."""
    def compare(self, other):
        if type(other) is not Coweight:
            # not NotImplemented: a plain tuple would then compare as a tuple
            raise TypeError(f"cannot order a Coweight and a {type(other).__name__}")
        (d, x), (e, y) = self, other
        return op([c * e for c in x], [c * d for c in y])
    return compare


class Coweight(tuple):
    """The rational coweight x / d, held as the pair (d, x) of its least
    common denominator d > 0 and the integer vector x.  Equal coweights
    are equal pairs, so they compare and hash as tuples do, in C; the
    order comparisons are by value, lexicographic on the coordinates.
    Zip over a `Coweight` meets d and x, not the coordinates.
    """

    __slots__ = ()

    def __new__(cls, d: int, x):
        if d <= 0:
            raise LogicError(f"the denominator of a coweight must be positive, got {d}")
        x = tuple(x)
        g = gcd(d, *x)
        if g != 1:
            d, x = d // g, tuple([c // g for c in x])
        return tuple.__new__(cls, (d, x))

    d = property(itemgetter(0))
    x = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    __lt__ = _by_value(lt)
    __le__ = _by_value(le)
    __gt__ = _by_value(gt)
    __ge__ = _by_value(ge)

    def strs(self) -> list[str]:
        """The coordinates as "p/q" strings, or "p" when integral."""
        d, out = self[0], []
        for c in self[1]:
            g = gcd(c, d)
            out.append(str(c // g) if g == d else f"{c // g}/{d // g}")
        return out

    def __repr__(self):
        return f"Coweight({self[0]}, {self[1]})"


def coweight(coords) -> Coweight:
    """The coweight with these coordinates, ints or rationals."""
    coords = list(coords)
    d = lcm(*[c.denominator for c in coords])
    return Coweight(d, [c.numerator * (d // c.denominator) for c in coords])


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product, for W0 elements not interned in a live datum."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_act(u: Matrix, x: IntVector) -> IntVector:
    """Apply the integer matrix u to an integer vector: u(x / d) = u(x) / d."""
    return tuple([sum(map(mul, row, x)) for row in u])


def integer_inverse(u) -> tuple[int, Matrix]:
    """(d, a) with u^{-1} = a / d and d > 0 least, for an invertible
    integer matrix u: fraction-free Gauss-Jordan elimination (Bareiss),
    whose every division is exact, ends on det(u) I | det(u) u^{-1}.
    A singular u, which leaves a column without a pivot, is a LogicError."""
    n = len(u)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(u)]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise LogicError(f"the matrix {u} is singular")
        m[col], m[piv] = m[piv], m[col]
        p = m[col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(p[col] * x - f * y) // det for x, y in zip(m[r], p)]
        det = p[col]
    g = gcd(det, *[x for row in m for x in row[n:]])
    g = g if det > 0 else -g
    return det // g, tuple(tuple([x // g for x in row[n:]]) for row in m)


def dot(a: Covector, x: IntVector) -> int:
    """Plain dot product: <a, x / d> is dot(a, x) / d."""
    return sum(map(mul, a, x))


def hnf_columns(generators) -> list[tuple[int, list[int]]]:
    """Column Hermite form of an integer lattice.

    Returns [(pivot_row, column), ...] with strictly increasing pivot
    rows, positive pivots, and zeros at earlier pivot rows, which is
    exactly what coset reduction needs.
    """
    if not generators:
        return []
    n = len(generators[0])
    cols = [list(g) for g in generators if any(g)]
    result = []
    for row in range(n):
        active = [c for c in cols if c[row] != 0]
        rest = [c for c in cols if c[row] == 0]
        if not active:
            cols = rest
            continue
        while len(active) > 1:
            active.sort(key=lambda c: abs(c[row]))
            base = active[0]
            survivors = [base]
            for c in active[1:]:
                q = c[row] // base[row]
                for i in range(n):
                    c[i] -= q * base[i]
                if c[row] != 0:
                    survivors.append(c)
                elif any(c):
                    # zeroed at this row but still a generator below it
                    rest.append(c)
            active = survivors
        pivot = active[0]
        if pivot[row] < 0:
            pivot = [-x for x in pivot]
        result.append((row, pivot))
        cols = rest
    return result


def coset_reduce(v: IntVector, hnf: list[tuple[int, list[int]]]) -> IntVector:
    """Canonical representative of v modulo the lattice in Hermite form."""
    w = list(v)
    for row, col in hnf:
        q = w[row] // col[row]
        if q:
            for i in range(len(w)):
                w[i] -= q * col[i]
    return tuple(w)


def _reflect(x, a, av):
    """x - <a, x> av: a reflection applied to a vector."""
    c = dot(a, x)
    return tuple([xi - c * vi for xi, vi in zip(x, av)]) if c else x


def dominant_walk(datum: "RootDatum", x, walls) -> tuple[list[int], Matrix]:
    """Reflect the integer vector x in the first wall it pairs negatively
    with, until it pairs nonnegatively with every wall; return it with
    the product u of the reflections, so that u(x) is the result.

    walls are (root, coroot, reflection) triples, and u is tracked by
    table lookup.  A coweight x / d is walked as its integer vector x:
    the walk commutes with the scaling, and d is still the least common
    denominator of the result, since W0 acts by integer matrices with
    integer inverses.
    """
    u = datum.weyl_identity
    while True:
        for a, av, s in walls:
            c = dot(a, x)
            if c < 0:
                x = [xi - c * wi for xi, wi in zip(x, av)]
                u = datum.product(s, u)
                break
        else:
            return x, u


class WeylElement(tuple):
    """An element of W0 interned in its root datum.

    It is the plain matrix (a tuple of integer rows), so it compares and
    hashes equal to it, and it carries its index into the tables of the
    datum that owns it.  The datum is held by a weak reference: a strong
    one would make every datum a reference cycle, freed only by the
    cyclic garbage collector instead of when its group goes away.
    """

    def __new__(cls, rows, datum: "RootDatum", index: int):
        self = super().__new__(cls, rows)
        self._datum = weakref.ref(datum)
        self.index = index
        return self

    @property
    def datum(self) -> "RootDatum | None":
        """The owning datum, or None once it has been freed."""
        return self._datum()

    def __reduce__(self):
        """Pickle and copy as the plain matrix; the tables stay with the datum."""
        return tuple, (tuple(self),)


class Record:
    """A value made of the fields named by `__slots__`, in order, that
    compares, prints and pickles as a dataclass does: equal only to a
    record of its own class with equal fields, and unhashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        if cls.__slots__:
            # the fields of a record as one tuple (its one field if it
            # has one), read in C
            cls.field_values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        get = self.field_values
        return get(self) == get(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class FrozenRecord(Record):
    """A hashed record whose fields its `__init__` sets once, by
    `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self):
        return hash(self.field_values(self))


def weyl_exponents(simple_roots, is_root) -> list[int]:
    """The exponents m_i of the Weyl group of the root system with these
    simple roots, is_root testing membership: the dual partition of the
    numbers n_h of its positive roots by height (Humphreys, Reflection
    Groups and Coxeter Groups, 3.20), so m occurs n_m - n_{m+1} times.
    A root of height h + 1 is one of height h plus a simple root.  The
    group has order prod_i (m_i + 1).
    """
    levels, seen = [list(simple_roots)], set(simple_roots)
    while levels[-1]:
        up = []
        for b in levels[-1]:
            for a in simple_roots:
                c = tuple([x + y for x, y in zip(a, b)])
                if c not in seen and is_root(c):
                    seen.add(c)
                    up.append(c)
        levels.append(up)
    return [m for m in range(1, len(levels))
            for _ in range(len(levels[m - 1]) - len(levels[m]))]


def _owner(u: Matrix) -> "RootDatum | None":
    return u._datum() if type(u) is WeylElement else None


def weyl_product(u: Matrix, v: Matrix) -> Matrix:
    """u v, by table lookup when either factor is interned."""
    datum = _owner(u) or _owner(v)
    return mat_mul(u, v) if datum is None else datum.product(u, v)


def weyl_inverse(u: Matrix) -> Matrix:
    """u^{-1}, by table lookup when u is interned."""
    datum = _owner(u)
    return _integral_inverse(u) if datum is None else datum.finite_inverse(u)


def _integral_inverse(u: Matrix) -> Matrix:
    d, inv = integer_inverse(u)
    if d != 1:
        raise LogicError(f"the inverse of {u} is not integral")
    return inv


class RootDatum:
    """Roots, coroots and the finite Weyl group of a split group.

    Construction is integer arithmetic only.  The positive roots are the
    closure of the simple roots under the simple reflections, each s_j
    applied to the positive roots other than alpha_j, with their coroots
    and heights (`height`; simple roots have height 1); the negative
    roots, their coroots and heights are the negatives of those.  `roots`
    is sorted, so negation reverses it: -roots[i] is roots[~i].
    W0 is built on demand: an element becomes an interned `WeylElement`,
    with its root permutation (u(alpha) as a root index), when a query
    first reaches it, and `weyl_elements` completes W0 when a query
    reads all of it (`w0_order` reads the exponents instead); inverses,
    products and orders are memoised on demand.  The table methods accept
    any matrix equal to an element of W0 and raise `LogicError` on any
    other.  Nothing is shared between data, and apart from those tables
    the datum is immutable after construction.
    """

    def __init__(self, type_label: str, lattice: str, rank: int,
                 simple_roots, simple_coroots):
        self.type_label = type_label
        self.lattice = lattice
        self.rank = rank
        self.simple_roots: tuple[Covector, ...] = tuple(map(tuple, simple_roots))
        self.simple_coroots: tuple[IntVector, ...] = tuple(map(tuple, simple_coroots))
        moves = self._close_roots()
        self.coroot_hnf = hnf_columns(list(self.simple_coroots))
        self.omega_is_finite = len(self.coroot_hnf) == rank
        self.root_index = index = {a: i for i, a in enumerate(self.roots)}
        # tau[i] = 1 if roots[i] is positive, else 0: the least level of a
        # positive affine root over roots[i]
        self.tau = tuple([int(self.height[a] > 0) for a in self.roots])
        # (index of alpha_s, alpha_s, s on root indices) for each simple s,
        # read off the positive roots: s(-a) = -s(a) is roots[~k] when s(a)
        # is roots[k]
        last, self._simple = len(self.roots) - 1, []
        for a, pairs in zip(self.simple_roots, moves):
            i, perm = index[a], list(range(last + 1))
            perm[i], perm[~i] = last - i, i
            for b, c in pairs:
                j, k = index[b], index[c]
                perm[j], perm[~j] = k, last - k
            self._simple.append((i, a, tuple(perm)))
        # the elements met so far, in the order met: u.index is the place
        # of u here and in the per-element tables _perms and _products
        self.materialised: list[WeylElement] = []
        self._perms, self._products, self._perm_index, self._interned = [], [], {}, {}
        self._inverses, self._orders, self._subgroups = {}, {}, {}
        self.weyl_identity = self._materialise(  # the seed of every descent chain
            mat_identity(rank), tuple(range(len(self.roots))))
        self.simple_reflections = tuple(self._element(p) for _, _, p in self._simple)
        self._reflections = dict(zip(self.simple_roots, self.simple_reflections))

    # -- construction ------------------------------------------------

    def _close_roots(self):
        """The roots with their coroots and integer heights, from the
        positive roots alone.

        s_j a = a - <a, alpha_j^vee> alpha_j has height ht(a) -
        <a, alpha_j^vee>, the simple roots having height 1, and s_j
        permutes the positive roots other than alpha_j (Humphreys,
        Reflection Groups and Coxeter Groups, 1.4), so Phi+ is the closure
        of the simple roots under those moves.  Each root carries its
        pairings with the simple coroots, which s_j changes by a row of the
        Cartan matrix C[j][i] = <alpha_j, alpha_i^vee>.  Phi- is -Phi+,
        with coroots and heights negated.  Every root pairs to 2 with its
        coroot once the simple roots do, as each s_j preserves the pairing.
        Returns moves[j], the pairs (a, s_j a) over the positive roots a
        other than alpha_j that s_j moves.
        """
        simple = self.simple_roots
        cartan = [[dot(a, bv) for bv in self.simple_coroots] for a in simple]
        for j, a in enumerate(simple):
            if cartan[j][j] != 2:
                raise LogicError(f"root {a} must pair to 2 with its coroot")
        coroot, height = dict(zip(simple, self.simple_coroots)), dict.fromkeys(simple, 1)
        pairings = dict(zip(simple, cartan))
        moves = [[] for _ in simple]
        frontier = list(simple)
        while frontier:
            a = frontier.pop()
            p, h = pairings[a], height[a]
            for j, k in enumerate(p):
                b = simple[j]
                if not k or a == b:
                    continue
                if k >= h:
                    raise LogicError("a simple reflection sends every other positive root "
                                     "to a positive root")
                c = tuple([x - k * y for x, y in zip(a, b)])
                moves[j].append((a, c))
                if c not in coroot:
                    coroot[c] = _reflect(coroot[a], b, self.simple_coroots[j])
                    height[c] = h - k
                    pairings[c] = [x - k * y for x, y in zip(p, cartan[j])]
                    frontier.append(c)
        self.positive_roots = tuple(sorted(coroot))
        self._positive_set = frozenset(self.positive_roots)
        for a in self.positive_roots:
            coroot[tuple([-x for x in a])] = tuple([-x for x in coroot[a]])
            height[tuple([-x for x in a])] = -height[a]
        self.coroot = coroot
        self.height = height
        self.roots = tuple(sorted(coroot))
        return moves

    def _element(self, perm: tuple[int, ...]) -> WeylElement:
        """The element w of W0 with root permutation perm, the one routine
        that creates elements.  A new w is followed down least right
        descents s (w(alpha_s) < 0) to an element met before, and each
        w = u s on the way is built from u by the rank-one update
        u s = u - u(alpha_s^vee) alpha_s^T, u(alpha_s^vee) = -w(alpha_s)^vee.
        """
        k = self._perm_index.get(perm)
        if k is not None:
            return self.materialised[k]
        tau, chain = self.tau, []
        while k is None:
            for i, a, sperm in self._simple:
                if not tau[perm[i]]:
                    break
            else:
                raise LogicError(f"{perm} is not the root permutation of an element of W0")
            if len(chain) == len(self.positive_roots):
                raise LogicError("W0 must have no element longer than its positive roots")
            chain.append((perm, self.coroot[self.roots[perm[i]]], a))
            perm = tuple(map(perm.__getitem__, sperm))
            k = self._perm_index.get(perm)
        u = self.materialised[k]
        for perm, c, a in reversed(chain):
            u = self._materialise(tuple([tuple([x + ci * y for x, y in zip(row, a)]) if ci
                                         else row for row, ci in zip(u, c)]), perm)
        return u

    def _materialise(self, u: Matrix, perm: tuple[int, ...]) -> WeylElement:
        element = WeylElement(u, self, len(self.materialised))
        if self._interned.setdefault(element, element) is not element \
                or self._perm_index.setdefault(perm, element.index) != element.index:
            raise LogicError("W0 must act faithfully on the roots")
        self.materialised.append(element)
        self._perms.append(perm)
        self._products.append({})
        return element

    def reflection_subgroup(self, simple_roots) -> tuple[WeylElement, ...]:
        """The group generated by the reflections in simple_roots, the
        simple roots of Phi_M ∩ Phi+ for a root subsystem Phi_M, sorted
        by matrix (memoised).  Each u' s is reached once, from u', as s
        is its least right descent (Humphreys, Reflection Groups and
        Coxeter Groups, 5.10): u'(alpha_s) > 0 and (u' s)(alpha_t) > 0
        for every t < s."""
        key = tuple(simple_roots)
        members = self._subgroups.get(key)
        if members is None:
            tau, index, perms = self.tau, self.root_index, self._perms
            gens = [(index[a], perms[self.reflection(a).index]) for a in key]
            gens = [(i, sperm, [sperm[j] for j, _ in gens[:n]])
                    for n, (i, sperm) in enumerate(gens)]
            members = [self.weyl_identity]
            for u in members:  # the list grows while it is walked
                perm = perms[u.index]
                for i, sperm, lower in gens:
                    if tau[perm[i]] and all([tau[perm[j]] for j in lower]):
                        members.append(self._element(tuple(map(perm.__getitem__, sperm))))
            members = self._subgroups[key] = tuple(sorted(members))
        return members

    @property
    def weyl_elements(self) -> tuple[WeylElement, ...]:
        """All of W0, sorted by matrix."""
        return self.reflection_subgroup(self.simple_roots)

    @property
    def w0_order(self) -> int:
        """|W0| from the exponents, without building W0."""
        return prod(m + 1 for m in weyl_exponents(self.simple_roots, self.is_root))

    # -- queries -----------------------------------------------------

    def is_root(self, a: Covector) -> bool:
        return a in self.coroot

    def is_positive_root(self, a: Covector) -> bool:
        return a in self._positive_set

    def intern(self, u: Matrix) -> WeylElement:
        """The interned element equal to u; LogicError if u is not in W0."""
        if type(u) is WeylElement and u._datum() is self:
            return u
        if u not in self._interned:  # not met yet: complete W0
            self.reflection_subgroup(self.simple_roots)
        iu = self._interned.get(u)
        if iu is None:
            raise LogicError(f"{tuple(u)} is not in W0 of {self.descriptor()}")
        return iu

    def product(self, u: Matrix, v: Matrix) -> WeylElement:
        """u v, by composing root permutations (memoised per pair)."""
        if type(u) is WeylElement and type(v) is WeylElement \
                and u._datum() is self and v._datum() is self:
            iu, iv = u.index, v.index
        else:
            iu, iv = self.intern(u).index, self.intern(v).index
        row = self._products[iu]
        uv = row.get(iv)
        if uv is None:
            pu = self._perms[iu]
            uv = row[iv] = self._element(tuple([pu[p] for p in self._perms[iv]]))
        return uv

    def finite_inverse(self, u: Matrix) -> WeylElement:
        """u^{-1}, by inverting the root permutation (memoised)."""
        iu = self.intern(u).index
        inv = self._inverses.get(iu)
        if inv is None:
            p = self._perms[iu]
            inv = self._inverses[iu] = self._element(tuple(map(p.index, range(len(p)))))
        return inv

    def element_order(self, u: Matrix) -> int:
        """The order of u, that of its root permutation (W0 acts
        faithfully on the roots)."""
        iu = self.intern(u).index
        order = self._orders.get(iu)
        if order is None:
            perm, power, order = self._perms[iu], self._perms[iu], 1
            while power != self._perms[0]:  # the identity's
                power, order = tuple([perm[p] for p in power]), order + 1
            self._orders[iu] = order
        return order

    def root_permutation(self, u: Matrix) -> tuple[int, ...]:
        """The indices of u(alpha) in `roots`, alpha running over `roots`."""
        return self._perms[self.intern(u).index]

    def reflection(self, a: Covector) -> WeylElement:
        """The reflection in the root a, the same element as in -a."""
        s = self._reflections.get(a)
        if s is None:
            if self.height[a] < 0:
                s = self.reflection(tuple([-x for x in a]))
            else:
                # s_a on the positive roots, and s_a(-b) = -s_a(b)
                av, index, last = self.coroot[a], self.root_index, len(self.roots) - 1
                perm = [0] * (last + 1)
                for i, (b, t) in enumerate(zip(self.roots, self.tau)):
                    if t:
                        k = index[_reflect(b, av, a)]
                        perm[i], perm[~i] = k, last - k
                s = self._element(tuple(perm))
            self._reflections[a] = s
        return s

    def act_covector(self, u: Matrix, a: Covector) -> Covector:
        """Dual action on a root: a o u^{-1}, read off the root permutation."""
        i = self.root_index.get(a)
        if i is None:
            raise LogicError(f"{a} is not a root of {self.descriptor()}")
        return self.roots[self._perms[self.intern(u).index][i]]

    def kappa_label(self, lam: IntVector) -> IntVector:
        """Canonical representative of lam modulo the coroot lattice."""
        return coset_reduce(tuple(lam), self.coroot_hnf)

    def omega_labels(self):
        """All coroot-lattice cosets when the quotient is finite, else None.

        The Hermite form then has a pivot p_i in every row i, and the
        canonical representatives are exactly the vectors with
        0 <= x_i < p_i."""
        if not self.omega_is_finite:
            return None
        return tuple(product(*(range(col[row]) for row, col in self.coroot_hnf)))

    def descriptor(self) -> str:
        if self.type_label.startswith("GL"):
            return self.type_label
        return f"{self.type_label}:{self.lattice}"

    def __repr__(self):
        return f"RootDatum({self.descriptor()}, rank={self.rank})"


def build_root_datum(kind: str, lattice: str = "sc", rank: int | None = None) -> RootDatum:
    """Construct a supported root datum.

    kind is one of A1, A2, B2, C2, G2 (with lattice "sc" or "ad"), or
    "GL" with 1 <= rank <= 5 (the lattice argument is ignored for GL).
    """
    kind = kind.strip()
    if kind.upper().startswith("GL"):
        if rank is None:
            tail = kind[2:]
            if not tail.isdigit():
                raise ConfigurationError(f"missing rank for GL descriptor {kind!r}")
            rank = int(tail)
        if not 1 <= rank <= _MAX_GL_RANK:
            raise ConfigurationError(f"GL rank must be in 1..{_MAX_GL_RANK}, got {rank}")
        simple = []
        for i in range(rank - 1):
            row = [0] * rank
            row[i], row[i + 1] = 1, -1
            simple.append(tuple(row))
        return RootDatum(f"GL{rank}", "gl", rank, simple, simple)
    if kind not in _PAIRING:
        raise ConfigurationError(f"unsupported group type {kind!r}")
    if lattice not in ("sc", "ad"):
        raise ConfigurationError(f"unsupported lattice variant {lattice!r}")
    pairing = _PAIRING[kind]
    n = len(pairing)
    if rank is not None and rank != n:
        raise ConfigurationError(f"type {kind} has rank {n}, got {rank}")
    if lattice == "sc":
        # basis = simple coroots: roots are the rows of the pairing matrix
        simple_roots = [tuple(row) for row in pairing]
        simple_coroots = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    else:
        # basis = fundamental coweights: coroots are the pairing columns
        simple_roots = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        simple_coroots = [tuple(pairing[i][j] for i in range(n)) for j in range(n)]
    return RootDatum(kind, lattice, n, simple_roots, simple_coroots)


def parse_group_label(label: str) -> tuple[str, str]:
    """Split a CLI group label like "A2", "C2:ad" or "GL5" into (kind, lattice)."""
    label = label.strip()
    if ":" in label:
        kind, lattice = label.split(":", 1)
    else:
        kind, lattice = label, "sc"
    return kind, lattice

