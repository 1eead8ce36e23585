"""Split root data over exact rationals.

The cocharacter lattice is identified with Z^rank once and for all: the
basis is the simple coroots for the simply connected variant, the
fundamental coweights for the adjoint variant, and the standard basis
of Z^n for GL(n).  Roots are integer covectors, coweights are tuples of
`fractions.Fraction`, and the pairing is the plain dot product, so every
computation downstream is exact.  No floating point anywhere.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import ConfigurationError, LogicError

Coweight = tuple[Fraction, ...]
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


def frac(text: str | int) -> Fraction:
    """Parse an exact rational, accepting "p/q" and plain integers."""
    return Fraction(text)


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def coweight(coords) -> Coweight:
    return tuple(Fraction(c) for c in coords)


def is_integral(v: Coweight) -> bool:
    return all(Fraction(c).denominator == 1 for c in v)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product, for W0 elements not interned in a live datum."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_act(u: Matrix, v):
    """Apply the integer matrix u to a (co)weight vector.

    A rational vector is scaled to an integer one by its common
    denominator, so only the results are Fractions.
    """
    if all(type(c) is int for c in v):
        return tuple([sum(map(mul, row, v)) for row in u])
    d, x = _scaled(v)
    return tuple([Fraction(sum(map(mul, row, x)), d) for row in u])


def _scaled(v) -> tuple[int, list[int]]:
    """(d, d v) for a rational vector v with common denominator d."""
    if not all(isinstance(c, (int, Fraction)) for c in v):
        v = coweight(v)
    d = lcm(*(c.denominator for c in v))
    return d, [c.numerator * (d // c.denominator) for c in v]


def rational_inverse(u) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of an invertible integer matrix, over the rationals."""
    n = len(u)
    aug = [[Fraction(u[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n + j] for j in range(n)) for i in range(n))


def dot(a: Covector, v):
    """Pairing of a character covector with a coweight: plain dot product."""
    return sum(map(mul, a, v))


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


def dominant_walk(datum: "RootDatum", v, walls) -> tuple[Coweight, Matrix]:
    """Reflect v in the first wall it pairs negatively with, until it
    pairs nonnegatively with every wall; return it with the product u of
    the reflections, so that u(v) is the result.

    walls are (root, coroot, reflection) triples.  The walk runs on the
    integer vector d v, d the common denominator of v, tracks u by table
    lookup, and builds the Fractions once at the end.
    """
    d, x = _scaled(v)
    walls = tuple(walls)
    u = datum.weyl_identity
    while True:
        for a, av, s in walls:
            c = dot(a, x)
            if c < 0:
                x = [xi - c * wi for xi, wi in zip(x, av)]
                u = datum.product(s, u)
                break
        else:
            return tuple(Fraction(xi, d) for xi in x), u


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
    inv = rational_inverse(u)
    if any(x.denominator != 1 for row in inv for x in row):
        raise LogicError(f"the inverse of {u} is not integral")
    return tuple(tuple(int(x) for x in row) for row in inv)


class RootDatum:
    """Roots, coroots and the finite Weyl group of a split group.

    W0 is held as interned `WeylElement`s with per-datum tables: each
    element's root permutation (u(alpha) as a root index) is built with
    the group; inverses, products and element orders are filled in on
    demand.  The table methods accept any matrix equal to an element of
    W0 and raise `LogicError` on any other.  Nothing is shared between
    data, and apart from those lazily filled memos the datum is
    immutable after construction.
    """

    def __init__(self, type_label: str, lattice: str, rank: int,
                 simple_roots, simple_coroots):
        self.type_label = type_label
        self.lattice = lattice
        self.rank = rank
        self.simple_roots: tuple[Covector, ...] = tuple(map(tuple, simple_roots))
        self.simple_coroots: tuple[IntVector, ...] = tuple(map(tuple, simple_coroots))
        self._close_roots()
        self._enumerate_weyl()
        self.coroot_hnf = hnf_columns(list(self.simple_coroots))
        self.omega_is_finite = len(self.coroot_hnf) == rank
        self.two_rho: Covector = tuple(
            sum(a[i] for a in self.positive_roots) for i in range(rank)
        )

    # -- construction ------------------------------------------------

    def _close_roots(self):
        """Reflection closure of the simple roots, tracking coroots."""
        coroot = {a: av for a, av in zip(self.simple_roots, self.simple_coroots)}
        frontier = list(self.simple_roots)
        while frontier:
            a = frontier.pop()
            av = coroot[a]
            for b, bv in zip(self.simple_roots, self.simple_coroots):
                # s_b on characters and on cocharacters
                c = _reflect(a, bv, b)
                if c not in coroot:
                    coroot[c] = _reflect(av, b, bv)
                    frontier.append(c)
        self.coroot = coroot
        self.roots = tuple(sorted(coroot))
        # Height form: rational coweight pairing to 1 with every simple root.
        self.height_coweight = self._solve_height()
        self.positive_roots = tuple(
            a for a in self.roots if dot(a, self.height_coweight) > 0
        )
        self._positive_set = frozenset(self.positive_roots)
        if 2 * len(self.positive_roots) != len(self.roots):
            raise LogicError("the height form must split the roots in half")
        for a in self.roots:
            if dot(a, coroot[a]) != 2:
                raise LogicError(f"root {a} must pair to 2 with its coroot")

    def _solve_height(self) -> Coweight:
        """A strictly dominant rational coweight (height 1 on simples)."""
        n, rows = self.rank, self.simple_roots
        aug = [[Fraction(rows[i][j]) for j in range(n)] for i in range(len(rows))]
        rhs = [Fraction(1)] * len(rows)
        # Gaussian elimination; the system is consistent by construction
        # (simple roots are linearly independent covectors).
        sol = [Fraction(0)] * n
        pivots = []
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            rhs[r], rhs[piv] = rhs[piv], rhs[r]
            p = aug[r][col]
            aug[r] = [x / p for x in aug[r]]
            rhs[r] = rhs[r] / p
            for i in range(len(aug)):
                if i != r and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
                    rhs[i] -= f * rhs[r]
            pivots.append((r, col))
            r += 1
        for row, col in reversed(pivots):
            sol[col] = rhs[row] - sum(aug[row][j] * sol[j] for j in range(n) if j != col)
        return tuple(sol)

    def _enumerate_weyl(self):
        """W0 by breadth-first search on the orbit of a regular coweight.

        The stabiliser of a strictly dominant coweight x0 is trivial, so
        u <-> u(x0) is a bijection and the orbit detects duplicates.  A
        new element s u is built once, by the rank-one update
        s u = u - alpha^vee (alpha^T u), together with its root
        permutation (s u)(beta) = s(u(beta)).
        """
        n, roots = self.rank, self.roots
        self.root_index = root_index = {a: i for i, a in enumerate(roots)}
        # tau[i] = 1 if roots[i] is positive, else 0: the least level of a
        # positive affine root over roots[i]
        self.tau = tuple(int(a in self._positive_set) for a in roots)
        simple = tuple(zip(self.simple_roots, self.simple_coroots))
        simple_perms = [tuple([root_index[_reflect(a, bv, b)] for a in roots])
                        for b, bv in simple]
        den = lcm(*(c.denominator for c in self.height_coweight))
        x0 = tuple(int(c * den) for c in self.height_coweight)
        found = {x0: (mat_identity(n), tuple(range(len(roots))))}
        frontier = [x0]
        while frontier:
            new = []
            for x in frontier:
                u, perm = found[x]
                for (a, av), sperm in zip(simple, simple_perms):
                    y = _reflect(x, a, av)
                    if y not in found:
                        row = [sum(map(mul, a, col)) for col in zip(*u)]
                        su = tuple(tuple([ui - avi * r for ui, r in zip(urow, row)])
                                   if avi else urow for urow, avi in zip(u, av))
                        found[y] = (su, tuple(map(sperm.__getitem__, perm)))
                        new.append(y)
            frontier = new
        table = sorted(found.values())
        self.weyl_elements: tuple[WeylElement, ...] = tuple(
            WeylElement(u, self, i) for i, (u, _) in enumerate(table))
        self.w0_order = len(table)
        self._interned = {u: u for u in self.weyl_elements}
        self._perms = tuple(perm for _, perm in table)
        self._perm_index = {perm: i for i, perm in enumerate(self._perms)}
        if len(self._perm_index) != self.w0_order:
            raise LogicError("W0 must act faithfully on the roots")
        self._inverses: dict[int, int] = {}
        self._products: dict[int, int] = {}
        self._orders: dict[int, int] = {}
        self._reflections: dict[Covector, WeylElement] = {}
        self.weyl_identity = self._interned[mat_identity(n)]
        self.simple_reflections: tuple[WeylElement, ...] = tuple(
            self.weyl_elements[self._perm_index[p]] for p in simple_perms)

    # -- queries -----------------------------------------------------

    def is_root(self, a: Covector) -> bool:
        return a in self.coroot

    def is_positive_root(self, a: Covector) -> bool:
        return a in self._positive_set

    def intern(self, u: Matrix) -> WeylElement:
        """The interned element equal to u; LogicError if u is not in W0."""
        if type(u) is WeylElement and u._datum() is self:
            return u
        iu = self._interned.get(u)
        if iu is None:
            raise LogicError(f"{tuple(u)} is not in W0 of {self.descriptor()}")
        return iu

    def product(self, u: Matrix, v: Matrix) -> WeylElement:
        """u v, by composing root permutations (memoised per pair)."""
        iu, iv = self.intern(u).index, self.intern(v).index
        key = iu * self.w0_order + iv
        k = self._products.get(key)
        if k is None:
            pu = self._perms[iu]
            k = self._products[key] = self._perm_index[
                tuple([pu[p] for p in self._perms[iv]])]
        return self.weyl_elements[k]

    def finite_inverse(self, u: Matrix) -> WeylElement:
        """u^{-1}, by inverting the root permutation (memoised)."""
        iu = self.intern(u).index
        k = self._inverses.get(iu)
        if k is None:
            perm = self._perms[iu]
            inv = [0] * len(perm)
            for i, p in enumerate(perm):
                inv[p] = i
            k = self._inverses[iu] = self._perm_index[tuple(inv)]
        return self.weyl_elements[k]

    def element_order(self, u: Matrix) -> int:
        """The order of u: the lcm of the cycle lengths of its root
        permutation (W0 acts faithfully on the roots)."""
        iu = self.intern(u).index
        order = self._orders.get(iu)
        if order is None:
            perm, seen, order = self._perms[iu], set(), 1
            for start in perm:
                size, i = 0, start
                while i not in seen:
                    seen.add(i)
                    i, size = perm[i], size + 1
                if size:
                    order = lcm(order, size)
            self._orders[iu] = order
        return order

    def root_permutation(self, u: Matrix) -> tuple[int, ...]:
        """The indices of u(alpha) in `roots`, alpha running over `roots`."""
        return self._perms[self.intern(u).index]

    def reflection(self, a: Covector) -> WeylElement:
        """The reflection in the root a."""
        s = self._reflections.get(a)
        if s is None:
            av = self.coroot[a]
            s = self._reflections[a] = self.weyl_elements[self._perm_index[tuple(
                [self.root_index[_reflect(b, av, a)] for b in self.roots])]]
        return s

    def act_covector(self, u: Matrix, a: Covector) -> Covector:
        """Dual action on a root: a o u^{-1}, read off the root permutation."""
        i = self.root_index.get(a)
        if i is None:
            raise LogicError(f"{a} is not a root of {self.descriptor()}")
        return self.roots[self._perms[self.intern(u).index][i]]

    def pairing(self, a: Covector, v) -> Fraction:
        return dot(a, v)

    def is_dominant(self, v: Coweight) -> bool:
        return all(dot(a, v) >= 0 for a in self.simple_roots)

    def dominant_rep(self, v: Coweight) -> tuple[Coweight, Matrix]:
        """The dominant W0-orbit representative, with u such that u(v) is it."""
        return dominant_walk(self, v, zip(self.simple_roots, self.simple_coroots,
                                          self.simple_reflections))

    def kappa_label(self, lam: IntVector) -> IntVector:
        """Canonical representative of lam modulo the coroot lattice."""
        return coset_reduce(tuple(lam), self.coroot_hnf)

    def omega_labels(self):
        """All coroot-lattice cosets when the quotient is finite, else None."""
        if not self.omega_is_finite:
            return None
        labels = {self.kappa_label((0,) * self.rank)}
        frontier = list(labels)
        basis = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        while frontier:
            lab = frontier.pop()
            for e in basis:
                for sgn in (1, -1):
                    nxt = self.kappa_label(tuple(x + sgn * y for x, y in zip(lab, e)))
                    if nxt not in labels:
                        labels.add(nxt)
                        frontier.append(nxt)
        return tuple(sorted(labels))

    def descriptor(self) -> str:
        if self.type_label.startswith("GL"):
            return self.type_label
        return f"{self.type_label}:{self.lattice}"

    def __repr__(self):
        return f"RootDatum({self.descriptor()}, rank={self.rank})"


@dataclass(frozen=True)
class LeviDatum:
    """The root-theoretic data attached to a rational coweight v."""

    v: Coweight
    phi_zero: tuple[Covector, ...]      # roots vanishing on v
    phi_plus: tuple[Covector, ...]      # roots strictly positive on v
    w_m: tuple[Matrix, ...]             # the subgroup of W0 fixing v pointwise

    @property
    def order(self) -> int:
        return len(self.w_m)


def levi_datum(datum: RootDatum, v) -> LeviDatum:
    """Partition the roots by their sign on v and close up the fixer group."""
    v = coweight(v)
    zero, plus = [], []
    for a in datum.roots:
        c = dot(a, v)
        if c == 0:
            zero.append(a)
        elif c > 0:
            plus.append(a)
    if len(zero) + 2 * len(plus) != len(datum.roots):
        raise LogicError("the roots positive on v must pair with the negative ones")
    # W_M is the stabiliser of v: it is generated by the reflections it
    # contains (Steinberg), and those are the s_alpha with <alpha, v> = 0
    _, x = _scaled(v)
    x = tuple(x)
    members = tuple(u for u in datum.weyl_elements if mat_act(u, x) == x)
    return LeviDatum(v, tuple(sorted(zero)), tuple(sorted(plus)), members)


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


def dominant_rep(datum: RootDatum, v) -> tuple[Coweight, Matrix]:
    """Module-level convenience for RootDatum.dominant_rep."""
    return datum.dominant_rep(v)


def parse_group_label(label: str) -> tuple[str, str]:
    """Split a CLI group label like "A2", "C2:ad" or "GL5" into (kind, lattice)."""
    label = label.strip()
    if ":" in label:
        kind, lattice = label.split(":", 1)
    else:
        kind, lattice = label, "sc"
    return kind, lattice

