"""Split root data over exact rationals.

The cocharacter lattice is identified with Z^rank once and for all: the
basis is the simple coroots for the simply connected variant, the
fundamental coweights for the adjoint variant, and the standard basis
of Z^n for GL(n).  Roots are integer covectors, coweights are tuples of
`fractions.Fraction`, and the pairing is the plain dot product, so every
computation downstream is exact.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_act(u: Matrix, v):
    """Apply the integer matrix u to a (co)weight vector."""
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in u)


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


@lru_cache(maxsize=None)
def mat_inverse(u: Matrix) -> Matrix:
    """Exact inverse of an integer matrix (result must be integral)."""
    inv = rational_inverse(u)
    if any(x.denominator != 1 for row in inv for x in row):
        raise LogicError(f"the inverse of {u} is not integral")
    return tuple(tuple(int(x) for x in row) for row in inv)


def dot(a: Covector, v):
    """Pairing of a character covector with a coweight: plain dot product."""
    return sum(ai * vi for ai, vi in zip(a, v))


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


class RootDatum:
    """Roots, coroots and the finite Weyl group of a split group.

    Immutable after construction; safe to share between workers.
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
                c = tuple(ai - dot(a, bv) * bi for ai, bi in zip(a, b))
                cv = tuple(vi - dot(b, av) * wi for vi, wi in zip(av, bv))
                if c not in coroot:
                    coroot[c] = cv
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
        """BFS closure of the simple reflections, with inverses."""
        n = self.rank
        refl = []
        for a, av in zip(self.simple_roots, self.simple_coroots):
            refl.append(tuple(
                tuple((1 if i == j else 0) - a[j] * av[i] for j in range(n))
                for i in range(n)
            ))
        self.simple_reflections: tuple[Matrix, ...] = tuple(refl)
        ident = mat_identity(n)
        inverse = {ident: ident}
        frontier = [ident]
        while frontier:
            new = []
            for u in frontier:
                for s in refl:
                    v = mat_mul(s, u)
                    if v not in inverse:
                        inverse[v] = mat_mul(inverse[u], s)
                        new.append(v)
            frontier = new
        self._finite_inverse = inverse
        self.weyl_elements = tuple(sorted(inverse))
        self.w0_order = len(inverse)

    # -- queries -----------------------------------------------------

    def is_root(self, a: Covector) -> bool:
        return a in self.coroot

    def is_positive_root(self, a: Covector) -> bool:
        return a in self._positive_set

    def in_weyl(self, u: Matrix) -> bool:
        return u in self._finite_inverse

    def finite_inverse(self, u: Matrix) -> Matrix:
        inv = self._finite_inverse.get(u)
        return inv if inv is not None else mat_inverse(u)

    def act_covector(self, u: Matrix, a: Covector) -> Covector:
        """Dual action on characters: a o u^{-1}."""
        uinv = self.finite_inverse(u)
        n = self.rank
        return tuple(sum(a[i] * uinv[i][j] for i in range(n)) for j in range(n))

    def pairing(self, a: Covector, v) -> Fraction:
        return dot(a, v)

    def is_dominant(self, v: Coweight) -> bool:
        return all(dot(a, v) >= 0 for a in self.simple_roots)

    def dominant_rep(self, v: Coweight) -> tuple[Coweight, Matrix]:
        """The dominant W0-orbit representative, with u such that u(v) is it."""
        v = coweight(v)
        u = mat_identity(self.rank)
        while True:
            for a, av, s in zip(self.simple_roots, self.simple_coroots,
                                self.simple_reflections):
                c = dot(a, v)
                if c < 0:
                    v = tuple(vi - c * wi for vi, wi in zip(v, av))
                    u = mat_mul(s, u)
                    break
            else:
                return v, u

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
    n = datum.rank
    gens = []
    for a in zero:
        av = datum.coroot[a]
        gens.append(tuple(
            tuple((1 if i == j else 0) - a[j] * av[i] for j in range(n))
            for i in range(n)
        ))
    ident = mat_identity(n)
    members = {ident}
    frontier = [ident]
    while frontier:
        u = frontier.pop()
        for s in gens:
            w = mat_mul(s, u)
            if w not in members:
                members.add(w)
                frontier.append(w)
    if any(mat_act(u, v) != v for u in members):
        raise LogicError("the Levi Weyl group must fix v")
    return LeviDatum(v, tuple(sorted(zero)), tuple(sorted(plus)),
                     tuple(sorted(members)))


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


@lru_cache(maxsize=None)
def cached_root_datum(kind: str, lattice: str = "sc") -> RootDatum:
    return build_root_datum(kind, lattice)
