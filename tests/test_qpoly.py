"""The packed Z[q] coefficients against the dense-tuple polynomials they
replaced.

`TuplePoly` is the former `QPoly`, kept verbatim in behaviour as the
oracle: trimmed ascending coefficient tuples with schoolbook products.
Every operation of `QPoly` is run on random polynomials with negative
coefficients, valuations up to 300 and coefficients up to 2^100, so sums
cancel low digits, iterated products outgrow every digit width, and
operands of different widths meet.
"""

import random

import pytest

from newton_cocenter.hecke_cocenter import ONE, Q, Q_MINUS_1, QPoly


class TuplePoly:
    """Integer polynomials in q as trimmed ascending coefficient tuples."""

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, TuplePoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return TuplePoly(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __neg__(self):
        return TuplePoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = TuplePoly((other,))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return TuplePoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return TuplePoly(out)

    def evaluate(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

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


def random_coeffs(rng, max_valuation=300, max_terms=8):
    """Dense coefficients: a random valuation, then digits from a random
    magnitude scale (small, near a digit width, or up to 2^100), some of
    them zero, and both signs."""
    if rng.random() < 0.05:
        return ()
    scale = rng.choice((2, 2 ** 22, 2 ** 23, 2 ** 47, 2 ** 100))
    body = [rng.randint(-scale, scale) if rng.random() < 0.8 else 0
            for _ in range(rng.randint(1, max_terms))]
    body[0] = body[0] or 1
    return (0,) * rng.randint(0, max_valuation) + tuple(body)


def pair(coeffs):
    return QPoly(coeffs), TuplePoly(coeffs)


def same(p, t):
    """p (a QPoly) and t (a TuplePoly) are the same polynomial, and p is
    stored as a freshly built QPoly of those coefficients is."""
    fresh = QPoly(t.coeffs)
    return (p.coeffs == t.coeffs and str(p) == str(t) and p == fresh and fresh == p
            and hash(p) == hash(fresh) and bool(p) == bool(t))


SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations_match_the_tuple_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        (a, ta), (b, tb) = pair(random_coeffs(rng)), pair(random_coeffs(rng))
        n = rng.choice((0, 1, -1, 7, -(2 ** 90), rng.randint(-2 ** 40, 2 ** 40)))
        assert same(a, ta) and same(b, tb)
        assert same(a + b, ta + tb)
        assert same(a - b, ta - tb)
        assert same(-a, -ta)
        assert same(a * Q, ta * TuplePoly((0, 1)))
        assert same(a * Q_MINUS_1, ta * TuplePoly((-1, 1)))
        assert same(a * ONE, ta)
        assert same(a * n, ta * n)
        assert same(a * b, ta * tb)
        for x in (0, 1, -1, 2, -3, 10 ** 6):
            assert a.evaluate(x) == ta.evaluate(x)
        assert (a == b) == (ta == tb)
        assert (a == n) == (ta.coeffs == ((n,) if n else ()))
        assert QPoly.const(n) == n


@pytest.mark.parametrize("seed", SEEDS)
def test_sums_that_cancel_low_digits(seed):
    # a + (-a + q^k c): every digit of a cancels, and the valuation of the
    # sum is read off the lowest set bit of the packed int
    rng = random.Random(seed)
    for _ in range(40):
        (a, ta), (c, tc) = pair(random_coeffs(rng)), pair(random_coeffs(rng, 40))
        shift = (0,) * rng.randint(0, 40)
        (s, ts) = pair(shift + (1,))
        b, tb = -a + s * c, -ta + ts * tc
        assert same(b, tb)
        assert same(a + b, ta + tb)
        assert same(b + a, tb + ta)
        assert same(a - a, TuplePoly())
        assert same(a + (-a), TuplePoly())


@pytest.mark.parametrize("seed", SEEDS)
def test_iterated_products_outgrow_every_digit_width(seed):
    # the He-Nie steps multiply by q - 1 and by q and add; a chain of them
    # from coefficients near a digit width must widen, never overflow
    rng = random.Random(seed)
    p, tp = pair(random_coeffs(rng, 20))
    for step in range(80):
        kind = rng.randrange(4)
        if kind == 0:
            p, tp = p * Q_MINUS_1, tp * TuplePoly((-1, 1))
        elif kind == 1:
            p, tp = p * Q + p * Q_MINUS_1, tp * TuplePoly((0, 1)) + tp * TuplePoly((-1, 1))
        elif kind == 2:
            b, tb = pair(random_coeffs(rng, 5, 3))
            p, tp = p * b, tp * tb
        else:
            b, tb = pair(random_coeffs(rng, 30))
            p, tp = p + b, tp + tb
        assert same(p, tp), step


def test_equal_polynomials_at_different_widths():
    # 2^30 q^5 needs a wider digit than q^5; (2^30 q^5 + q^5) - 2^30 q^5
    # keeps that width and still equals q^5 at the narrow one
    wide, narrow = QPoly.monomial(2 ** 30, 5), QPoly.monomial(1, 5)
    back = (wide + narrow) - wide
    assert back.width != narrow.width
    assert back == narrow and hash(back) == hash(narrow)
    assert QPoly.const(3) == 3 and QPoly() == 0 and not QPoly()
    assert QPoly.monomial(-1, 10 ** 6).coeffs[-1] == -1
    assert str(QPoly.monomial(-1, 10 ** 6)) == "-q^1000000"
