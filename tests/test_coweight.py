"""The contract of `root_datum.Coweight`, the one coweight type: it is
the pair (d, x) of the least common denominator and the integer
vector, normalised so that equal values are equal pairs; its order
comparisons agree with the same vectors as tuples of Fractions; it
pickles and copies as itself; and `strs` prints the coordinates as
"p/q" strings."""

import copy
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest

from newton_cocenter.errors import LogicError
from newton_cocenter.root_datum import Coweight, coweight


def frac_str(x):
    """The printer of one Fraction coordinate that `strs` replaced."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def random_vectors(rank, count, seed):
    """Fraction vectors with mixed signs and denominators, with repeats
    and vectors that agree on a prefix, so that every comparison meets
    ties and later coordinates."""
    rng = random.Random(seed)
    pool = [Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 5, 6, 12)))
            for _ in range(8)]
    out = []
    for _ in range(count):
        if out and rng.random() < 0.3:
            prefix = rng.choice(out)[: rng.randrange(rank)]
        else:
            prefix = ()
        out.append(prefix + tuple(rng.choice(pool) for _ in range(rank - len(prefix))))
    return out


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_order_agrees_with_fraction_tuples(rank):
    vectors = random_vectors(rank, 40, seed=rank)
    cws = [coweight(v) for v in vectors]
    for v, a in zip(vectors, cws):
        assert type(a) is Coweight
        for w, b in zip(vectors, cws):
            assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == \
                (v < w, v <= w, v > w, v >= w, v == w, v != w), (v, w)
    by_value = {v: a for v, a in zip(vectors, cws)}
    assert sorted(cws) == [by_value[v] for v in sorted(vectors)]
    assert min(cws) == by_value[min(vectors)]
    assert max(cws) == by_value[max(vectors)]


def test_order_is_by_value_not_by_denominator():
    # as pairs, (1, (1,)) < (2, (1,)); as values, 1 > 1/2
    one, half = Coweight(1, (1,)), Coweight(2, (1,))
    assert one > half and one >= half and half < one and half <= one
    assert not (one < half or one <= half or half > one or half >= one)
    assert max(half, one) is one and min(one, half) is half
    assert sorted([one, half]) == [half, one]


def test_order_refuses_a_plain_tuple():
    with pytest.raises(TypeError):
        Coweight(1, (1,)) < (Fraction(2),)
    with pytest.raises(TypeError):
        (Fraction(2),) > Coweight(1, (1,))


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_pair_is_the_least_common_denominator_and_integer_vector(rank):
    for v in random_vectors(rank, 40, seed=10 + rank):
        c = coweight(v)
        assert c.d == lcm(*(x.denominator for x in v))
        assert all(type(x) is int for x in c.x) and type(c.d) is int
        assert tuple(Fraction(x, c.d) for x in c.x) == v
        assert tuple(c) == (c.d, c.x)
        assert c != v and c != tuple(c.x)


def test_equal_values_are_equal_with_equal_hashes():
    a, b = Coweight(4, (2, 6)), Coweight(2, (1, 3))
    assert a == b and hash(a) == hash(b) and tuple(a) == (2, (1, 3))
    assert Coweight(3, [0, 0]) == coweight([0, 0]) == Coweight(1, (0, 0))
    assert coweight([Fraction(1, 2), 3]) == Coweight(2, (1, 6))
    assert len({a, b}) == 1


@pytest.mark.parametrize("d", [0, -2])
def test_a_nonpositive_denominator_is_refused(d):
    with pytest.raises(LogicError, match="positive"):
        Coweight(d, (1, 2))


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_pickle_and_copies_round_trip(rank):
    for v in random_vectors(rank, 10, seed=20 + rank):
        c = coweight(v)
        for twin in (pickle.loads(pickle.dumps(c)),
                     pickle.loads(pickle.dumps(c, protocol=0)),
                     copy.copy(c), copy.deepcopy(c), copy.deepcopy([c])[0]):
            assert type(twin) is Coweight and twin == c and hash(twin) == hash(c)
            assert (twin.d, twin.x) == (c.d, c.x)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_strs_prints_as_the_fraction_printer(rank):
    for v in random_vectors(rank, 40, seed=30 + rank):
        assert coweight(v).strs() == [frac_str(x) for x in v]
    assert Coweight(6, (4, -3, 0, 12)).strs() == ["2/3", "-1/2", "0", "2"]
    assert repr(Coweight(6, (4, -3))) == "Coweight(6, (4, -3))"
