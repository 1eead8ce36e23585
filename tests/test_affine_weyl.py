import random
from fractions import Fraction

import pytest

from newton_cocenter import (
    AffineRoot, InputError, act_on_affine_root, element_str,
    inverse, is_positive_affine_root, multiply, parse_element,
)
from newton_cocenter import verify
from newton_cocenter.verify import _affine_word
from conftest import ALL_DATA, group, oracle_omega


def bfs_word_lengths(g, depth, labels=((None,),)):
    """Oracle: word length by breadth-first multiplication only."""
    out = {}
    starts = [g.omega_rep(l) for l in labels] if labels != ((None,),) \
        else [g.identity]
    for start in starts:
        out[start] = 0
        frontier = [start]
        for d in range(1, depth + 1):
            new = []
            for w in frontier:
                for _, s in g.simple_items():
                    sw = multiply(s, w)
                    if sw not in out:
                        out[sw] = d
                        new.append(sw)
            frontier = new
    return out


def random_element(g, rng, n_steps=6):
    w = g.identity
    simples = [s for _, s in g.simple_items()]
    for _ in range(rng.randrange(n_steps + 1)):
        w = multiply(w, rng.choice(simples))
    lam = tuple(rng.randrange(-2, 3) for _ in range(g.datum.rank))
    return multiply(g.translation(lam), w)


def test_group_law_random_inverses():
    rng = random.Random(0)
    for label in ("A2", "GL3"):
        g = group(label)
        for _ in range(1000):
            w = random_element(g, rng)
            assert multiply(w, inverse(w)) == g.identity
            assert multiply(inverse(w), w) == g.identity


def test_group_law_associative_random():
    rng = random.Random(1)
    g = group("C2")
    for _ in range(300):
        a, b, c = (random_element(g, rng) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_sl2_affine_reflection_involution(a1):
    (_, s0), (_, s1) = a1.simple_items()
    assert multiply(s0, s0) == a1.identity
    assert s0 == multiply(a1.translation([1]), s1)  # t^{coroot} s1


def test_gl2_omega_squares_to_translation(gl2):
    w = parse_element(gl2, "t[1,0]*s1")
    assert multiply(w, w) == gl2.translation([1, 1])


def test_gl5_affine_root_action_anchor(gl5):
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    a = AffineRoot((0, 0, -1, 1, 0), 0)       # e4 - e3
    image = act_on_affine_root(gl5.datum, w, a)
    assert image == AffineRoot((0, -1, 0, 0, 1), -1)   # e5 - e2 - 1
    assert not is_positive_affine_root(gl5.datum, image)


def test_identity_acts_trivially(a2):
    for a in a2.datum.roots:
        for k in (-2, 0, 3):
            r = AffineRoot(a, k)
            assert act_on_affine_root(a2.datum, a2.identity, r) == r


def test_translation_action_shifts_level(c2):
    lam = (2, -1)
    t = c2.translation(lam)
    for a in c2.datum.roots:
        for k in (-1, 0, 2):
            image = act_on_affine_root(c2.datum, t, AffineRoot(a, k))
            assert image.vector_part == a
            assert image.level == k + sum(x * y for x, y in zip(a, lam))


def test_action_is_group_action():
    rng = random.Random(2)
    g = group("G2")
    for _ in range(100):
        w1, w2 = random_element(g, rng), random_element(g, rng)
        a = AffineRoot(rng.choice(g.datum.roots), rng.randrange(-2, 3))
        lhs = act_on_affine_root(g.datum, multiply(w1, w2), a)
        rhs = act_on_affine_root(g.datum, w1, act_on_affine_root(g.datum, w2, a))
        assert lhs == rhs


def test_exactly_one_of_pm_a_positive(a2):
    for a in a2.datum.roots:
        for k in range(-3, 4):
            r = AffineRoot(a, k)
            assert is_positive_affine_root(a2.datum, r) != \
                is_positive_affine_root(a2.datum, -r)


def test_length_basics(a1):
    (_, s0), (_, s1) = a1.simple_items()
    assert a1.length(a1.identity) == 0
    assert a1.length(s0) == 1 and a1.length(s1) == 1
    assert a1.length(a1.translation([1])) == 2


def test_gl2_omega_has_length_zero(gl2):
    assert gl2.length(parse_element(gl2, "t[1,0]*s1")) == 0


def test_length_inverse_and_omega_conjugation():
    rng = random.Random(3)
    for label in ("C2", "GL2"):
        g = group(label)
        omegas = []
        labels = g.datum.omega_labels()
        if labels is None:
            labels = [g.datum.kappa_label((1,) + (0,) * (g.datum.rank - 1))]
        omegas = [g.omega_rep(l) for l in labels]
        for _ in range(200):
            w = random_element(g, rng)
            assert g.length(w) == g.length(inverse(w))
            for om in omegas:
                assert g.length(multiply(multiply(om, w), inverse(om))) == g.length(w)


def test_left_multiplication_changes_length_by_one():
    for label in ("A2", "GL2"):
        g = group(label)
        for w in g.enumerate_ball(5):
            for _, s in g.simple_items():
                assert abs(g.length(multiply(s, w)) - g.length(w)) == 1


def test_length_equals_inversion_flip_count():
    """Count sign flips of affine roots inside an exhaustive window and
    compare with the closed-form length."""
    g = group("C2")
    rng = random.Random(4)
    for _ in range(40):
        w = random_element(g, rng)
        window = max(abs(sum(x * y for x, y in zip(a, w.translation)))
                     for a in g.datum.roots) + 1
        flips = 0
        for a in g.datum.roots:
            for k in range(-window, window + 1):
                r = AffineRoot(a, k)
                if is_positive_affine_root(g.datum, r) and \
                        not is_positive_affine_root(
                            g.datum, act_on_affine_root(g.datum, w, r)):
                    flips += 1
        assert flips == g.length(w)


@pytest.mark.parametrize("label,depth", [
    ("A1", 8), ("A2", 7), ("C2", 7), ("G2", 7),
])
def test_length_matches_bfs_oracle(label, depth):
    g = group(label)
    oracle = bfs_word_lengths(g, depth, labels=[(0,) * g.datum.rank])
    assert len(oracle) > depth
    for w, d in oracle.items():
        assert g.length(w) == d


def test_simple_reflection_order_and_labels(a1):
    items = a1.simple_items()
    # ascending labels: the affine reflection 0 first, then the finite one
    assert [lab for lab, _ in items] == [0, 1]
    (_, s0), (_, s1) = items
    assert s1 == a1.finite_element(a1.datum.simple_reflections[0])
    assert s0 == multiply(a1.translation([1]), s1)


def test_kappa_homomorphism_and_values(a1, gl2):
    assert a1.kappa(a1.translation([1])) == (0,)           # coroot lattice
    om = parse_element(gl2, "t[1,0]*s1")
    k = gl2.kappa(om)
    assert k != (0, 0)
    rng = random.Random(5)
    for _ in range(100):
        w1, w2 = random_element(gl2, rng), random_element(gl2, rng)
        prod_label = gl2.datum.kappa_label(
            tuple(x + y for x, y in zip(gl2.kappa(w1), gl2.kappa(w2))))
        assert gl2.kappa(multiply(w1, w2)) == prod_label


def test_omega_rep_round_trip(gl2):
    om = gl2.omega_rep((1, 0))
    assert gl2.length(om) == 0
    assert gl2.kappa(om) == gl2.datum.kappa_label((1, 0))


def test_gl2_omega_generator_has_infinite_order(gl2):
    om = parse_element(gl2, "t[1,0]*s1")
    labels = set()
    power = om
    for _ in range(5):
        labels.add(gl2.kappa(power))
        power = multiply(power, om)
    assert len(labels) == 5


def test_module_doctests():
    import doctest
    import newton_cocenter.affine_weyl as aw
    results = doctest.testmod(aw)
    assert results.failed == 0 and results.attempted >= 1


def test_wa_omega_split_round_trips():
    # w = (w omega^{-1}) omega with omega = omega_rep(kappa(w)) of length 0
    # and w omega^{-1} in W_a of the length of w, rebuilt from its word
    rng = random.Random(6)
    for label in ("A2", "GL2"):
        g = group(label)
        items = dict(g.simple_items())
        zero = g.kappa(g.identity)
        for _ in range(150):
            w = random_element(g, rng)
            omega = g.omega_rep(g.kappa(w))
            wa = multiply(w, inverse(omega))
            assert g.length(omega) == 0 and g.kappa(wa) == zero
            assert g.length(wa) == g.length(w)
            rebuilt = g.identity
            for lab in _affine_word(g, w):
                rebuilt = multiply(rebuilt, items[lab])
            assert rebuilt == wa and multiply(rebuilt, omega) == w


def test_affine_word_round_trips():
    # the grammar suite's affine word times omega_rep(kappa(w)) is w, on
    # random A2 and GL2 elements and on the whole C2 length-6 ball
    rng = random.Random(6)
    cases = [(group(label), [random_element(group(label), rng) for _ in range(150)])
             for label in ("A2", "GL2")] + [(group("C2"), group("C2").enumerate_ball(6))]
    for g, elems in cases:
        items = dict(g.simple_items())
        for w in elems:
            word = _affine_word(g, w)
            rebuilt = g.identity
            for lab in word:
                rebuilt = multiply(rebuilt, items[lab])
            assert multiply(rebuilt, g.omega_rep(g.kappa(w))) == w
            assert len(word) == g.length(w)


def test_ball_counts(a1, a2):
    assert len(a1.enumerate_ball(4, [(0,)])) == 9
    ball = a2.enumerate_ball(2, [(0, 0)])
    oracle = bfs_word_lengths(a2, 2, labels=[(0, 0)])
    assert len(ball) == len(oracle) == 10
    assert len(a1.enumerate_ball(0, [(0,)])) == 1


def test_grammar_round_trip_ball():
    for label in ("A2", "GL2"):
        g = group(label)
        for w in g.enumerate_ball(4):
            text = element_str(g, w)
            assert parse_element(g, text) == w
            assert element_str(g, parse_element(g, text)) == text


def multiply_parse(g, text):
    """The element of a well-formed element text by one `multiply` per
    letter, the parse that the wall products replaced."""
    word, _, label = text.partition("#")
    if word.startswith("t["):
        coords, _, rest = word[2:].partition("]")
        w, letters = g.translation(map(int, coords.split(","))), rest[1:].split("*")
        gens = {f"s{i}": g.finite_element(s)
                for i, s in enumerate(g.datum.simple_reflections, 1)}
    else:
        w, letters, gens = g.identity, word.split("*"), {f"S{i}": s for i, s in g.simple_items()}
    gens["e"] = gens["E"] = g.identity
    for x in filter(None, letters):
        w = multiply(w, gens[x])
    if label:
        w = multiply(w, oracle_omega(g, tuple(map(int, label[1:-1].split(",")))))
    return w


@pytest.mark.parametrize("label,lattice", ALL_DATA)
def test_product_parse_equals_the_multiply_parse(label, lattice):
    # both texts of every element of the grammar suite's ball
    g = group(label, lattice)
    for w in g.enumerate_ball(verify.SUITES["grammar"][1]["length"]):
        kappa = g.kappa(w)
        alt = ("*".join(f"S{i}" for i in _affine_word(g, w)) or "E") + (
            "#[" + ",".join(map(str, kappa)) + "]" if any(kappa) else "")
        for text in (element_str(g, w), alt):
            assert parse_element(g, text) == multiply_parse(g, text) == w, text


def test_grammar_word_errors_keep_their_text(a1, gl2):
    for g, text, message in [
            (a1, "t[1]*s9", "finite index 9 out of range (production 'finite_word')"),
            (a1, "t[1]*s0", "finite index 0 out of range (production 'finite_word')"),
            (a1, "t[1]*x", "bad generator 'x' (production 'finite_word')"),
            (a1, "t[1]*s1*", "bad generator '' (production 'finite_word')"),
            (a1, "t[1]*e*s1", "bad generator 'e' (production 'finite_word')"),
            (a1, "t[1]s1", "expected '*' before production 'finite_word'"),
            (a1, "S9", "affine index 9 out of range (production 'affine_word')"),
            (a1, "S-1", "bad generator 'S-1' (production 'affine_word')"),
            (a1, "S1*E", "bad generator 'E' (production 'affine_word')"),
            (a1, "S", "bad generator 'S' (production 'affine_word')"),
            (gl2, "S0*S2#[1,0]", "affine index 2 out of range (production 'affine_word')")]:
        with pytest.raises(InputError) as err:
            parse_element(g, text)
        assert str(err.value) == message, text


def test_grammar_affine_word_form(a1):
    w = parse_element(a1, "S1*S0*S1")
    assert a1.length(w) == 3
    assert parse_element(a1, "E") == a1.identity
    assert parse_element(a1, "t[0]") == a1.identity
    assert parse_element(a1, "t[0]*e") == a1.identity


def test_grammar_omega_suffix(gl2):
    w = parse_element(gl2, "S1#[1,0]")
    om = gl2.omega_rep((1, 0))
    s1 = dict(gl2.simple_items())[1]
    assert w == multiply(s1, om)


def test_grammar_errors(a1, gl2):
    for bad in ["", "t[1", "t[x]", "t[1,2]", "s1", "S9", "t[1]*s9",
                "t[1/2]", "t[-3/2]", "t[7/-1]", "t[1/0]", "Q3"]:
        with pytest.raises(InputError):
            parse_element(a1, bad)
    with pytest.raises(InputError):
        parse_element(gl2, "S1#[1]")


def test_translation_takes_integral_numbers_only(a1):
    # integrality is tested without Fraction; the refusals and the
    # accepted values are those of a Fraction-based test
    for bad in (Fraction(1, 2), 0.5, Fraction(-7, 3), -2.5):
        with pytest.raises(InputError, match="not in the cocharacter lattice"):
            a1.translation([bad])
    for good in (Fraction(4, 2), 2.0, 2):
        w = a1.translation([good])
        assert w == a1.translation((2,)) and type(w.translation[0]) is int
        assert element_str(a1, w) == "t[2]"
    for text, value in (("t[4/2]", 2), ("t[-4/02]", -2), ("t[0/7]", 0)):
        assert parse_element(a1, text) == a1.translation([value])

