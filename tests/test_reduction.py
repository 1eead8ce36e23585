
import pytest

from newton_cocenter import (
    AffineWeylGroup, LogicError, build_root_datum, canonical_class_rep,
    canonical_min_rep, class_minimal_set, conj_step, conjugate, element_str,
    is_conjugate, is_min_in_class, minimal_class, multiply, newton_index,
    parse_element, reduce_to_min, standard_triple,
)
from newton_cocenter.errors import InputError
from newton_cocenter.reduction import replay, wa_ball_count
from newton_cocenter.root_datum import mat_act
from newton_cocenter.verify import _affine_word
from conftest import group, oracle_sort_key


def test_conj_step_classification(a1):
    w = parse_element(a1, "S1*S0*S1")
    kind, res = conj_step(a1, w, 1)
    assert kind == "down" and res == parse_element(a1, "S0")
    s1 = parse_element(a1, "S1")
    kind, res = conj_step(a1, s1, 1)
    assert kind == "equal" and res == s1
    kind, res = conj_step(a1, s1, 0)
    assert kind == "up"


def test_conj_step_commuting_case():
    g = group("GL3")
    t = g.translation([0, 0, 1])     # commutes with the (1 2) reflection
    s1 = dict(g.simple_items())[1]
    assert multiply(s1, t) == multiply(t, s1)
    kind, res = conj_step(g, t, 1)
    assert kind == "equal" and res == t


def test_conj_step_trichotomy_exhaustive(c2):
    for w in c2.enumerate_ball(5):
        for lab, _ in c2.simple_items():
            kind, res = conj_step(c2, w, lab)
            assert kind in ("down", "equal", "up")
            assert c2.length(res) - c2.length(w) == \
                {"down": -2, "equal": 0, "up": 2}[kind]


def test_reduce_sl2_example(a1):
    w = parse_element(a1, "S1*S0*S1")
    w_min, path = reduce_to_min(a1, w)
    assert w_min == parse_element(a1, "S0")
    assert [st.kind for st in path.steps] == ["conj-down"]
    assert replay(a1, path)


@pytest.mark.parametrize("kind", ["left-mult", "conj-up", ""])
def test_replay_fails_on_a_step_kind_it_does_not_know(kind):
    # the G2 ball of radius 4 records steps of both kinds, each of which
    # is refused once its kind is changed
    g = group("G2")
    seen = set()
    for w in g.enumerate_ball(4):
        _, path = reduce_to_min(g, w)
        assert replay(g, path)
        for i, step in enumerate(path.steps):
            seen.add(step.kind)
            steps = list(path.steps)
            steps[i] = step._replace(kind=kind)
            assert not replay(g, path._replace(steps=tuple(steps)))
    assert seen == {"conj-down", "conj-equal"}


@pytest.mark.parametrize("label", [7, 2, -1, None])
def test_replay_fails_on_a_label_that_is_not_a_wall(label, a1):
    # A1 has the walls 0 and 1; a negative label must not be read from
    # the end of the wall table
    _, path = reduce_to_min(a1, parse_element(a1, "S1*S0*S1"))
    assert replay(a1, path)
    step = path.steps[0]._replace(label=label)
    assert not replay(a1, path._replace(steps=(step,)))


@pytest.mark.parametrize("label", [2, -1])
def test_conj_step_refuses_a_label_that_is_not_a_wall(label, a1):
    with pytest.raises(InputError, match="not a wall label"):
        conj_step(a1, parse_element(a1, "S1*S0*S1"), label)


def test_reduce_already_minimal(a1):
    s0 = parse_element(a1, "S0")
    w_min, path = reduce_to_min(a1, s0)
    assert w_min == s0
    assert path.steps == ()


def test_reduce_preserves_newton_index(gl5):
    w = parse_element(gl5, "t[1,1,0,1,0]*s2*s1*s4")
    w_min, path = reduce_to_min(gl5, w)
    assert is_min_in_class(gl5, w_min)
    idx = newton_index(gl5, w)
    assert newton_index(gl5, w_min) == idx
    for st in path.steps:
        assert newton_index(gl5, st.result) == idx


def test_is_min_examples(a1):
    assert is_min_in_class(a1, parse_element(a1, "S0"))
    assert is_min_in_class(a1, parse_element(a1, "S1"))
    assert not is_min_in_class(a1, parse_element(a1, "S1*S0*S1"))
    assert is_min_in_class(a1, a1.translation([1]))  # straight


def test_straight_elements_are_minimal(c2):
    from newton_cocenter import is_straight
    for w in c2.enumerate_ball(6):
        if is_straight(c2, w):
            assert is_min_in_class(c2, w)


def test_exhaustive_reduction_with_triples():
    for label in ("A1", "A2", "C2"):
        g = group(label)
        for w in g.enumerate_ball(6):
            w_min, path = reduce_to_min(g, w)
            assert replay(g, path)
            assert is_min_in_class(g, w_min)
            assert len(path.steps) <= wa_ball_count(g, g.length(w))
            idx = newton_index(g, w)
            for st in path.steps:
                assert newton_index(g, st.result) == idx
            triple = standard_triple(g, w_min)
            ux = multiply(triple.u, triple.x)
            assert is_min_in_class(g, ux)
            assert newton_index(g, triple.x) == idx


def test_standard_triple_sl2_affine_reflection(a1):
    triple = standard_triple(a1, parse_element(a1, "S0"))
    assert triple.x == a1.identity
    assert triple.k_labels == (0,)
    assert triple.u == parse_element(a1, "S0")


def test_standard_triple_straight_has_empty_k(a1, gl2):
    t = a1.translation([1])
    triple = standard_triple(a1, t)
    assert triple.x == t and triple.k_labels == () and triple.u == a1.identity
    om = parse_element(gl2, "t[1,0]*s1")
    triple = standard_triple(gl2, om)
    assert triple.x == om and triple.k_labels == () and triple.u == gl2.identity


def test_standard_triple_requires_minimal(a1):
    with pytest.raises(LogicError):
        standard_triple(a1, parse_element(a1, "S1*S0*S1"))


def test_standard_triple_adx_stabilizes_k():
    g = group("A2")
    items = dict(g.simple_items())
    for w in g.enumerate_ball(5):
        if not is_min_in_class(g, w):
            continue
        triple = standard_triple(g, w)
        k_set = {items[lab] for lab in triple.k_labels}
        for s in k_set:
            assert conjugate(triple.x, s) in k_set


def test_minimal_class_closed_and_same_length(a2):
    for w in a2.enumerate_ball(4):
        if not is_min_in_class(a2, w):
            continue
        cls = minimal_class(a2, w)
        assert w in cls
        assert len({a2.length(z) for z in cls}) == 1


def test_conjugacy_oracle_against_orbit_search(a2):
    """The algebraic conjugacy test must agree with brute-force orbit
    exploration by generator conjugation."""
    ball = a2.enumerate_ball(3)
    gens = [s for _, s in a2.simple_items()]
    for w in ball[:12]:
        orbit = {w}
        frontier = [w]
        while frontier:
            x = frontier.pop()
            for s in gens:
                z = conjugate(s, x)
                if a2.length(z) <= 5 and z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        for z in ball:
            if z in orbit:
                assert is_conjugate(a2, w, z) and is_conjugate(a2, z, w)


def test_conjugacy_positives_have_explicit_witnesses():
    """Every pair the algebraic test accepts must admit an explicit
    conjugator t^mu u with small mu (soundness certificate)."""
    from itertools import product
    from newton_cocenter.affine_weyl import AffineWeylElement
    for label in ("A2", "C2"):
        g = group(label)
        ball = g.enumerate_ball(4)
        for w in ball[:10]:
            for z in ball:
                if not is_conjugate(g, w, z):
                    continue
                found = False
                for u in g.datum.weyl_elements:
                    if found:
                        break
                    for mu in product(range(-8, 9), repeat=g.datum.rank):
                        x = AffineWeylElement(mu, u)
                        if conjugate(x, w) == z:
                            found = True
                            break
                assert found, f"no witness for {w} ~ {z} in {label}"


def test_affine_a2_simple_reflections_conjugate(a2):
    s0, s1, s2 = (parse_element(a2, t) for t in ("S0", "S1", "S2"))
    assert is_conjugate(a2, s0, s1)
    assert is_conjugate(a2, s1, s2)
    assert set(class_minimal_set(a2, s1)) == {s0, s1, s2}
    assert canonical_class_rep(a2, s0) == canonical_class_rep(a2, s1) \
        == canonical_class_rep(a2, s2)


def test_sl2_reflections_not_conjugate(a1):
    s0, s1 = parse_element(a1, "S0"), parse_element(a1, "S1")
    assert not is_conjugate(a1, s0, s1)
    assert canonical_class_rep(a1, s0) != canonical_class_rep(a1, s1)


def test_move_orbit_inside_full_minimal_set():
    for label in ("A2", "C2"):
        g = group(label)
        for w in g.enumerate_ball(5):
            if not is_min_in_class(g, w):
                continue
            orbit = set(minimal_class(g, w))
            full = set(class_minimal_set(g, w))
            assert orbit <= full
            assert all(is_conjugate(g, w, z) for z in full)


def test_canonical_reps_are_class_invariants(c2):
    for w in c2.enumerate_ball(5):
        rep = canonical_class_rep(c2, w)
        assert is_min_in_class(c2, rep)
        assert canonical_min_rep(c2, rep) == rep
        for lab, _ in c2.simple_items():
            _, z = conj_step(c2, w, lab)
            assert canonical_class_rep(c2, z) == rep


# -- class enumeration against the ball search it replaced -------------------

def _ball_class_minimal_set(g, w_min, balls):
    """The former class search: every element of the length ball of
    radius length(w_min) over its kappa coset, in canonical order, that
    has that length and is conjugate to w_min."""
    length, label = g.length(w_min), g.kappa(w_min)
    if (length, label) not in balls:
        balls[length, label] = g.enumerate_ball(length, [label])
    return tuple(z for z in balls[length, label]
                 if g.length(z) == length and is_conjugate(g, z, w_min))


@pytest.mark.parametrize("label,lattice,radius", [
    ("A1", "sc", 6), ("A1", "ad", 6), ("A2", "sc", 5), ("A2", "ad", 5),
    ("B2", "sc", 5), ("B2", "ad", 5), ("C2", "sc", 5), ("C2", "ad", 5),
    ("G2", "sc", 5), ("G2", "ad", 5), ("GL2", "sc", 5), ("GL3", "sc", 4),
    ("GL4", "sc", 3),
])
def test_class_minimal_set_matches_ball_search(label, lattice, radius):
    g = AffineWeylGroup(build_root_datum(label, lattice))
    labels = g.datum.omega_labels()
    n = g.datum.rank
    if labels is None and n < 4:    # GL: the coroot lattice and one other coset
        labels = [(0,) * n, (1,) + (0,) * (n - 1)]
    balls = {}
    classes = {reduce_to_min(g, w)[0]
               for w in g.enumerate_ball(radius, labels)}
    for w_min in sorted(classes, key=lambda w: oracle_sort_key(g, w)):
        assert class_minimal_set(g, w_min) == \
            _ball_class_minimal_set(g, w_min, balls), element_str(g, w_min)


def test_long_translation_class_is_its_weyl_orbit(a2):
    # translations are straight, so t^lam is minimal and its class
    # meets the minimal length exactly at the Weyl orbit of lam
    w = a2.translation([30, -30])
    orbit = {a2.translation(mat_act(u, w.translation))
             for u in a2.datum.weyl_elements}
    assert set(class_minimal_set(a2, w)) == orbit


def test_memoised_words_match_fresh_greedy_words():
    # the canonical order and the class keys of the ball fill the warm
    # group's memos; a fresh group derives each word from that element alone
    warm = AffineWeylGroup(build_root_datum("C2"))
    ball = warm.enumerate_ball(6)
    order = list(warm.canonical_order(ball))
    for w in ball:
        canonical_min_rep(warm, w)
    assert order == list(AffineWeylGroup(build_root_datum("C2")).canonical_order(ball))
    for w in ball:
        fresh = AffineWeylGroup(build_root_datum("C2"))
        word = _affine_word(fresh, w)
        assert _affine_word(warm, w) == word
        cur = fresh.omega_rep(fresh.kappa(w))
        for lab in reversed(word):
            cur = multiply(dict(fresh.simple_items())[lab], cur)
        assert cur == w and len(word) == fresh.length(w)
