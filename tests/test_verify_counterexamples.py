"""Counterexample labels of every verify suite, pinned.

The goldens all have failures=0, so they never reach the `first=`
formats.  Here one predicate per suite is replaced, in `verify`'s
namespace (the basis product in that of `hecke_cocenter`, where the
commutators read it), by one that fails on part of the cases, and
every property of the report is pinned as (property, instances,
failures, first counterexample, detail), with failures in every row.  Each test builds
a fresh group, so a patched predicate cannot leave a wrong value in a
memo of the shared groups.
"""

import re
from pathlib import Path

from newton_cocenter import AffineWeylGroup, NewtonIndex, build_root_datum
from newton_cocenter import hecke_cocenter, verify
from newton_cocenter.errors import LogicError, ResourceError
from newton_cocenter.hecke_cocenter import ONE, HeckeElement
from newton_cocenter.reduction import is_min_in_class


def _fresh(label):
    return AffineWeylGroup(build_root_datum(label, "gl" if label.startswith("GL") else "sc"))


def _run(name, group, **params):
    fn, defaults = verify.SUITES[name]
    report = fn(group, {**defaults, "seed": 0, **params})
    return [(c.property_id, c.instances, c.failures, c.first_counterexample, c.detail)
            for c in report.checks]


def _patch(monkeypatch, name, fake, module=verify):
    """Replace module.<name> by fake(original, *args)."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: fake(original, *args, **kw))


def test_grammar_round_trip_label(monkeypatch):
    g = _fresh("A2")
    _patch(monkeypatch, "parse_element",
           lambda orig, grp, text: grp.identity
           if grp.length(orig(grp, text)) == 3 else orig(grp, text))
    assert _run("grammar", g) == [
        ("print-parse-round-trip", 46, 9, "t[0,1]*s2", ""),
    ]


def test_length_oracle_label(monkeypatch):
    g = _fresh("A2")
    _patch(monkeypatch, "_bfs_lengths",
           lambda orig, grp, depth, labels:
           {w: d + (d == 3) for w, d in orig(grp, depth, labels).items()})
    assert _run("length", g) == [
        ("inversion-length-equals-bfs-word-length", 64, 9, "t[0,1]*s2:3!=4", ""),
    ]


def test_newton_labels(monkeypatch):
    g = _fresh("GL3")
    multiply = verify.multiply
    _patch(monkeypatch, "conjugate", lambda orig, x, w: multiply(x, w))
    _patch(monkeypatch, "orbit_sum", lambda orig, w, n: orig(w, n + (n > 2)))
    monkeypatch.setattr(verify, "multiply", lambda a, b: a if a == b else multiply(a, b))
    _patch(monkeypatch, "strata",
           lambda orig, grp, length: dict(list(orig(grp, length).items())[1:]))
    assert _run("newton", g) == [
        ("conjugation-invariance", 155, 125, "t[0,0,0]", ""),
        ("exponent-independence", 31, 19, "t[1,0,-1]*s1*s2*s1", ""),
        ("straight-powers", 65, 60, "t[1,0,-1]*s1^#2", ""),
        ("strata-partition", 31, 1, None, "sizes=3/3/6"),
    ]


def test_straightness_label(monkeypatch):
    g = _fresh("A2")
    _patch(monkeypatch, "is_straight_by_powers",
           lambda orig, grp, w: orig(grp, w) != (grp.length(w) == 2))
    assert _run("straightness", g) == [
        ("pairing-criterion-equals-power-condition", 64, 6, "t[1,1]*s1*s2", ""),
    ]


def test_reduction_labels(monkeypatch):
    g = _fresh("A2")
    _patch(monkeypatch, "replay", lambda orig, grp, path: orig(grp, path) and len(path.steps) < 2)
    _patch(monkeypatch, "wa_ball_count", lambda orig, grp, n: orig(grp, n) if n != 4 else 0)

    def triple(orig, grp, w_min):
        if grp.length(w_min) == 3:
            raise LogicError("no triple")
        return orig(grp, w_min)

    _patch(monkeypatch, "standard_triple", triple)
    _patch(monkeypatch, "is_min_in_class",
           lambda orig, grp, w: orig(grp, w) and grp.length(w) != 2)
    # non-minimal elements of length 4 read a foreign kappa, so a path
    # from one of them down to its minimal end changes the Newton index
    index = g.newton_index
    monkeypatch.setattr(g, "newton_index", lambda w: NewtonIndex((9, 9), index(w).nu_bar)
                        if g.length(w) == 4 and not is_min_in_class(g, w) else index(w))
    assert _run("reduction", g) == [
        ("path-replays", 64, 21, "t[1,2]*s2", ""),
        ("newton-constant-along-path", 64, 18, "t[1,2]*s2*s1", ""),
        ("end-is-minimal", 64, 24, "t[1,1]*s1*s2", ""),
        ("path-length-bound", 64, 6, "t[1,2]*s2*s1", ""),
        ("standard-triple-exists", 64, 42, "t[1,1]*s1*s2", ""),
    ]


def test_alcove_labels(monkeypatch):
    g = _fresh("A2")
    _patch(monkeypatch, "is_v_alcove",
           lambda orig, grp, w, v: orig(grp, w, v) and grp.length(w) != 2)
    assert _run("alcove", g) == [
        ("minimal-implies-newton-alcove", 28, 6, "t[1,1]*s1*s2", ""),
        ("window-matches-doubled-window", 40, 6, "t[1,1]*s1*s2", ""),
    ]


def test_levi_labels(monkeypatch):
    g = _fresh("GL3")
    length, multiply = g.length, verify.multiply
    monkeypatch.setattr(g, "length", lambda w: length(w) - (length(w) == 2))
    _patch(monkeypatch, "_in_ambient_stratum",
           lambda orig, grp, m, w: orig(grp, m, w) and w.translation[0] != -1)
    _patch(monkeypatch, "conjugate", lambda orig, x, w: multiply(x, w))
    _patch(monkeypatch, "_carries_levi",
           lambda orig, datum, s, m, m2: orig(datum, s, m, m2) and m is not m2)
    assert _run("levi", g) == [
        ("levi-length-at-most-ambient", 316, 32, "v=[0,0,0] w=t[-1,-1,-1]*s1*s2", "strict=146"),
        ("levi-stratum-inside-ambient-stratum", 30, 22, "v=[-1,0,1] w=t[-1,-1,-1]", ""),
        ("conjugation-compatible-strata", 70, 43, "v=[-1,0,1] w=t[0,0,0]*s1", ""),
    ]


def test_positivity_label(monkeypatch):
    g = _fresh("GL3")

    def exponent(orig, grp, m, plus, w, v):
        cert = orig(grp, m, plus, w, v)
        return cert._replace(exponent=cert.bound + 1) \
            if grp.length(w) in (1, 2) else cert

    _patch(monkeypatch, "_power_search", exponent)
    assert _run("positivity", g) == [
        ("exponent-within-bound", 176, 63, "v=[0,0,0] w=t[-1,-1,-1]*s1", "skipped=140"),
    ]


def test_cocenter_labels(monkeypatch):
    g = _fresh("A2")
    # T_x T_y = T_x, so a commutator reduces to NF(T_x) - NF(T_y)
    _patch(monkeypatch, "_basis_product", lambda orig, grp, x, y: {x: ONE}, hecke_cocenter)

    def randomized(orig, grp, f, rng):
        r = rng.random()
        if r < 0.3:
            raise ResourceError("out of steps")
        return HeckeElement() if r < 0.5 else orig(grp, f, rng)

    _patch(monkeypatch, "cocenter_reduce_randomized", randomized)
    _patch(monkeypatch, "canonical_class_rep",
           lambda orig, grp, w: w if grp.length(w) == 1 else orig(grp, w))
    assert _run("cocenter", g, pair_budget=3, seeds=6) == [
        ("commutators-vanish", 39, 36, "[t[0,0],t[1,1]*s1*s2*s1]", ""),
        ("confluence-under-random-strategies", 6, 3, "seed=1", ""),
        ("q1-specializes-to-class-map", 19, 2, "t[0,0]*s1", ""),
    ]


def test_rigid_label(monkeypatch):
    g = _fresh("A2")
    _patch(monkeypatch, "rigid_decomposition",
           lambda orig, grp, length: [
               r._replace(covered=i % 2 == 0)
               for i, r in enumerate(orig(grp, length))])
    assert _run("rigid", g) == [
        ("all-components-covered", 4, 2, "(0,0;1/2,1)",
         "(0,0;0,0):G:5 (0,0;1/2,1):M{1}:1 (0,0;1,1/2):M{2}:1 (0,0;1,1):T:1"),
    ]


def test_every_suite_is_pinned():
    # every suite has a test above, every property of an unpatched run
    # has a pinned row, and every pinned row has failures: no property
    # is pinned that its patch cannot make fail
    names = {name[len("test_"):].split("_")[0] for name in globals()
             if name.startswith("test_") and name != "test_every_suite_is_pinned"}
    assert names == set(verify.SUITES)
    pinned = re.findall(r'^\s*\("([a-z0-9-]+)", (\d+), (\d+),',
                        Path(__file__).read_text(encoding="utf-8"), re.M)
    properties = {c.property_id for report in verify.run_suite("all", _fresh("A2"), {})
                  for c in report.checks}
    assert properties == {p for p, _, _ in pinned}
    assert all(int(failures) > 0 for _, _, failures in pinned)
