"""Acceptance criteria, one test per criterion.

Everything here is exact integer/rational arithmetic, so the stated
tolerance of every check is exact equality; runtime budgets from the
statement of each criterion are asserted as well.  Each test prints one
pass/fail line (run with -s to see them stream).
"""

import time
from fractions import Fraction
from itertools import combinations, product

from newton_cocenter import (
    AffineRoot, act_on_affine_root, conjugate, is_min_in_class,
    is_positive_affine_root, is_straight, is_straight_by_powers, multiply,
    newton_index, newton_point, parse_element, reduce_to_min,
    standard_triple,
)
from newton_cocenter.affine_weyl import AffineWeylElement
from newton_cocenter.hecke_cocenter import (
    HeckeElement, QPoly, cocenter_reduce, cocenter_reduce_randomized,
    hecke_mul, rigid_decomposition,
)
from newton_cocenter.levi_alcove import (
    is_v_alcove, levi_weyl_group, positivity_exponent,
)
from newton_cocenter.reduction import replay, wa_ball_count
from newton_cocenter.root_datum import coweight, dot
from newton_cocenter.cli import main as cli_main
from conftest import group

F = Fraction


def report(cid, label, ok, budget, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"criterion {cid:02d} {label}: {status} "
          f"({elapsed:.2f}s of {budget:.0f}s){extra}")
    assert ok, f"criterion {cid} {label} failed{extra}"
    assert elapsed < budget, f"criterion {cid} exceeded {budget}s budget"


def test_c01_gl5_anchor():
    start = time.monotonic()
    g = group("GL5")
    w = parse_element(g, "t[1,1,0,1,0]*s2*s1*s4")
    nu_ok = newton_point(g, w) == coweight([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)])
    image = act_on_affine_root(g.datum, w, AffineRoot((0, 0, -1, 1, 0), 0))
    root_ok = image == AffineRoot((0, -1, 0, 0, 1), -1) and \
        not is_positive_affine_root(g.datum, image)
    report(1, "gl5-anchor", nu_ok and root_ok, 1.0, time.monotonic() - start)


def _bfs_lengths(g, depth, labels):
    out = {}
    for label in labels:
        start = g.omega_rep(label)
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


def test_c02_length_oracle():
    start = time.monotonic()
    mismatches = 0
    total = 0
    for label, depth in [("A1", 8), ("A2", 8), ("C2", 8), ("G2", 8)]:
        g = group(label)
        oracle = _bfs_lengths(g, depth, [(0,) * g.datum.rank])
        for w, d in oracle.items():
            total += 1
            if g.length(w) != d:
                mismatches += 1
    g = group("GL3")
    labels = [g.datum.kappa_label((k, 0, 0)) for k in (-1, 0, 1)]
    for w, d in _bfs_lengths(g, 5, labels).items():
        total += 1
        if g.length(w) != d:
            mismatches += 1
    report(2, "length-oracle", mismatches == 0, 60.0,
           time.monotonic() - start, f"{total} elements")


def test_c03_newton_invariance():
    start = time.monotonic()
    failures = 0
    total = 0
    for label in ("A1", "A2", "C2"):
        g = group(label)
        omega_labels = g.datum.omega_labels() or ()
        omegas = [g.omega_rep(l) for l in omega_labels]
        conjugators = [s for _, s in g.simple_items()] + \
            [om for om in omegas if om != g.identity]
        for w in g.enumerate_ball(6):
            idx = newton_index(g, w)
            for x in conjugators:
                total += 1
                if newton_index(g, conjugate(x, w)) != idx:
                    failures += 1
    report(3, "newton-invariance", failures == 0, 60.0,
           time.monotonic() - start, f"{total} conjugations")


def test_c04_theorem_min_shadow():
    start = time.monotonic()
    failures = 0
    total = 0
    for label in ("A1", "A2", "C2", "G2"):
        g = group(label)
        for w in g.enumerate_ball(8):
            total += 1
            w_min, path = reduce_to_min(g, w)
            idx = newton_index(g, w)
            ok = replay(g, path) and is_min_in_class(g, w_min)
            ok = ok and all(newton_index(g, st.result) == idx
                            for st in path.steps)
            ok = ok and len(path.steps) <= wa_ball_count(g, g.length(w))
            if ok:
                triple = standard_triple(g, w_min)
                ok = newton_index(g, triple.x) == idx and \
                    is_straight(g, triple.x) and \
                    is_min_in_class(g, multiply(triple.u, triple.x))
            if not ok:
                failures += 1
    report(4, "minimal-reduction-with-triples", failures == 0, 300.0,
           time.monotonic() - start, f"{total} elements")


def test_c05_straightness_consistency():
    start = time.monotonic()
    disagreements = 0
    total = 0
    for label, depth in [("A1", 8), ("A2", 6), ("C2", 6), ("G2", 6)]:
        g = group(label)
        for w in g.enumerate_ball(depth):
            total += 1
            if is_straight(g, w) != is_straight_by_powers(g, w):
                disagreements += 1
    report(5, "straightness-consistency", disagreements == 0, 60.0,
           time.monotonic() - start, f"{total} elements")


def test_c06_minimal_implies_newton_alcove():
    start = time.monotonic()
    failures = 0
    total = 0
    for label in ("A1", "A2", "C2", "G2"):
        g = group(label)
        for w in g.enumerate_ball(8):
            if not is_min_in_class(g, w):
                continue
            total += 1
            if not is_v_alcove(g, w, newton_point(g, w)):
                failures += 1
    report(6, "minimal-implies-alcove", failures == 0, 120.0,
           time.monotonic() - start, f"{total} minimal elements")


def _levi_reps(g, max_den):
    values = sorted({F(p, q) for q in range(1, max_den + 1)
                     for p in range(-q, q + 1)})
    seen = {}
    for coords in product(values, repeat=g.datum.rank):
        key = frozenset(a for a in g.datum.roots if dot(a, coords) == 0)
        if key not in seen:
            seen[key] = coords
    return [seen[k] for k in sorted(seen, key=lambda s: tuple(sorted(s)))]


def test_c07_levi_stratum_compatibility():
    start = time.monotonic()
    failures = 0
    total = 0
    for label in ("A1", "A2", "C2"):
        g = group(label)
        for v in _levi_reps(g, 6):
            m = levi_weyl_group(g, coweight(v))
            for coords in product(range(-2, 3), repeat=g.datum.rank):
                for u in m.finite_elements():
                    w = AffineWeylElement(tuple(coords), u)
                    if m.length(w) > 6:
                        continue
                    total += 1
                    nu_m = m.newton_index(w)
                    if g.index_of(nu_m.omega, nu_m.nu_bar) != g.newton_index(w):
                        failures += 1
    report(7, "levi-stratum-compatibility", failures == 0, 120.0,
           time.monotonic() - start, f"{total} elements")


def test_c08_positivity_exponent_bound():
    start = time.monotonic()
    violations = 0
    total = 0
    g = group("GL5")
    v = coweight([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)])
    w = parse_element(g, "t[1,1,0,1,0]*s2*s1*s4")
    cert = positivity_exponent(g, w, v)
    total += 1
    if not (1 < cert.exponent <= cert.bound and cert.denominator_scale == 6):
        violations += 1
    for label in ("A1", "A2", "C2"):
        gg = group(label)
        for vv in _levi_reps(gg, 4):
            m = levi_weyl_group(gg, coweight(vv))
            plus = [a for a in gg.datum.roots if dot(a, vv) > 0]
            for coords in product(range(-1, 2), repeat=gg.datum.rank):
                for u in m.finite_elements():
                    cand = AffineWeylElement(tuple(coords), u)
                    nu = newton_point(gg, cand)
                    if not all(dot(b, nu.x) > 0 for b in plus):
                        continue
                    total += 1
                    c = positivity_exponent(gg, cand, coweight(vv))
                    if c.exponent > c.bound:
                        violations += 1
    report(8, "positivity-exponent-bound", violations == 0, 120.0,
           time.monotonic() - start, f"{total} certificates")


def test_c09_cocenter_well_definedness():
    start = time.monotonic()
    failures = 0
    pairs = 0
    for label, budget in [("A1", 8), ("A2", 6), ("C2", 6)]:
        g = group(label)
        ball = g.enumerate_ball(budget)
        for x, y in combinations(ball, 2):
            if g.length(x) + g.length(y) > budget:
                continue
            pairs += 1
            tx, ty = HeckeElement.basis(x), HeckeElement.basis(y)
            comm = hecke_mul(g, tx, ty) - hecke_mul(g, ty, tx)
            if cocenter_reduce(g, comm):
                failures += 1
    confluence_failures = 0
    g = group("A2")
    sample = [w for w in g.enumerate_ball(4) if g.length(w) >= 2][:4]
    f = HeckeElement()
    for i, w in enumerate(sample):
        f = f + HeckeElement.basis(w, QPoly((i + 1, 1)))
    target = cocenter_reduce(g, f)
    import random as _random
    for seed in range(500):
        if cocenter_reduce_randomized(g, f, _random.Random(seed)) != target:
            confluence_failures += 1
    ok = failures == 0 and confluence_failures == 0
    report(9, "cocenter-well-definedness", ok, 600.0,
           time.monotonic() - start,
           f"{pairs} commutators, 500 strategies")


def test_c10_rigid_decomposition():
    start = time.monotonic()
    rows = rigid_decomposition(group("A1"), 4, [(0,)])
    table = [(r.nu.nu_bar, r.levi_label, r.class_count, r.covered)
             for r in rows]
    sl2_ok = table == [
        (coweight([F(0)]), "G", 3, True),
        (coweight([F(1)]), "T", 1, True),
        (coweight([F(2)]), "T", 1, True),
    ]
    covered_ok = True
    for label in ("A1", "A2", "C2"):
        g = group(label)
        if not all(r.covered for r in rigid_decomposition(g, 6)):
            covered_ok = False
    report(10, "rigid-decomposition", sl2_ok and covered_ok, 300.0,
           time.monotonic() - start)


def test_c11_determinism(capsys):
    start = time.monotonic()
    code1 = cli_main(["--group", "A1", "--jobs", "1", "verify", "all"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["--group", "A1", "--jobs", "8", "verify", "all"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(11, "jobs-determinism", ok, 120.0, elapsed)
