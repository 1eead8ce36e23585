"""Batch verification suites with machine-readable reports.

Each suite runs a family of exhaustive or seeded checks over a length
ball of the configured group and reports (property, instances tested,
failures, first counterexample).  Reports are canonical: fixed ordering
everywhere, timing kept out of the payload so runs are byte-identical.
"""

from __future__ import annotations

import functools
import io
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .affine_weyl import (
    AffineRoot, AffineWeylElement, AffineWeylGroup, act_on_affine_root,
    conjugate, element_str, inverse, is_positive_affine_root, multiply,
    parse_element,
)
from .errors import InputError, LogicError, ResourceError
from .hecke_cocenter import (
    HeckeElement, QPoly, cocenter_reduce,
    cocenter_reduce_randomized, fraction_free_rank, hecke_mul,
    rigid_decomposition,
)
from .levi_alcove import (
    conjugate_levi, is_v_alcove, levi_weyl_group, m_in_g_stratum_check,
    positivity_exponent,
)
from .newton import is_straight_by_powers, newton_point, strata
from .reduction import (
    canonical_class_rep, is_min_in_class, reduce_to_min, replay,
    standard_triple, wa_ball_count,
)
from .root_datum import dot, frac_str, mat_act, scaled


@dataclass
class CheckResult:
    property_id: str
    instances: int
    failures: int
    first_counterexample: str | None = None
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    group: str
    params: dict
    checks: list[CheckResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.failures == 0 for c in self.checks)

    def add(self, property_id, instances, failures, first=None, detail=""):
        self.checks.append(CheckResult(property_id, instances, failures,
                                       first, detail))

    def to_text(self) -> str:
        lines = [f"suite {self.suite} group {self.group} "
                 + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))]
        for c in self.checks:
            line = f"  {c.property_id}: instances={c.instances} failures={c.failures}"
            if c.detail:
                line += f" [{c.detail}]"
            if c.first_counterexample:
                line += f" first={c.first_counterexample}"
            lines.append(line)
        lines.append(f"result {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_tsv(self) -> str:
        rows = []
        for c in self.checks:
            rows.append("\t".join([
                self.suite, c.property_id, str(c.instances), str(c.failures),
                c.first_counterexample or "", c.detail]))
        return "\n".join(rows)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "group": self.group,
            "params": {k: v for k, v in sorted(self.params.items())},
            "checks": [{
                "property": c.property_id,
                "instances": c.instances,
                "failures": c.failures,
                "first_counterexample": c.first_counterexample,
                "detail": c.detail,
            } for c in self.checks],
            "passed": self.passed,
        }


def _cap(group, length):
    """The ball cap of a suite: a suite enumerates every length it is
    given, while the group's cap bounds the ball queries of the CLI."""
    return max(length, group.ball_cap)


def _ball(group, length, labels=None):
    return group.enumerate_ball(length, labels, cap=_cap(group, length))


def _bfs_lengths(group, max_depth, labels):
    """Word lengths by breadth-first multiplication (the walk of
    `AffineWeylGroup.ball`, which skips left descents by their sign):
    the oracle never calls the inversion-count length function."""
    out = {}
    for label in labels:
        out.update(group.ball(max_depth, label))
    return out


def _omega_conjugators(group):
    labels = group.datum.omega_labels()
    if labels is None:
        n = group.datum.rank
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        labels = sorted({group.datum.kappa_label(e) for e in basis}
                        | {group.datum.kappa_label(tuple(-x for x in e)) for e in basis})
    reps = [group.omega_rep(l) for l in labels]
    return [w for w in reps if w != group.identity]


def _levi_grid(group, max_den=6):
    """Representative rational coweights, one per distinct Levi.

    Low ranks scan the full denominator grid; higher ranks use a small
    value set (the Levi only depends on which roots vanish, so a coarse
    grid already meets every stabilizer pattern the suite needs).  The
    walk runs on the grid scaled by the common denominator d of the
    values; only the representatives kept become Fractions.
    """
    if group.datum.rank <= 2:
        values = sorted({Fraction(p, q) for q in range(1, max_den + 1)
                         for p in range(-q, q + 1)})
    else:
        values = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    d, grid = scaled(values)
    roots = group.datum.roots
    seen = {}
    for x in product(grid, repeat=group.datum.rank):
        m_key = frozenset(a for a in roots if dot(a, x) == 0)
        if m_key not in seen:
            seen[m_key] = x
    return [tuple(Fraction(c, d) for c in seen[k])
            for k in sorted(seen, key=lambda s: tuple(sorted(s)))]


def _levi_box(group, m, max_m_length, box=2, cap=None):
    """All t^lam u with u in W_M and sup-norm of lam at most `box`,
    filtered to M-length <= max_m_length, in M-sort order and cut to
    the first `cap`, memoised on the Levi m (`m.boxes`).  High ranks
    shrink the box and cap the sample to keep suites tractable.

    The candidates are grouped by (M-length, kappa_M), the prefix of
    the M-sort key, and only the tiers that reach the first `cap`
    places are sorted, so no M-word is built for the rest.
    """
    if group.datum.rank > 2:
        box = 1
        cap = 150 if cap is None else cap
    key = (max_m_length, box, cap)
    out = m.boxes.get(key)
    if out is None:
        tiers = {}
        w_m = m.finite_elements()
        for lam in product(range(-box, box + 1), repeat=group.datum.rank):
            label = None
            for u in w_m:
                w = AffineWeylElement(lam, u)
                length = m.length(w)
                if length <= max_m_length:
                    if label is None:
                        label = m.kappa(w)
                    tiers.setdefault((length, label), []).append(w)
        out = []
        for tier in sorted(tiers):
            if cap is not None and len(out) >= cap:
                break
            out.extend(sorted(tiers[tier], key=m.sort_key))
        out = m.boxes[key] = out if cap is None else out[:cap]
    return out


# -- individual suites ---------------------------------------------------


def suite_grammar(group, params):
    rep = SuiteReport("grammar", group.datum.descriptor(), params)
    ball = _ball(group, params["length"])
    fails = 0
    first = None
    for w in ball:
        text = element_str(group, w)
        back = parse_element(group, text)
        word, omega = group.wa_omega_split(w)
        alt = ("*".join(f"S{i}" for i in word) or "E")
        if omega != group.identity:
            alt += "#[" + ",".join(str(x) for x in group.kappa(w)) + "]"
        if back != w or parse_element(group, alt) != w \
                or element_str(group, parse_element(group, text)) != text:
            fails += 1
            first = first or text
    rep.add("print-parse-round-trip", len(ball), fails, first)
    return rep


def suite_length(group, params):
    rep = SuiteReport("length", group.datum.descriptor(), params)
    L = params["length"]
    labels = group.datum.omega_labels() or [(0,) * group.datum.rank]
    oracle = _bfs_lengths(group, L, labels)
    fails = 0
    first = None
    n = 0
    for w, depth in sorted(oracle.items(), key=lambda kv: group.sort_key(kv[0])):
        n += 1
        if group.length(w) != depth:
            fails += 1
            first = first or f"{element_str(group, w)}:{group.length(w)}!={depth}"
    rep.add("inversion-length-equals-bfs-word-length", n, fails, first)
    return rep


def suite_newton(group, params):
    rep = SuiteReport("newton", group.datum.descriptor(), params)
    L = params["length"]
    ball = _ball(group, L)
    omegas = _omega_conjugators(group)

    fails, first, n = 0, None, 0
    for w in ball:
        pi = group.newton_index(w)
        for _, s in group.simple_items():
            n += 1
            if group.newton_index(conjugate(s, w)) != pi:
                fails += 1
                first = first or element_str(group, w)
        for om in omegas:
            n += 1
            if group.newton_index(conjugate(om, w)) != pi:
                fails += 1
                first = first or element_str(group, w)
    rep.add("conjugation-invariance", n, fails, first)

    fails, first = 0, None
    for w in ball:
        order = group.datum.element_order(w.finite)
        total1 = _orbit_sum(w, order)
        total2 = _orbit_sum(w, 2 * order)
        if tuple(Fraction(x, order) for x in total1) != \
                tuple(Fraction(x, 2 * order) for x in total2):
            fails += 1
            first = first or element_str(group, w)
    rep.add("exponent-independence", len(ball), fails, first)

    fails, first, n = 0, None, 0
    for w in ball:
        if not group.is_straight(w):
            continue
        base = group.newton_index(w).nu_bar
        power = w
        for k in range(2, 7):
            power = multiply(power, w)
            n += 1
            ok_len = group.length(power) == k * group.length(w)
            ok_nu = group.newton_index(power).nu_bar == tuple(k * c for c in base)
            if not (ok_len and ok_nu):
                fails += 1
                first = first or f"{element_str(group, w)}^#{k}"
    rep.add("straight-powers", n, fails, first)

    fibers = strata(group, L, cap=_cap(group, L))
    sizes = "/".join(str(len(v)) for v in fibers.values())
    total = sum(len(v) for v in fibers.values())
    rep.add("strata-partition", len(ball), 0 if total == len(ball) else 1,
            None, detail=f"sizes={sizes}")
    return rep


def _orbit_sum(w, n):
    total = list(w.translation)
    cur = w.translation
    for _ in range(n - 1):
        cur = mat_act(w.finite, cur)
        total = [a + b for a, b in zip(total, cur)]
    return tuple(total)


def suite_straightness(group, params):
    rep = SuiteReport("straightness", group.datum.descriptor(), params)
    ball = _ball(group, params["length"])
    fails, first = 0, None
    for w in ball:
        if group.is_straight(w) != is_straight_by_powers(group, w):
            fails += 1
            first = first or element_str(group, w)
    rep.add("pairing-criterion-equals-power-condition", len(ball), fails, first)
    return rep


def suite_reduction(group, params):
    rep = SuiteReport("reduction", group.datum.descriptor(), params)
    ball = _ball(group, params["length"])
    failed = {prop: [] for prop in (
        "path-replays", "newton-constant-along-path", "end-is-minimal",
        "path-length-bound", "standard-triple-exists")}
    for w in ball:
        w_min, path = reduce_to_min(group, w)
        if not replay(group, path):
            failed["path-replays"].append(w)
        pi = group.newton_index(w)
        if not all(group.newton_index(st.result) == pi for st in path.steps):
            failed["newton-constant-along-path"].append(w)
        if not is_min_in_class(group, w_min):
            failed["end-is-minimal"].append(w)
        if len(path.steps) > wa_ball_count(group, group.length(w)):
            failed["path-length-bound"].append(w)
        try:
            triple = standard_triple(group, w_min)
            ux = multiply(triple.u, triple.x)
            ok = is_min_in_class(group, ux) and \
                group.newton_index(ux) == group.newton_index(triple.x) == pi and \
                group.is_straight(triple.x)
        except LogicError:
            ok = False
        if not ok:
            failed["standard-triple-exists"].append(w)
    for prop, bad in failed.items():
        rep.add(prop, len(ball), len(bad),
                element_str(group, bad[0]) if bad else None)
    return rep


def suite_alcove(group, params):
    rep = SuiteReport("alcove", group.datum.descriptor(), params)
    ball = _ball(group, params["length"])
    fails, first, n = 0, None, 0
    minimal = [w for w in ball if is_min_in_class(group, w)]
    for w in minimal:
        n += 1
        if not is_v_alcove(group, w, newton_point(group, w)):
            fails += 1
            first = first or element_str(group, w)
    rep.add("minimal-implies-newton-alcove", n, fails, first)

    fails, first, n = 0, None, 0
    for w in ball[: 40]:
        v = newton_point(group, w)
        n += 1
        if is_v_alcove(group, w, v) != _is_v_alcove_wide(group, w, v):
            fails += 1
            first = first or element_str(group, w)
    rep.add("window-matches-doubled-window", n, fails, first)
    return rep


def _is_v_alcove_wide(group, w, v):
    datum = group.datum
    if tuple(mat_act(w.finite, v)) != tuple(v):
        return False
    plus = [a for a in datum.roots if dot(a, v) > 0]
    winv = inverse(w)
    window = 2 * (max((abs(dot(a, w.translation)) for a in datum.roots),
                      default=0) + 1)
    for beta in plus:
        for k in range(-window, window + 1):
            b = AffineRoot(beta, k)
            if is_positive_affine_root(datum, act_on_affine_root(datum, winv, b)) \
                    and not is_positive_affine_root(datum, b):
                return False
    return True


def suite_levi(group, params):
    rep = SuiteReport("levi", group.datum.descriptor(), params)
    grid = _levi_grid(group, params["max_den"])
    lm = params["m_length"]
    boxes = {v: _levi_box(group, levi_weyl_group(group, v), lm) for v in grid}

    n = fails = 0
    strict = 0
    first = None
    for v in grid:
        m = levi_weyl_group(group, v)
        for w in boxes[v]:
            n += 1
            if m.length(w) > group.length(w):
                fails += 1
                first = first or f"v={_vstr(v)} w={element_str(group, w)}"
            elif m.length(w) < group.length(w):
                strict += 1
    rep.add("levi-length-at-most-ambient", n, fails, first,
            detail=f"strict={strict}")

    n = fails = 0
    first = None
    for v in grid:
        m = levi_weyl_group(group, v)
        for w in boxes[v]:
            n += 1
            if not m_in_g_stratum_check(group, m, w, m.newton_index(w)):
                fails += 1
                first = first or f"v={_vstr(v)} w={element_str(group, w)}"
    rep.add("levi-stratum-inside-ambient-stratum", n, fails, first)

    n = fails = 0
    first = None
    conjugators = group.datum.weyl_elements if group.datum.w0_order <= 16 \
        else group.datum.simple_reflections
    for v in grid:
        m = levi_weyl_group(group, v)
        small = [w for w in boxes[v]
                 if m.length(w) <= 3
                 and all(abs(x) <= 1 for x in w.translation)][:60]
        for u0 in conjugators:
            m2, index_map = conjugate_levi(group, u0, m)
            x0 = group.finite_element(u0)
            for w in small:
                n += 1
                if m2.newton_index(conjugate(x0, w)) != index_map(m.newton_index(w)):
                    fails += 1
                    first = first or f"v={_vstr(v)} w={element_str(group, w)}"
    rep.add("conjugation-compatible-strata", n, fails, first)
    return rep


def _vstr(v):
    return "[" + ",".join(frac_str(Fraction(c)) for c in v) + "]"


def suite_positivity(group, params):
    rep = SuiteReport("positivity", group.datum.descriptor(), params)
    grid = _levi_grid(group, params["max_den"])
    n = fails = skipped = 0
    first = None
    for v in grid:
        m = levi_weyl_group(group, v)
        plus = m.phi_plus
        for w in _levi_box(group, m, 4, box=1):
            _, scaled_nu = scaled(newton_point(group, w))
            if not all(dot(beta, scaled_nu) > 0 for beta in plus):
                skipped += 1
                continue
            n += 1
            try:
                cert = positivity_exponent(group, w, v)
                if cert.exponent > cert.bound:
                    fails += 1
                    first = first or f"v={_vstr(v)} w={element_str(group, w)}"
            except InputError:
                fails += 1
                first = first or f"v={_vstr(v)} w={element_str(group, w)}"
    rep.add("exponent-within-bound", n, fails, first, detail=f"skipped={skipped}")
    return rep


def suite_cocenter(group, params):
    rep = SuiteReport("cocenter", group.datum.descriptor(), params)
    budget = params["pair_budget"]
    ball = _ball(group, budget)

    n = fails = 0
    first = None
    residues = []
    for x, y in combinations(ball, 2):
        if group.length(x) + group.length(y) > budget:
            continue
        n += 1
        tx, ty = HeckeElement.basis(x), HeckeElement.basis(y)
        comm = hecke_mul(group, tx, ty) - hecke_mul(group, ty, tx)
        nf = cocenter_reduce(group, comm)
        if nf:
            fails += 1
            first = first or f"[{element_str(group, x)},{element_str(group, y)}]"
            residues.append(nf)
    rep.add("commutators-vanish", n, fails, first)

    basis_keys = sorted({rep_ for r in residues for rep_ in r.terms},
                        key=group.sort_key)
    if residues:
        matrix = [[r.terms.get(k, QPoly()) for k in basis_keys]
                  for r in residues]
        rank = fraction_free_rank(matrix)
    else:
        rank = 0
    rep.add("residue-rank-zero", 1, 0 if rank == 0 else 1, None,
            detail=f"rank={rank}")

    seeds = params["seeds"]
    base = params["seed"]
    sample = [w for w in _ball(group, min(budget, 4)) if group.length(w) >= 2][:4]
    f = HeckeElement()
    for i, w in enumerate(sample):
        f = f + HeckeElement.basis(w, QPoly((i + 1, 1)))
    target = cocenter_reduce(group, f)
    n = fails = 0
    first = None
    for seed in range(base, base + seeds):
        n += 1
        rng = random.Random(seed)
        try:
            ok = cocenter_reduce_randomized(group, f, rng) == target
        except ResourceError:
            ok = False
        if not ok:
            fails += 1
            first = first or f"seed={seed}"
    rep.add("confluence-under-random-strategies", n, fails, first)

    n = fails = 0
    first = None
    for w in _ball(group, min(budget, 5)):
        n += 1
        nf = cocenter_reduce(group, HeckeElement.basis(w))
        at_one = nf.evaluate_q(1)
        expected = {canonical_class_rep(group, w): 1}
        kappa_ok = all(group.kappa(k) == group.kappa(w) for k in nf.terms)
        if at_one != expected or not kappa_ok:
            fails += 1
            first = first or element_str(group, w)
    rep.add("q1-specializes-to-class-map", n, fails, first)
    return rep


def suite_rigid(group, params):
    rep = SuiteReport("rigid", group.datum.descriptor(), params)
    rows = rigid_decomposition(group, params["length"], cap=_cap(group, params["length"]))
    fails = sum(0 if r.covered else 1 for r in rows)
    first = next((str(r.nu) for r in rows if not r.covered), None)
    detail = " ".join(
        f"{r.nu}:{r.levi_label}:{r.class_count}" for r in rows)
    rep.add("all-components-covered", len(rows), fails, first, detail=detail)
    return rep


SUITES = {
    "grammar": (suite_grammar, {"length": 5}),
    "length": (suite_length, {"length": 6}),
    "newton": (suite_newton, {"length": 4}),
    "straightness": (suite_straightness, {"length": 6}),
    "reduction": (suite_reduction, {"length": 6}),
    "alcove": (suite_alcove, {"length": 6}),
    "levi": (suite_levi, {"m_length": 4, "max_den": 4}),
    "positivity": (suite_positivity, {"max_den": 4}),
    "cocenter": (suite_cocenter, {"pair_budget": 5, "seeds": 25}),
    "rigid": (suite_rigid, {"length": 4}),
}


def run_suite(name: str, group: AffineWeylGroup, overrides: dict,
              jobs: int = 1) -> list[SuiteReport]:
    """Run one suite or, for "all", every suite in `SUITES` order.

    A suite takes the parameters of its `SUITES` defaults and `seed`
    (0 unless overridden).  An override of any other parameter, None
    meaning none, is an InputError for a single suite; "all" gives
    each override to the suites that take it.

    With jobs > 1 and more than one suite, the suites run in forked
    worker processes (`_run_forked`); the reports, and the exception of
    the first failing suite, are those of the serial loop.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise InputError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(sorted(SUITES))} or 'all'")
    given = {k: v for k, v in overrides.items() if v is not None and k != "seed"}
    tasks = []
    for n in names:
        defaults = SUITES[n][1]
        unknown = sorted(given.keys() - defaults.keys())
        if unknown and name != "all":
            raise InputError(f"suite {n!r} takes no {', '.join(unknown)}; its "
                             f"parameters are {', '.join(sorted(defaults))} and seed")
        params = {**defaults, "seed": overrides.get("seed") or 0}
        params.update((k, v) for k, v in given.items() if k in defaults)
        tasks.append((n, params))
    if jobs > 1 and len(tasks) > 1:
        if hasattr(os, "fork"):
            return _run_forked(group, tasks, jobs)
        _no_fork_notice()
    return [_run_timed(group, n, params) for n, params in tasks]


def _run_timed(group, name, params) -> SuiteReport:
    start = time.monotonic()
    report = SUITES[name][0](group, params)
    report.wall_time = time.monotonic() - start
    return report


# -- worker processes ----------------------------------------------------

# The shards of `verify all --jobs N`, heaviest first.  `positivity` runs
# after `levi` in the same worker, because it reuses the Levi groups,
# boxes and Newton memos that `levi` leaves on the group.  Every other
# suite is a shard of its own, started after these in suite order.
_HEAVY_SHARDS = (("levi", "positivity"), ("cocenter",), ("reduction",))


@functools.cache
def _no_fork_notice():
    print("note: no os.fork here, so --jobs runs the suites serially", file=sys.stderr)


def _shards(names) -> list[list[int]]:
    heavy = [[names.index(n) for n in shard if n in names] for shard in _HEAVY_SHARDS]
    placed = {i for shard in heavy for i in shard}
    return [s for s in heavy if s] + [[i] for i in range(len(names)) if i not in placed]


class _WorkerTraceback(Exception):
    """The traceback, in its worker, of an exception raised by a suite."""


def _run_forked(group, tasks, jobs) -> list[SuiteReport]:
    """Run the shards of `tasks` in min(jobs, shards) forked workers,
    which inherit the group and its memos, and only collect here.

    Shard indices wait in a pipe, one byte each: a one-byte read is
    atomic, so every shard runs once.  The reports come back in suite
    order and the error that surfaces is that of the earliest failing
    suite, as in the serial loop; a suite whose worker died before
    reporting it is a LogicError.  Every worker has been reaped when
    this returns or raises."""
    import signal  # here and below, not at start-up: they cost it 1.5 ms
    shards = _shards([n for n, _ in tasks])
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(shards))))
    os.close(feed)
    parent = os.getpid()
    pids, pipes = [], []
    try:
        for _ in range(min(jobs, len(shards))):
            r, w = os.pipe()
            pipes.append(r)
            try:
                # safe while this process has no other thread: the CLI starts none
                pid = os.fork()
                if pid == 0:
                    _work(group, tasks, shards, queue, w, pipes, parent)
            finally:
                os.close(w)
            pids.append(pid)
        messages = _receive(pipes)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in [queue, *pipes]:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results = {}
    for reports in messages:
        results.update(reports)
    for name, _ in tasks:
        if name not in results:
            missing = ", ".join(n for n, _ in tasks if n not in results)
            raise LogicError(f"a worker process ended (exit codes {codes}) "
                             f"without reporting suite(s) {missing}")
        if isinstance(results[name], tuple):
            error, text = results[name]
            raise error from _WorkerTraceback(text)
    return [results[n] for n, _ in tasks]


def _receive(fds) -> list:
    """The messages pickled to each pipe, all pipes read as data comes,
    so that no writer waits; a message cut short by the death of its
    worker ends the messages of that pipe."""
    import pickle
    import select
    chunks = {fd: [] for fd in fds}
    waiting = set(fds)
    while waiting:
        for fd in select.select(waiting, (), ())[0]:
            data = os.read(fd, 1 << 16)
            if data:
                chunks[fd].append(data)
            else:
                waiting.remove(fd)
    messages = []
    for data in map(b"".join, chunks.values()):
        stream = io.BytesIO(data)
        try:
            while stream.tell() < len(data):
                messages.append(pickle.load(stream))
        except (EOFError, pickle.UnpicklingError):
            pass
    return messages


def _work(group, tasks, shards, queue, fd, readers, parent):
    """The body of a forked worker, which never returns.  Per shard it
    sends {suite: report or (error, traceback)}.  It closes the
    `readers` it inherited, so a worker whose parent died gets EPIPE,
    and exits quietly, instead of waiting on a full pipe; and it exits
    before each suite once its parent pid is no longer `parent`, since
    no one is left to read its reports."""
    import pickle
    code = 1
    try:
        for r in readers:
            os.close(r)
        out = os.fdopen(fd, "wb")
        while index := os.read(queue, 1):
            results = {}
            for i in shards[index[0]]:
                if os.getppid() != parent:
                    os._exit(0)
                name, params = tasks[i]
                try:
                    results[name] = _run_timed(group, name, params)
                except Exception as exc:
                    import traceback
                    results[name] = (exc, "".join(traceback.format_exception(exc)))
            out.write(pickle.dumps(results))
            out.flush()
        code = 0
    except BrokenPipeError:
        pass  # the parent died: no one is left to tell
    except Exception:
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)
