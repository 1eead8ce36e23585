"""Batch verification suites with machine-readable reports.

Each suite runs a family of exhaustive or seeded checks over a length
ball of the configured group and reports (property, instances tested,
failures, first counterexample).  Every property but the verdict
`strata-partition` runs through one runner, `SuiteReport.check`, which
counts its (subject, ok) cases and formats only the first failing subject.
Reports are canonical: fixed ordering everywhere, timing kept out of
the payload so runs are byte-identical.
"""

from __future__ import annotations

import functools
import io
import os
import random
import sys
import time
from bisect import bisect_right
from itertools import chain, islice, product

from .affine_weyl import (
    AffineRoot, AffineWeylGroup, act_on_affine_root, conjugate, element_str, inverse,
    is_positive_affine_root, multiply, parse_element,
)
from .errors import InputError, LogicError, ResourceError
from .hecke_cocenter import (
    HeckeElement, QPoly, cocenter_reduce, cocenter_reduce_randomized, commutator_form,
    rigid_decomposition,
)
from .levi_alcove import (
    _power_search, conjugate_levi, is_v_alcove, levi_weyl_group, newton_v_positive,
    parabolic_faces, phi_plus,
)
from .newton import is_straight_by_powers, newton_point, orbit_sum, strata
from .reduction import (
    canonical_class_rep, is_min_in_class, reduce_to_min, replay,
    standard_triple, wa_ball_count,
)
from .root_datum import Coweight, Record, coset_reduce, dot, mat_act, weyl_product


class CheckResult(Record):
    __slots__ = ("property_id", "instances", "failures", "first_counterexample", "detail")

    def __init__(self, property_id: str, instances: int, failures: int,
                 first_counterexample: str | None = None, detail: str = ""):
        self.property_id = property_id
        self.instances = instances
        self.failures = failures
        self.first_counterexample = first_counterexample
        self.detail = detail


class SuiteReport(Record):
    __slots__ = ("suite", "group", "params", "checks", "wall_time")

    def __init__(self, suite: str, group: str, params: dict,
                 checks: list[CheckResult] | None = None, wall_time: float = 0.0):
        self.suite = suite
        self.group = group
        self.params = params
        self.checks = [] if checks is None else checks
        self.wall_time = wall_time

    @property
    def passed(self) -> bool:
        return all(c.failures == 0 for c in self.checks)

    def add(self, property_id, instances, failures, first=None, detail=""):
        self.checks.append(CheckResult(property_id, instances, failures,
                                       first, detail))

    def check(self, property_id, cases, show) -> CheckResult:
        """Run one property over `cases`, lazily yielded (subject, ok)
        pairs: count the instances and failures and format, by `show`,
        the first failing subject only.  Returns the appended result,
        whose `detail` the suite may set."""
        instances = failures = 0
        first = None
        for subject, ok in cases:
            instances += 1
            if not ok:
                if not failures:
                    first = show(subject)
                failures += 1
        self.checks.append(result := CheckResult(property_id, instances, failures, first))
        return result

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


def _bfs_lengths(group, max_depth, labels):
    """Word lengths as the layer indices of the walk of `AffineWeylGroup.ball`
    (wall products chosen by affine-root signs): the oracle never calls
    the inversion-count length function."""
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


def _levi_box(group, m, max_m_length):
    """All t^lam u with u in W_M, sup-norm of lam at most 2 and M-length
    <= max_m_length, memoised on the Levi m (`m.boxes`); generated from
    their M-lengths by `m.short_translates`, not filtered from the box.
    High ranks shrink the box to sup-norm 1 and cut it to its first 150
    in canonical order, to keep suites tractable.  Otherwise a box is by
    ascending M-length only: a report puts in canonical order only what
    it reads in that order (`_short`, `_failures_first`)."""
    box, cap = (1, 150) if group.datum.rank > 2 else (2, None)
    out = m.boxes.get(max_m_length)
    if out is None:
        out = m.boxes[max_m_length] = m.short_translates(
            product(range(-box, box + 1), repeat=group.datum.rank), max_m_length, cap)
    return out


def _levi_faces(group):
    """One v per Levi containing T, the first of `parabolic_faces` with
    that Levi; the Levis in the order of their sorted roots."""
    levis = {}
    for v in parabolic_faces(group):
        levis.setdefault(levi_weyl_group(group, v).phi_m, v)
    return [levis[k] for k in sorted(levis)]


def _levi_boxes(group, max_m_length):
    """(v, M, box of M) for each v of `_levi_faces`."""
    return [(v, m, _levi_box(group, m, max_m_length))
            for v in _levi_faces(group) for m in [levi_weyl_group(group, v)]]


# -- individual suites ---------------------------------------------------


def suite_grammar(group, params):
    rep = SuiteReport("grammar", group.datum.descriptor(), params)
    rep.check("print-parse-round-trip",
              ((w, _round_trips(group, w)) for w in group.enumerate_ball(params["length"])),
              functools.partial(element_str, group))
    return rep


def _round_trips(group, w):
    """w parses back from its text, and from its wall word and kappa,
    and its text prints back from the parse."""
    text = element_str(group, w)
    back = parse_element(group, text)
    alt = "*".join(f"S{i}" for i in _affine_word(group, w)) or "E"
    if any(kappa := group.kappa(w)):
        alt += "#[" + ",".join(map(str, kappa)) + "]"
    return back == w and parse_element(group, alt) == w \
        and element_str(group, back) == text


def _affine_word(group, w):
    """The lex-least reduced word of w omega^{-1}, omega = omega_rep(kappa(w)):
    its least left descent, peeled off until the length is 0 (no memo)."""
    cur, word = multiply(w, inverse(group.omega_rep(group.kappa(w)))), []
    for _ in range(group.length(cur)):
        word.append(i := group.least_left_descent(cur))
        cur = group.wall_times(i, cur)
    return tuple(word)


def suite_length(group, params):
    rep = SuiteReport("length", group.datum.descriptor(), params)
    labels = group.datum.omega_labels() or [(0,) * group.datum.rank]
    oracle = _bfs_lengths(group, params["length"], labels)
    rep.check("inversion-length-equals-bfs-word-length",
              (((w, oracle[w]), group.length(w) == oracle[w])
               for w in group.enumerate_ball(params["length"], labels)),
              lambda wd: f"{element_str(group, wd[0])}:{group.length(wd[0])}!={wd[1]}")
    return rep


def suite_newton(group, params):
    rep = SuiteReport("newton", group.datum.descriptor(), params)
    L = params["length"]
    ball = group.enumerate_ball(L)
    show = functools.partial(element_str, group)
    conjugators = [s for _, s in group.simple_items()] + _omega_conjugators(group)
    rep.check("conjugation-invariance",
              ((w, group.newton_index(conjugate(x, w)) == pi)
               for w in ball for pi in [group.newton_index(w)] for x in conjugators),
              show)
    rep.check("exponent-independence",
              ((w, Coweight(n, orbit_sum(w, n)) == Coweight(2 * n, orbit_sum(w, 2 * n)))
               for w in ball for n in [group.datum.element_order(w.finite)]), show)
    rep.check("straight-powers", _straight_powers(group, ball),
              lambda wk: f"{element_str(group, wk[0])}^#{wk[1]}")

    fibers = strata(group, L)
    sizes = "/".join(str(len(v)) for v in fibers.values())
    total = sum(len(v) for v in fibers.values())
    rep.add("strata-partition", len(ball), 0 if total == len(ball) else 1,
            None, detail=f"sizes={sizes}")
    return rep


def _straight_powers(group, ball):
    """((w, k), ok) for each straight w of the ball and k = 2..6: w^k
    has k times the length and the Newton point of w."""
    for w in filter(group.is_straight, ball):
        length, nu = group.length(w), group.newton_index(w).nu_bar
        power = w
        for k in range(2, 7):
            power = multiply(power, w)
            yield (w, k), group.length(power) == k * length \
                and group.newton_index(power).nu_bar == Coweight(nu.d, [k * c for c in nu.x])


def suite_straightness(group, params):
    rep = SuiteReport("straightness", group.datum.descriptor(), params)
    rep.check("pairing-criterion-equals-power-condition",
              ((w, group.is_straight(w) == is_straight_by_powers(group, w))
               for w in group.enumerate_ball(params["length"])),
              functools.partial(element_str, group))
    return rep


def suite_reduction(group, params):
    rep = SuiteReport("reduction", group.datum.descriptor(), params)
    show = functools.partial(element_str, group)
    runs = [(w, group.newton_index(w), *reduce_to_min(group, w))
            for w in group.enumerate_ball(params["length"])]
    rep.check("path-replays", ((w, replay(group, path)) for w, _, _, path in runs), show)
    rep.check("newton-constant-along-path",
              ((w, all(group.newton_index(st.result) == pi for st in path.steps))
               for w, pi, _, path in runs), show)
    rep.check("end-is-minimal",
              ((w, is_min_in_class(group, w_min)) for w, _, w_min, _ in runs), show)
    rep.check("path-length-bound",
              ((w, len(path.steps) <= wa_ball_count(group, group.length(w)))
               for w, _, _, path in runs), show)
    rep.check("standard-triple-exists",
              ((w, _standard_triple_holds(group, w_min, pi)) for w, pi, w_min, _ in runs),
              show)
    return rep


def _standard_triple_holds(group, w_min, pi):
    """w_min has a standard triple (x, u): u x minimal with x straight,
    both of Newton index pi."""
    try:
        triple = standard_triple(group, w_min)
        ux = multiply(triple.u, triple.x)
        return is_min_in_class(group, ux) and \
            group.newton_index(ux) == group.newton_index(triple.x) == pi and \
            group.is_straight(triple.x)
    except LogicError:
        return False


def suite_alcove(group, params):
    rep = SuiteReport("alcove", group.datum.descriptor(), params)
    ball = group.enumerate_ball(params["length"])
    show = functools.partial(element_str, group)
    rep.check("minimal-implies-newton-alcove",
              ((w, is_v_alcove(group, w, newton_point(group, w)))
               for w in ball if is_min_in_class(group, w)), show)
    rep.check("window-matches-doubled-window",
              ((w, is_v_alcove(group, w, v) == _is_v_alcove_wide(group, w, v))
               for w in ball[: 40] for v in [newton_point(group, w)]), show)
    return rep


def _is_v_alcove_wide(group, w, v):
    datum = group.datum
    if mat_act(w.finite, v.x) != v.x:
        return False
    winv = inverse(w)
    window = 2 * (max((abs(dot(a, w.translation)) for a in datum.roots),
                      default=0) + 1)
    for beta in phi_plus(group, v):
        for k in range(-window, window + 1):
            b = AffineRoot(beta, k)
            if is_positive_affine_root(datum, act_on_affine_root(datum, winv, b)) \
                    and not is_positive_affine_root(datum, b):
                return False
    return True


def suite_levi(group, params):
    rep = SuiteReport("levi", group.datum.descriptor(), params)
    boxes = _levi_boxes(group, params["m_length"])
    show = functools.partial(_levi_case_str, group)

    excess = [(v, m, [(w, m.length(w) - group.length(w)) for w in box]) for v, m, box in boxes]
    rep.check("levi-length-at-most-ambient",
              (case for v, m, ds in excess
               for case in _failures_first(v, m, ((w, d <= 0) for w, d in ds))),
              show).detail = f"strict={sum(d < 0 for _, _, ds in excess for _, d in ds)}"
    shorts = [(v, m, _short(m, box)) for v, m, box in boxes]
    rep.check("levi-stratum-inside-ambient-stratum",
              (((v, w), _in_ambient_stratum(group, m, w))
               for v, m, small in shorts for w in small), show)
    rep.check("conjugation-compatible-strata", _conjugation_cases(group, shorts), show)
    return rep


def _failures_first(v, m, cases):
    """((v, w), ok) for the (w, ok) cases of the box of the Levi m of v:
    the failing w first, in the canonical order of m, then the others.
    So a report's first counterexample is the one that the box sorted in
    canonical order would give, with no other w sorted."""
    cases = list(cases)
    for w in m.canonical_order([w for w, ok in cases if not ok]):
        yield (v, w), False
    for w, ok in cases:
        if ok:
            yield (v, w), True


def _in_unit_cube(w):
    return max(map(abs, w.translation)) <= 1


def _short(m, box):
    """Six w of the box with M-length <= 3 and translation in the unit cube,
    in canonical order, those of M-length 0 last: only positive M-length
    gives a Newton point that M-conjugation moves.  Sorted lazily, one
    M-length at a time: 1, 2, 3, then 0, until six are taken.  The box is
    by ascending M-length, so the scan stops at the first longer w."""
    by_length = [[], [], [], []]
    for w in box:
        if (n := m.length(w)) > 3:
            break
        if _in_unit_cube(w):
            by_length[n].append(w)
    ordered = map(m.canonical_order, by_length[1:] + by_length[:1])
    return list(islice(chain.from_iterable(ordered), 6))


def _in_ambient_stratum(group, m, w):
    """The ambient Newton index of w is the image of its M-index, which
    each M-simple conjugation keeps.  Six w per Levi suffice: Phi_M lies
    in Phi, so the coroot lattice of M lies in that of G and W_M in W0,
    and the image is the ambient index for every w once `index_of` and
    `dominant_rep` are right, which the sample checks end to end."""
    nu_m = m.newton_index(w)
    return group.newton_index(w) == group.index_of(nu_m.omega, nu_m.nu_bar) and all(
        m.newton_index(m.wall_times(i, m.times_wall(w, i))) == nu_m
        for i in range(len(m.simple_items())))


def _conjugation_cases(group, shorts):
    """((v, x), ok) for each (v, M, `_short` sample of the box of M) and
    simple reflection s, with M' the Levi of s(v): first x = s, ok if s
    carries M onto M' (`_carries_levi`); then each w of the sample,
    ok if the index map of M' sends the M-Newton index of w to that of
    s w s, which checks `conjugate`, `index_of` and `dominant_rep` end
    to end.  The Levis are all those containing T and the simple
    reflections generate W0, so the facts of `_carries_levi` hold for
    every conjugator in W0, and with them the index map, as Newton
    points commute with conjugation."""
    for v, m, small in shorts:
        for s in group.datum.simple_reflections:
            m2, index_map = conjugate_levi(group, s, v)
            x0 = group.finite_element(s)
            yield (v, x0), _carries_levi(group.datum, s, m, m2)
            for w in small:
                yield (v, w), m2.newton_index(conjugate(x0, w)) == index_map(m.newton_index(w))


def _carries_levi(datum, s, m, m2):
    """s maps the coroot lattice of m onto that of m2 (each M-simple
    coroot into it, and back, as s = s^-1), and s W_M s is W_M2."""
    return all(not any(coset_reduce(mat_act(s, datum.coroot[a]), m_b.coroot_hnf))
               for m_a, m_b in ((m, m2), (m2, m)) for a in m_a.m_simple_roots) \
        and {weyl_product(weyl_product(s, u), s) for u in m.finite_elements()} \
        == set(m2.finite_elements())


def _levi_case_str(group, vw):
    return f"v=[{','.join(vw[0].strs())}] w={element_str(group, vw[1])}"


def suite_positivity(group, params):
    rep = SuiteReport("positivity", group.datum.descriptor(), params)
    boxes = [(v, m, [w for w in box if _in_unit_cube(w)])
             for v, m, box in _levi_boxes(group, 4)]
    result = rep.check(
        "exponent-within-bound",
        (case for v, m, box in boxes for plus in [phi_plus(group, v)]
         for case in _failures_first(v, m, (
             (w, cert.exponent <= cert.bound)
             for w in box if newton_v_positive(group, plus, w)
             for cert in [_power_search(group, m, plus, w, v)]))),
        functools.partial(_levi_case_str, group))
    result.detail = f"skipped={sum(len(box) for _, _, box in boxes) - result.instances}"
    return rep


def suite_cocenter(group, params):
    rep = SuiteReport("cocenter", group.datum.descriptor(), params)
    budget = params["pair_budget"]
    show = functools.partial(element_str, group)

    # x before y with length(x) + length(y) <= budget: a window of the length-sorted ball
    ball = group.enumerate_ball(budget)
    lengths = [group.length(w) for w in ball]
    rep.check("commutators-vanish",
              (((x, y), not commutator_form(group, x, y))
               for i, x in enumerate(ball)
               for y in ball[i + 1:bisect_right(lengths, budget - lengths[i])]),
              lambda xy: f"[{show(xy[0])},{show(xy[1])}]")

    base = params["seed"]
    sample = [w for w in group.enumerate_ball(min(budget, 4)) if group.length(w) >= 2][:4]
    f = HeckeElement({w: QPoly((i + 1, 1)) for i, w in enumerate(sample)})
    target = cocenter_reduce(group, f)
    rep.check("confluence-under-random-strategies",
              ((seed, _reduces_to(group, f, random.Random(seed), target))
               for seed in range(base, base + params["seeds"])),
              lambda seed: f"seed={seed}")
    rep.check("q1-specializes-to-class-map",
              ((w, _specializes_to_class(group, w))
               for w in group.enumerate_ball(min(budget, 5))),
              show)
    return rep


def _reduces_to(group, f, rng, target):
    try:
        return cocenter_reduce_randomized(group, f, rng) == target
    except ResourceError:
        return False


def _specializes_to_class(group, w):
    """At q = 1 the normal form of T_w is its class, and every term has
    the kappa of w."""
    nf = cocenter_reduce(group, HeckeElement.basis(w))
    return nf.evaluate_q(1) == {canonical_class_rep(group, w): 1} \
        and all(group.kappa(k) == group.kappa(w) for k in nf.terms)


def suite_rigid(group, params):
    rep = SuiteReport("rigid", group.datum.descriptor(), params)
    rows = rigid_decomposition(group, params["length"])
    rep.check("all-components-covered", ((r, r.covered) for r in rows),
              lambda r: str(r.nu)).detail = " ".join(
        f"{r.nu}:{r.levi_label}:{r.class_count}" for r in rows)
    return rep


SUITES = {
    "grammar": (suite_grammar, {"length": 5}),
    "length": (suite_length, {"length": 6}),
    "newton": (suite_newton, {"length": 4}),
    "straightness": (suite_straightness, {"length": 6}),
    "reduction": (suite_reduction, {"length": 6}),
    "alcove": (suite_alcove, {"length": 6}),
    "levi": (suite_levi, {"m_length": 4}),
    "positivity": (suite_positivity, {}),
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

    With jobs > 1 and more than one suite, the suites run here and in up
    to jobs - 1 forked workers (`_run_forked`); the reports, and the
    exception of the first failing suite, are those of the serial loop.
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
                             f"parameters are {', '.join([*sorted(defaults), 'seed'])}")
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
# after `levi` in the same process, because it reuses the Levi groups,
# level table and Newton memos that `levi` leaves on the group, and its
# boxes are the unit cubes of those of `levi`.  Every other
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
    """Run the shards of `tasks` here and in min(jobs, shards) - 1 forked
    workers, which inherit the group and its memos.

    Shard indices wait in a pipe, one byte each: a one-byte read is
    atomic, so every shard runs once.  This process takes shards too,
    then collects.  Reports come back in suite order and the error that
    surfaces is that of the earliest failing suite, as in the serial
    loop; a suite whose worker died before reporting it is a LogicError.
    Every worker has been reaped when this returns or raises."""
    import signal  # here and below, not at start-up: they cost it 1.5 ms
    shards = _shards([n for n, _ in tasks])
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(shards))))
    os.close(feed)
    parent = os.getpid()
    pids, pipes = [], []
    try:
        for _ in range(min(jobs, len(shards)) - 1):
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
        messages = [*_take_shards(group, tasks, shards, queue, parent), *_receive(pipes)]
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
            if error.__traceback__:  # raised in this process
                raise error
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


def _take_shards(group, tasks, shards, queue, parent):
    """Yield {suite: report or (error, traceback)} per shard taken from
    `queue`.  A forked worker (any process but `parent`) exits before each
    suite once its parent has died: no one is left to read its reports."""
    while index := os.read(queue, 1):
        results = {}
        for i in shards[index[0]]:
            if os.getpid() != parent and os.getppid() != parent:
                os._exit(0)
            name, params = tasks[i]
            try:
                results[name] = _run_timed(group, name, params)
            except Exception as exc:
                import traceback
                results[name] = (exc, "".join(traceback.format_exception(exc)))
        yield results


def _work(group, tasks, shards, queue, fd, readers, parent):
    """The body of a forked worker, which never returns.  Per shard it
    sends what `_take_shards` yields.  It closes the `readers` it
    inherited, so a worker whose parent died gets EPIPE, and exits
    quietly, instead of waiting on a full pipe."""
    import pickle
    code = 1
    try:
        for r in readers:
            os.close(r)
        out = os.fdopen(fd, "wb")
        for results in _take_shards(group, tasks, shards, queue, parent):
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
