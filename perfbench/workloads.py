"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation: the argv handed to ``cli.main`` plus the
facts the correctness checks need.  The seed picks every input; the
program only ever sees the generated argv.  Each workload draws its
inputs from fixed strata (a fixed number of jobs per kind, parameters
from narrow bands), so the total work of a job list barely moves from
seed to seed while the inputs themselves do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

VERIFY_GROUPS = ("A1", "A2", "B2", "C2", "G2", "C2:ad", "GL3", "GL4")
# The machine the benchmark was defined on has 2 cores; --jobs is a
# no-op today, so a later worker pool shows up on verify-sweep.
JOBS_FLAG = ("--jobs", "2")


@dataclass(frozen=True)
class Job:
    kind: str                 # subcommand, used by the checks
    group: str
    argv: tuple[str, ...]
    subject: str = ""         # the element the job is about, if any


def _job(kind, group, *args, subject=""):
    return Job(kind, group, ("--group", group, "--json") + tuple(args), subject)


def verify_sweep(rng: random.Random, scale: float = 1.0) -> list[Job]:
    """`verify all` at default parameters, one job per group.

    The seed orders the groups and feeds `--seed` to the randomized
    suites.  scale < 1 keeps only the cheap groups (smoke test).
    """
    groups = list(VERIFY_GROUPS if scale >= 1 else VERIFY_GROUPS[:2])
    rng.shuffle(groups)
    return [Job("verify", g, ("--group", g, "--seed", str(rng.randrange(10**6)))
                + JOBS_FLAG + ("--json", "verify", "all"))
            for g in groups]


# cocenter-long sizes.  A job costs about k^2.3 for A1 T[t[k]*s1] and
# grows as fast in a for A2 T[t[a,-a]], so the sizes are fixed and the
# seed picks cost-neutral variants: k or k+1, the sign of the
# translation (t[-k]*s1 is conjugate to t[k]*s1; t[-a,a] is the diagram
# image of t[a,-a]) and one element of each mirror pair in G2.  A list
# costs about 6 s whatever the seed.  Most A1 sizes sit around 28, so the
# median job is surrounded by jobs of nearly the same cost and job_p50_s
# does not hinge on one job.
_A1_SIZES = (20, 26, 27, 28, 28, 29, 30, 39)
_A2_SIZES = (5, 6)
_G2_PAIRS = (((-1, 1), (1, -1)), ((-1, 0), (1, 0)), ((0, 1), (0, -1)))


def cocenter_long(rng: random.Random, scale: float = 1.0) -> list[Job]:
    """One long element per job, so each job canonicalises one class."""
    a1_sizes = _A1_SIZES if scale >= 1 else (3,)
    a2_sizes = _A2_SIZES if scale >= 1 else (1,)
    jobs = []
    for k in a1_sizes:
        k = (k + rng.randint(0, 1)) * rng.choice((1, -1))
        jobs.append(_cocenter("A1", f"t[{k}]*s1"))
    for a in a2_sizes:
        a *= rng.choice((1, -1))
        jobs.append(_cocenter("A2", f"t[{a},{-a}]"))
    for pair in _G2_PAIRS:
        a, b = rng.choice(pair)
        jobs.append(_cocenter("G2", f"t[{a},{b}]*s1"))
    rng.shuffle(jobs)
    return jobs


def _cocenter(group, elem):
    return _job("cocenter-reduce", group, "cocenter-reduce", f"T[{elem}]",
                subject=elem)


# gl5-queries: jobs per kind in one list (121 jobs, about 8 s).
_GL5_MIX = (
    ("newton", 30), ("reduce", 16), ("triple", 12), ("alcove-test", 16),
    ("positivity", 16), ("levi", 12), ("strata", 8), ("rigid", 3),
    ("cocenter-reduce", 8),
)
_LEVI_VALUES = tuple(Fraction(x) for x in ("-1", "-1/2", "0", "1/3", "1/2", "2/3", "1"))


def gl5_queries(rng: random.Random, scale: float = 1.0) -> list[Job]:
    """Single-element GL5 queries, each a fresh CLI call."""
    jobs = []
    for kind, count in _GL5_MIX:
        for _ in range(max(1, round(count * scale))):
            jobs.append(_gl5_job(rng, kind))
    rng.shuffle(jobs)
    return jobs


def _gl5_job(rng, kind):
    if kind == "levi":
        v = [rng.choice(_LEVI_VALUES) for _ in range(5)]
        return _job("levi", "GL5", "levi", "--v", _coweight(v), "describe")
    if kind == "strata":
        return _job("strata", "GL5", "strata", "--length", str(rng.randint(1, 2)))
    if kind == "rigid":
        return _job("rigid", "GL5", "rigid", "--length", "1")
    if kind == "cocenter-reduce":
        # t[e_i]*s_i*s_(i+1): short classes, about 0.2 s each
        i = rng.randint(1, 3)
        lam = [0] * 5
        lam[i - 1] = 1
        return _cocenter("GL5", _gl5_elem(lam, [i, i + 1]))
    # two coordinates +-1: keeps reduce/triple costs in a narrow band
    lam = [0] * 5
    for i in rng.sample(range(5), 2):
        lam[i] = rng.choice((1, -1))
    word = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
    elem = _gl5_elem(lam, word)
    if kind in ("alcove-test", "positivity"):
        # v = the Newton point of w: u fixes it, and w is strictly
        # positive on the v-positive roots, so positivity always succeeds
        v = _gl_newton_point(lam, word)
        return _job(kind, "GL5", kind, elem, "--v", _coweight(v), subject=elem)
    return _job(kind, "GL5", kind, elem, subject=elem)


def _gl5_elem(lam, word):
    text = "t[" + ",".join(map(str, lam)) + "]"
    if word:
        text += "*" + "*".join(f"s{i}" for i in word)
    return text


def _gl_newton_point(lam, word):
    """Average of lam over the cycles of the permutation s_word.

    Reversing a word of transpositions inverts the permutation and keeps
    its cycles, so the convention for reading the word does not matter.
    """
    perm = list(range(len(lam)))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    nu = [Fraction(0)] * len(lam)
    seen = set()
    for start in range(len(lam)):
        if start in seen:
            continue
        cycle = [start]
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            nxt = perm[nxt]
        avg = Fraction(sum(lam[c] for c in cycle), len(cycle))
        for c in cycle:
            nu[c] = avg
            seen.add(c)
    return nu


def _coweight(v):
    return json.dumps([str(x) for x in v])


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "cocenter-long": cocenter_long,
    "gl5-queries": gl5_queries,
}


def generate(workload: str, seed: int, scale: float = 1.0) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), scale)
