"""Conjugation moves, minimal-length reduction and standard triples.

The elementary move for a simple affine reflection s sends w to s w s;
it lowers length by 2, keeps it, or raises it by 2.  Every element can
be brought to a minimal-length element of its conjugacy class using
only non-raising moves, and the minimal elements of a class form a
single orbit under the length-preserving ones.  The deterministic
reducer below explores the length-preserving orbit breadth-first with
generators scanned in ascending label order and descends as soon as a
lowering move appears; the path it records therefore never needs the
left-multiplication fallback move.

The minimal elements of a full conjugacy class can span several move
orbits.  class_minimal_set lists them directly: the conjugates of
t^lam a are the t^mu a' with a' = u a u^{-1} and mu in the coset
u(lam) + im(1 - a'), and a minimal one has a translation part of
bounded length, so only the Weyl orbits of finitely many dominant mu
are tested against those cosets.  The least of them in canonical order
is the class key canonical_class_rep.

The functions take a group "context": either the ambient extended
affine Weyl group or a Levi sub-Iwahori-Weyl group, which expose the
same interface (identity, simple_items, length, sort_key, caches).
The class-level functions (class_minimal_set, canonical_class_rep)
accept the ambient group only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from math import lcm

from .affine_weyl import AffineWeylElement, AffineWeylGroup, conjugate, multiply
from .errors import LogicError
from .root_datum import (
    IntVector, coset_reduce, dot, hnf_columns, mat_act, rational_inverse,
)

CONJ_DOWN = "conj-down"
CONJ_EQUAL = "conj-equal"
LEFT_MULT = "left-mult"


@dataclass(frozen=True)
class ReductionStep:
    label: int
    kind: str
    result: AffineWeylElement


@dataclass(frozen=True)
class ReductionPath:
    start: AffineWeylElement
    steps: tuple[ReductionStep, ...]
    end: AffineWeylElement


@dataclass(frozen=True)
class StandardTriple:
    """x straight and K-coset-minimal, Ad(x)(K) = K finite, u in W_K."""

    x: AffineWeylElement
    k_labels: tuple[int, ...]
    u: AffineWeylElement


def conj_step(ctx, w: AffineWeylElement, label: int):
    """Classify the move w -> s w s as ("down"|"equal"|"up", s w s)."""
    s = dict(ctx.simple_items())[label]
    sws = multiply(multiply(s, w), s)
    diff = ctx.length(sws) - ctx.length(w)
    if diff == -2:
        return "down", sws
    if diff == 0:
        return "equal", sws
    if diff == 2:
        return "up", sws
    raise LogicError(f"conjugation changed length by {diff}")


def replay(ctx, path: ReductionPath) -> bool:
    """Check that the recorded path is valid: each step replays, lengths
    never increase, and down steps drop by exactly 2."""
    by_label = dict(ctx.simple_items())
    cur = path.start
    for step in path.steps:
        s = by_label[step.label]
        if step.kind == LEFT_MULT:
            nxt = multiply(s, cur)
            if ctx.length(nxt) >= ctx.length(cur):
                return False
        else:
            nxt = multiply(multiply(s, cur), s)
            drop = ctx.length(cur) - ctx.length(nxt)
            if step.kind == CONJ_DOWN and drop != 2:
                return False
            if step.kind == CONJ_EQUAL and drop != 0:
                return False
        if nxt != step.result:
            return False
        cur = nxt
    return cur == path.end


def _scan(ctx, start: AffineWeylElement):
    """Breadth-first closure of start under length-preserving moves.

    Returns (parents, descent) where parents maps every explored element
    to its (predecessor, label) and descent is the first lowering move
    (y, label, s y s) in deterministic scan order, or None.
    """
    simples = ctx.simple_items()
    parents: dict[AffineWeylElement, tuple | None] = {start: None}
    queue = deque([start])
    base = ctx.length(start)
    while queue:
        y = queue.popleft()
        for label, s in simples:
            z = multiply(multiply(s, y), s)
            lz = ctx.length(z)
            if lz == base - 2:
                return parents, (y, label, z)
            if lz == base and z not in parents:
                parents[z] = (y, label)
                queue.append(z)
    return parents, None


def _path_to(parents, target) -> list[tuple[AffineWeylElement, int]]:
    out = []
    cur = target
    while parents[cur] is not None:
        prev, label = parents[cur]
        out.append((cur, label))
        cur = prev
    out.reverse()
    return out


def reduce_to_min(ctx, w: AffineWeylElement):
    """A minimal-length element of the conjugacy class of w, with the
    deterministic move path that reaches it."""
    steps: list[ReductionStep] = []
    cur = w
    while True:
        parents, descent = _scan(ctx, cur)
        if descent is None:
            _cache_minimal_closure(ctx, parents)
            return cur, ReductionPath(w, tuple(steps), cur)
        y, label, z = descent
        for elem, lab in _path_to(parents, y):
            steps.append(ReductionStep(lab, CONJ_EQUAL, elem))
        steps.append(ReductionStep(label, CONJ_DOWN, z))
        cache = ctx._class_cache
        for elem in parents:
            cache.setdefault(elem, {})["min"] = False
        cur = z


def _cache_minimal_closure(ctx, parents):
    cache = ctx._class_cache
    rep = min(parents, key=ctx.sort_key)
    members = tuple(sorted(parents, key=ctx.sort_key))
    for elem in parents:
        entry = cache.setdefault(elem, {})
        entry["min"] = True
        entry["rep"] = rep
        entry["class"] = members
    return rep


def is_min_in_class(ctx, w: AffineWeylElement) -> bool:
    """True when no chain of non-raising moves lowers the length of w."""
    entry = ctx._class_cache.get(w)
    if entry is not None and "min" in entry:
        return entry["min"]
    parents, descent = _scan(ctx, w)
    cache = ctx._class_cache
    if descent is None:
        _cache_minimal_closure(ctx, parents)
        return True
    for elem in parents:
        cache.setdefault(elem, {})["min"] = False
    return False


def minimal_class(ctx, w_min: AffineWeylElement) -> tuple[AffineWeylElement, ...]:
    """All minimal elements of the class of a minimal element."""
    entry = ctx._class_cache.get(w_min)
    if entry is None or "class" not in entry:
        if not is_min_in_class(ctx, w_min):
            raise LogicError("minimal_class called on a non-minimal element")
        entry = ctx._class_cache[w_min]
    return entry["class"]


def canonical_min_rep(ctx, w: AffineWeylElement) -> AffineWeylElement:
    """The canonical key of the move-orbit of w: the word-lexicographically
    least among the minimal-length elements reachable from w."""
    entry = ctx._class_cache.get(w)
    if entry is not None and entry.get("rep") is not None:
        return entry["rep"]
    w_min, path = reduce_to_min(ctx, w)
    rep = ctx._class_cache[w_min]["rep"]
    for step in path.steps:
        ctx._class_cache.setdefault(step.result, {})["rep"] = rep
    ctx._class_cache.setdefault(w, {})["rep"] = rep
    return rep


# -- conjugacy across move-orbits ------------------------------------------
#
# The minimal elements of one conjugacy class can fall into several
# orbits of the elementary moves (already in affine A2 the three simple
# reflections are pairwise conjugate but each is alone in its orbit), so
# class-level keys need an honest conjugacy test.  For x = t^mu u,
#
#     x (t^lam a) x^{-1} = t^{mu + u(lam) - (u a u^{-1})(mu)} (u a u^{-1}),
#
# hence t^lam a ~ t^lam' a' iff some u in the finite group satisfies
# u a u^{-1} = a' with lam' - u(lam) in the image lattice of (1 - a').


def _coinvariant_hnf(ctx, a):
    """Hermite form of the image of (1 - a) on the translation lattice."""
    cache = ctx._triple_cache.setdefault("coinv", {})
    if a not in cache:
        n = len(a)
        cols = []
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            ae = mat_act(a, e)
            cols.append(tuple(x - y for x, y in zip(e, ae)))
        cache[a] = hnf_columns(cols)
    return cache[a]


def is_conjugate(ctx, w1: AffineWeylElement, w2: AffineWeylElement) -> bool:
    """Exact conjugacy in the group context (all translations allowed)."""
    target = w2.finite
    hnf = _coinvariant_hnf(ctx, target)
    datum = ctx.datum
    for u in ctx.finite_elements():
        if datum.product(datum.product(u, w1.finite), datum.finite_inverse(u)) != target:
            continue
        moved = mat_act(u, w1.translation)
        diff = tuple(x - y for x, y in zip(w2.translation, moved))
        if not any(coset_reduce(diff, hnf)):
            return True
    return False


def class_minimal_set(ctx, w_min: AffineWeylElement) -> tuple[AffineWeylElement, ...]:
    """All minimal-length elements of the full conjugacy class of w_min,
    in canonical order.

    Built from the conjugation identity above rather than by searching
    a length ball.  Write w_min = t^lam a and L = length(w_min).  Since
    length(t^mu a') >= length(t^mu) - length(a'), every minimal
    conjugate t^mu a' has length(t^mu) <= L + length(a'), and the
    translation lengths are W0-invariant: length(t^mu) = <mu_dom, 2 rho>.
    So the candidates are the W0-orbits of the dominant mu = lam mod the
    coroot lattice with <mu, 2 rho> <= L + |Phi+|, paired with each a'
    in the W0-class of a; a pair is a conjugate exactly when mu lies in
    one of the cosets u(lam) + im(1 - a') with u a u^{-1} = a'.  Only
    the ambient group has this translation lattice and length formula.
    """
    if not isinstance(ctx, AffineWeylGroup):
        raise LogicError("class_minimal_set needs the ambient group")
    entry = ctx._class_cache.setdefault(w_min, {})
    if "full_class" in entry:
        return entry["full_class"]
    if not is_min_in_class(ctx, w_min):
        raise LogicError("class_minimal_set needs a minimal-length element")
    datum = ctx.datum
    length = ctx.length(w_min)
    lam, a = w_min.translation, w_min.finite
    # for each conjugate a' = u a u^{-1}: the cosets u(lam) mod im(1 - a')
    cosets: dict = {}
    for u in datum.weyl_elements:
        a_conj = datum.product(datum.product(u, a), datum.finite_inverse(u))
        hnf = _coinvariant_hnf(ctx, a_conj)
        cosets.setdefault(a_conj, set()).add(coset_reduce(mat_act(u, lam), hnf))
    dominant = _dominant_translations(
        ctx, lam, length + len(datum.positive_roots))
    orbits = {}
    members = []
    for a_conj, reps in cosets.items():
        hnf = _coinvariant_hnf(ctx, a_conj)
        bound = length + ctx.finite_length(a_conj)
        for mu, mu_length in dominant:
            if mu_length > bound:
                continue
            if mu not in orbits:
                orbits[mu] = {mat_act(u, mu) for u in datum.weyl_elements}
            for nu in orbits[mu]:
                if coset_reduce(nu, hnf) in reps:
                    z = AffineWeylElement(nu, a_conj)
                    if ctx.length(z) == length:
                        members.append(z)
    members = tuple(sorted(members, key=ctx.sort_key))
    for z in members:
        ctx._class_cache.setdefault(z, {})["full_class"] = members
    return members


def _dominant_translations(ctx, lam, bound) -> list[tuple[IntVector, int]]:
    """The dominant mu = lam mod the coroot lattice with
    length(t^mu) = <mu, 2 rho> <= bound, each with that length.

    Such mu are lam + sum_i c_i alpha_i^vee with integral c solving
    C c = y - <alpha, lam>, where C is the Cartan matrix and
    y_i = <alpha_i, mu> >= 0; so the y are enumerated under
    sum_i h_i y_i <= bound with h_i = <2 rho, varpi_i^vee> > 0.
    """
    datum = ctx.datum
    cache = ctx._triple_cache
    if "chamber" not in cache:
        simple, coroots = datum.simple_roots, datum.simple_coroots
        inv = rational_inverse(
            [[dot(a, cv) for cv in coroots] for a in simple])
        den = lcm(*(x.denominator for row in inv for x in row))
        scaled = [[int(x * den) for x in row] for row in inv]
        # varpi_i^vee is column i of the inverse in the simple coroots;
        # h_i is the alpha_i-coefficient of 2 rho, an integer
        pair = [dot(datum.two_rho, cv) for cv in coroots]
        heights = [int(sum(row[i] * p for row, p in zip(inv, pair)))
                   for i in range(len(simple))]
        cache["chamber"] = (scaled, den, heights)
    scaled, den, heights = cache["chamber"]
    shift = [dot(a, lam) for a in datum.simple_roots]
    coroots = datum.simple_coroots
    out = []
    for y in product(*(range(bound // h + 1) for h in heights)):
        if sum(h * yi for h, yi in zip(heights, y)) > bound:
            continue
        d = [yi - si for yi, si in zip(y, shift)]
        c = [sum(row[j] * d[j] for j in range(len(d))) for row in scaled]
        if any(ci % den for ci in c):
            continue
        mu = tuple(x + sum(ci // den * cv[j] for ci, cv in zip(c, coroots))
                   for j, x in enumerate(lam))
        out.append((mu, dot(datum.two_rho, mu)))
    return out


def canonical_class_rep(ctx, w: AffineWeylElement) -> AffineWeylElement:
    """The canonical key of the full conjugacy class of w: the least
    minimal-length element of the class.  This is the support key used
    by the cocenter normal forms; only the ambient group has it."""
    if not isinstance(ctx, AffineWeylGroup):
        raise LogicError("canonical_class_rep needs the ambient group")
    entry = ctx._class_cache.get(w)
    if entry is not None and entry.get("class_rep") is not None:
        return entry["class_rep"]
    w_min, path = reduce_to_min(ctx, w)
    members = class_minimal_set(ctx, w_min)
    rep = min(members, key=ctx.sort_key)
    for z in members:
        ctx._class_cache.setdefault(z, {})["class_rep"] = rep
    for step in path.steps:
        ctx._class_cache.setdefault(step.result, {})["class_rep"] = rep
    ctx._class_cache.setdefault(w, {})["class_rep"] = rep
    return rep


# -- finite parabolic subgroups ------------------------------------------


def coxeter_components(ctx) -> tuple[tuple[int, ...], ...]:
    """Connected components of the diagram on the simple reflections
    (edges between non-commuting pairs)."""
    items = ctx.simple_items()
    labels = [lab for lab, _ in items]
    elem = dict(items)
    seen, comps = set(), []
    for lab in labels:
        if lab in seen:
            continue
        comp, frontier = {lab}, [lab]
        while frontier:
            a = frontier.pop()
            for b in labels:
                if b not in comp and multiply(elem[a], elem[b]) != multiply(elem[b], elem[a]):
                    comp.add(b)
                    frontier.append(b)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def parabolic_elements(ctx, k_labels) -> frozenset[AffineWeylElement]:
    """The subgroup generated by the reflections in k_labels, enumerated
    with a cap; exceeding the cap means the subgroup is infinite."""
    key = tuple(sorted(k_labels))
    cache = ctx._triple_cache.setdefault("parabolic", {})
    if key in cache:
        return cache[key]
    elem = dict(ctx.simple_items())
    gens = [elem[lab] for lab in key]
    cap = ctx.parabolic_cap
    members = {ctx.identity}
    frontier = [ctx.identity]
    while frontier:
        u = frontier.pop()
        for s in gens:
            v = multiply(s, u)
            if v not in members:
                if len(members) >= cap:
                    cache[key] = None
                    raise LogicError(
                        f"parabolic on {key} exceeded cap {cap}; "
                        f"the finiteness pre-check must have missed it")
                members.add(v)
                frontier.append(v)
    result = frozenset(members)
    cache[key] = result
    return result


def is_finite_parabolic(ctx, k_labels) -> bool:
    """K generates a finite group iff it misses at least one node of
    every connected component of the diagram."""
    k = set(k_labels)
    for comp in coxeter_components(ctx):
        if set(comp) <= k:
            return False
    return True


def max_finite_parabolic_order(ctx) -> int:
    """Largest order of a finite parabolic, by explicit enumeration."""
    cache = ctx._triple_cache
    if "max_parabolic" in cache:
        return cache["max_parabolic"]
    total = 1
    for comp in coxeter_components(ctx):
        best = 1
        for size in range(len(comp)):
            for sub in combinations(comp, size):
                best = max(best, len(parabolic_elements(ctx, sub)))
        total *= best
    cache["max_parabolic"] = total
    return total


def wa_ball_count(ctx, max_length: int) -> int:
    """Number of elements of the affine Weyl part with length <= L."""
    cache = ctx._triple_cache.setdefault("wa_ball", {})
    if max_length in cache:
        return cache[max_length]
    seen = {ctx.identity}
    frontier = [ctx.identity]
    depth = 0
    while depth < max_length:
        depth += 1
        new = []
        for w in frontier:
            for _, s in ctx.simple_items():
                sw = multiply(s, w)
                if sw not in seen and ctx.length(sw) == depth:
                    seen.add(sw)
                    new.append(sw)
        frontier = new
    cache[max_length] = len(seen)
    return len(seen)


# -- standard triples ------------------------------------------------------


def standard_triple(ctx, w_min: AffineWeylElement) -> StandardTriple:
    """A standard triple (x, K, u) with u x in the minimal class of w_min.

    Searched deterministically: class elements in canonical order, K
    over finite parabolic subsets by increasing size.  Failure would
    contradict minimal-length theory, so it raises LogicError.
    """
    cache = ctx._triple_cache.setdefault("triples", {})
    if w_min in cache:
        return cache[w_min]
    if not is_min_in_class(ctx, w_min):
        raise LogicError("standard_triple requires a minimal-length element")
    labels = [lab for lab, _ in ctx.simple_items()]
    elem = dict(ctx.simple_items())
    subsets = [sub for size in range(len(labels) + 1)
               for sub in combinations(labels, size)
               if is_finite_parabolic(ctx, sub)]
    for y in minimal_class(ctx, w_min):
        for sub in subsets:
            triple = _try_triple(ctx, y, sub, elem)
            if triple is not None:
                cache[w_min] = triple
                return triple
    raise LogicError(f"no standard triple found in the class of {w_min}")


def _try_triple(ctx, y, k_labels, elem) -> StandardTriple | None:
    x, u = y, ctx.identity
    changed = True
    while changed:
        changed = False
        for lab in k_labels:
            sx = multiply(elem[lab], x)
            if ctx.length(sx) < ctx.length(x):
                x, u = sx, multiply(u, elem[lab])
                changed = True
    if not ctx.is_straight(x):
        return None
    k_set = {elem[lab] for lab in k_labels}
    for lab in k_labels:
        if conjugate(x, elem[lab]) not in k_set:
            return None
    if ctx.newton_index(y) != ctx.newton_index(x):
        return None
    members = parabolic_elements(ctx, k_labels)
    if u not in members:
        raise LogicError("coset minimization left W_K")
    return StandardTriple(x, tuple(sorted(k_labels)), u)
