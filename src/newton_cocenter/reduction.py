"""Conjugation moves, minimal-length reduction and standard triples.

The elementary move for a simple affine reflection s sends w to s w s.
By Deodhar's lemma, if s is a left and a right descent of w then
s w s = w or it is shorter by 2; if exactly one, it keeps the length;
if neither, s w s = w or it is longer by 2.  Every element can be
brought to a minimal-length element of its conjugacy class using only
non-raising moves, and the minimal elements of a class form a single
orbit under the length-preserving ones.  The deterministic reducer
below explores the length-preserving orbit breadth-first with
generators scanned in ascending label order and descends as soon as a
lowering move appears, so its path is made of conjugation moves only:
`conj-down`, which lowers the length by 2, and `conj-equal`, which keeps
it.

The minimal elements of a full conjugacy class can span several move
orbits.  class_minimal_set lists them directly: the conjugates of
t^lam a are the t^mu a' with a' = u a u^{-1} and mu in the coset
u(lam) + im(1 - a'), and a minimal one has a translation part whose
length is within length(a') of the class's, so only the Weyl orbits of
finitely many dominant mu are tested against those cosets, all of them
modulo the one lattice im(1 - a) of the class.  The least of them in
canonical order is the class key canonical_class_rep, which is read
off the unsorted, memoised listing without ordering the rest.

The canonical order (`AffineWeylGroup.canonical_order`) is decided on
demand, letter by letter, and never from a whole reduced word: a move
orbit is memoised in scan order, its least member costs one descent
chain, and a standard triple walks the orbit only as far as its search
goes.  Every move s w s is built by the wall products `wall_times` and
`times_wall` of the context.

The functions take a group "context": an `AffineWeylGroup`, either
the ambient group or a `LeviWeylGroup`, whose methods compute with the
M-length, over W_M and the M-simple roots.  Their memos are attributes
of every context, declared where it is built: `move_orbits` (each
element seen to its move orbit, in scan order, if it is minimal, else
None),
`coinvariant_hnfs`, `finite_classes`, `finite_parabolics`, `parabolics`,
`exponents`, `wa_ball_counts`, `standard_triples`, and for the class keys
`class_reps` and `dominant_translations`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque, namedtuple
from itertools import combinations, product
from math import prod
from operator import itemgetter

from .affine_weyl import AffineWeylElement, conjugate
from .errors import InputError, LogicError
from .root_datum import (
    IntVector, coset_reduce, dot, hnf_columns, integer_inverse, mat_act, weyl_exponents,
)

CONJ_DOWN = "conj-down"
CONJ_EQUAL = "conj-equal"
# the length drop of each step kind
_DROPS = {CONJ_DOWN: 2, CONJ_EQUAL: 0}


ReductionStep = namedtuple("ReductionStep", "label kind result")
ReductionPath = namedtuple("ReductionPath", "start steps end")
# x straight and K-coset-minimal, Ad(x)(K) = K finite, u in W_K
StandardTriple = namedtuple("StandardTriple", "x k_labels u")


def conj_step(ctx, w: AffineWeylElement, label: int):
    """Classify the move w -> s w s as ("down"|"equal"|"up", s w s)."""
    if label not in range(len(ctx.simple_items())):
        raise InputError(f"{label!r} is not a wall label")
    sws = ctx.times_wall(ctx.wall_times(label, w), label)
    diff = ctx.length(sws) - ctx.length(w)
    if diff == -2:
        return "down", sws
    if diff == 0:
        return "equal", sws
    if diff == 2:
        return "up", sws
    raise LogicError(f"conjugation changed length by {diff}")


def replay(ctx, path: ReductionPath) -> bool:
    """Check that the recorded path is valid: each step is a conjugation
    move that replays, down steps drop the length by exactly 2 and equal
    steps keep it; a step of any other kind, or whose label is not a
    wall of the context, fails the replay."""
    labels = range(len(ctx.simple_items()))
    cur = path.start
    for step in path.steps:
        if step.label not in labels:
            return False
        nxt = ctx.times_wall(ctx.wall_times(step.label, cur), step.label)
        if _DROPS.get(step.kind) != ctx.length(cur) - ctx.length(nxt) \
                or nxt != step.result:
            return False
        cur = nxt
    return cur == path.end


def _scan(ctx, start: AffineWeylElement):
    """Breadth-first closure of start under length-preserving moves.

    Returns (parents, descent) where parents maps every explored element
    to its (predecessor, label) and descent is the first lowering move
    (y, label, s y s) in deterministic scan order, or None.  s y s is
    built only for a move whose flags say it does not raise length, by
    the wall products of the context.
    """
    parents: dict[AffineWeylElement, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        y = queue.popleft()
        for label, (left, right) in enumerate(zip(ctx.left_descents(y),
                                                  ctx.right_descents(y))):
            if not (left or right):
                continue
            z = ctx.times_wall(ctx.wall_times(label, y), label)
            if left and right:
                if z != y:
                    return parents, (y, label, z)
            elif z not in parents:
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
    while (move := lowering_move(ctx, cur)) is not None:
        parents, (y, label, z) = move
        for elem, lab in _path_to(parents, y):
            steps.append(ReductionStep(lab, CONJ_EQUAL, elem))
        steps.append(ReductionStep(label, CONJ_DOWN, z))
        cur = z
    return cur, ReductionPath(w, tuple(steps), cur)


def lowering_move(ctx, w: AffineWeylElement):
    """(parents, (y, label, s y s)) as `_scan` returns them from w, or
    None when w is minimal.  The scanned orbit goes to the move-orbit
    memo, a minimal one as its members in scan order."""
    if ctx.move_orbits.get(w):
        return None
    parents, descent = _scan(ctx, w)
    members = None if descent else tuple(parents)
    ctx.move_orbits.update(dict.fromkeys(parents, members))
    return None if descent is None else (parents, descent)


def is_min_in_class(ctx, w: AffineWeylElement) -> bool:
    """True when no chain of non-raising moves lowers the length of w."""
    orbits = ctx.move_orbits
    if w in orbits:
        return orbits[w] is not None
    return lowering_move(ctx, w) is None


def minimal_class(ctx, w_min: AffineWeylElement) -> tuple[AffineWeylElement, ...]:
    """All minimal elements of the move-orbit of a minimal element, in
    canonical order."""
    if not is_min_in_class(ctx, w_min):
        raise LogicError("minimal_class called on a non-minimal element")
    return tuple(ctx.canonical_order(ctx.move_orbits[w_min]))


def canonical_min_rep(ctx, w: AffineWeylElement) -> AffineWeylElement:
    """The canonical key of the move-orbit that reduce_to_min reaches
    from w: the least of its minimal-length elements in canonical order."""
    orbit = ctx.move_orbits.get(w)
    if orbit is None:
        orbit = ctx.move_orbits[reduce_to_min(ctx, w)[0]]
    return next(ctx.canonical_order(orbit))


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
    cache = ctx.coinvariant_hnfs
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
    in canonical order."""
    return tuple(ctx.canonical_order(_class_members(ctx, w_min)))


def _class_members(ctx, w_min: AffineWeylElement) -> tuple[AffineWeylElement, ...]:
    """`class_minimal_set` in no fixed order.

    Built from the conjugation identity above rather than by searching
    a length ball.  Write w_min = t^lam a and L = length(w_min).  Since
    length(t^mu) - length(a') <= length(t^mu a') <= length(t^mu) +
    length(a'), every minimal conjugate t^mu a' has
    |length(t^mu) - L| <= length(a'), and the translation lengths are
    W_M-invariant: length(t^mu) = <mu_dom, 2 rho_M>, mu_dom the
    M-dominant one.  So the candidates are the W_M-orbits of the
    M-dominant mu = lam mod the coroot lattice of M in that window,
    paired with each a' in the W_M-class of a; a pair t^mu' a' is a
    conjugate exactly when mu' lies in one of the cosets
    u'(lam) + im(1 - a') with u' a u'^{-1} = a'.

    One lattice serves the whole class.  Fix one u per a' = u a u^{-1};
    the other u' are the u c with c in the centraliser Z(a) of a in
    W_M, and u carries im(1 - a) onto im(1 - a'), since
    u (1 - a) u^{-1} = 1 - a'.  So mu' = u(nu) is in a coset of a'
    exactly when nu lies in R = {c(lam) mod im(1 - a) : c in Z(a)}, and
    nu runs over the W_M-orbit of mu as mu' does.  Each orbit is reduced
    modulo the one Hermite form of im(1 - a), once, and every a' reads
    the survivors nu as t^{u(nu)} a'.

    Nothing walks W_M: the a' and their u are reached by conjugating
    with the M-simple reflections s, and Z(a) is generated by the
    Schreier elements v^{-1} s u, v the u of s a' s (Schreier's lemma),
    which act on the cosets modulo im(1 - a) since they commute with a.
    """
    if not is_min_in_class(ctx, w_min):
        raise LogicError("class_minimal_set needs a minimal-length element")
    datum = ctx.datum
    length = ctx.length(w_min)
    lam, a = w_min.translation, w_min.finite
    hnf = _coinvariant_hnf(ctx, a)
    # one u per conjugate a' = u a u^{-1}, the Schreier generators of Z(a)
    # and the length of each a': none depends on lam, so all are memoised per a
    if a not in ctx.finite_classes:
        walls = [datum.reflection(b) for b in ctx.m_simple_roots]
        conjugators = {a: datum.weyl_identity}
        frontier, centraliser = [a], set()
        for a_conj in frontier:
            u = conjugators[a_conj]
            for s in walls:
                b, su = datum.product(datum.product(s, a_conj), s), datum.product(s, u)
                v = conjugators.get(b)
                if v is None:
                    conjugators[b] = su
                    frontier.append(b)
                elif v != su:
                    centraliser.add(datum.product(datum.finite_inverse(v), su))
        ctx.finite_classes[a] = conjugators, tuple(centraliser), {
            a_conj: ctx.finite_length(a_conj) for a_conj in conjugators}
    conjugators, centraliser, spans = ctx.finite_classes[a]
    cosets = {coset_reduce(lam, hnf)}
    frontier = list(cosets)
    for x in frontier:
        for c in centraliser:
            y = coset_reduce(mat_act(c, x), hnf)
            if y not in cosets:
                cosets.add(y)
                frontier.append(y)
    reach = max(spans.values())
    members = []
    for mu, mu_length in _dominant_translations(ctx, lam, length + reach, length - reach):
        for nu in ctx.translation_orbit(mu):
            if coset_reduce(nu, hnf) not in cosets:
                continue
            for a_conj, u in conjugators.items():
                if abs(mu_length - length) <= spans[a_conj]:
                    z = AffineWeylElement(mat_act(u, nu), a_conj)
                    if ctx.length(z) == length:
                        members.append(z)
    return tuple(members)


def _dominant_translations(ctx, lam, bound, low=0) -> list[tuple[IntVector, int]]:
    """The M-dominant mu = lam mod the coroot lattice of M with
    low <= length(t^mu) = <mu, 2 rho_M> <= bound, each with that length,
    by length.

    The list depends on lam only through its coset, so it is memoised
    per kappa_M label with the largest bound asked for so far; every
    window is cut from the memoised list by bisection at both ends.
    """
    memo = ctx.dominant_translations
    label = coset_reduce(lam, ctx.coroot_hnf)
    hit = memo.get(label)
    if hit is None or hit[0] < bound:
        hit = memo[label] = (bound, _enumerate_dominant(ctx, lam, bound))
    items = hit[1]
    return items[bisect_left(items, low, key=itemgetter(1)):
                 bisect_right(items, bound, key=itemgetter(1))]


def _enumerate_dominant(ctx, lam, bound) -> list[tuple[IntVector, int]]:
    """`_dominant_translations` from 0 to bound, enumerated in
    lexicographic order of y and then sorted by length.

    Such mu are lam + sum_i c_i alpha_i^vee with integral c solving
    C c = y - <alpha, lam>, where C is the Cartan matrix of M and
    y_i = <alpha_i, mu> >= 0 over the M-simple roots alpha_i; so the y
    are enumerated under sum_i h_i y_i <= bound with
    h_i = <2 rho_M, varpi_i^vee> > 0.  That sum is <mu, 2 rho_M>, since
    2 rho_M = sum_i h_i alpha_i, and the order of the y does not depend
    on which lam of the coset is given.
    """
    simple = ctx.m_simple_roots
    coroots = [ctx.datum.coroot[a] for a in simple]
    den, scaled = integer_inverse([[dot(a, cv) for cv in coroots] for a in simple])
    # varpi_i^vee is column i of the inverse in the simple coroots;
    # h_i is the alpha_i-coefficient of 2 rho_M, an integer
    pair = [dot(ctx.two_rho_m, cv) for cv in coroots]
    heights = [sum(row[i] * p for row, p in zip(scaled, pair)) // den
               for i in range(len(simple))]
    shift = [dot(a, lam) for a in simple]
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
        out.append((mu, dot(ctx.two_rho_m, mu)))
    out.sort(key=itemgetter(1))
    return out


def canonical_class_rep(ctx, w: AffineWeylElement) -> AffineWeylElement:
    """The canonical key of the full conjugacy class of w: the least
    minimal-length element of the class.  This is the support key used
    by the cocenter normal forms of the context."""
    rep = ctx.class_reps.get(w)
    if rep is None:
        w_min, path = reduce_to_min(ctx, w)
        rep = ctx.class_reps.get(w_min)
        if rep is None:  # w_min is a member: list its class once
            members = _class_members(ctx, w_min)
            rep = next(ctx.canonical_order(members))
            ctx.class_reps.update(dict.fromkeys(members, rep))
        for step in path.steps:
            ctx.class_reps[step.result] = rep
        ctx.class_reps[w] = rep
    return rep


# -- finite parabolic subgroups ------------------------------------------


def finite_parabolics(ctx) -> tuple[tuple[int, ...], ...]:
    """The label subsets K that generate a finite group, by size and
    then lexicographically; computed once per context.

    K generates a finite group iff it misses at least one node of every
    connected component of the diagram, as the context stores them.
    """
    if ctx.finite_parabolics is None:
        labels = [lab for lab, _ in ctx.simple_items()]
        ctx.finite_parabolics = tuple(
            sub for size in range(len(labels) + 1)
            for sub in combinations(labels, size)
            if not any(set(comp) <= set(sub) for comp in ctx.coxeter_diagram))
    return ctx.finite_parabolics


def parabolic_elements(ctx, k_labels) -> frozenset[AffineWeylElement]:
    """The subgroup generated by the reflections in k_labels.  A finite
    one holds no translation: two elements with one finite part cap the
    enumeration, as the subgroup is then infinite."""
    key = tuple(sorted(k_labels))
    cache = ctx.parabolics
    if key in cache:
        return cache[key]
    members = {ctx.identity.finite: ctx.identity}
    frontier = [ctx.identity]
    while frontier:
        u = frontier.pop()
        for lab in key:
            v = ctx.wall_times(lab, u)
            first = members.setdefault(v.finite, v)
            if first is v:
                frontier.append(v)
            elif first != v:
                raise LogicError(
                    f"parabolic on {key} exceeded cap |W_M|: two of its elements "
                    f"share a finite part; the finiteness pre-check must have missed it")
    result = cache[key] = frozenset(members.values())
    return result


def max_finite_parabolic_order(ctx) -> int:
    """Largest order of a finite parabolic: |W_M| = prod_i (m_i + 1) over
    the exponents of W_M.  A finite W_K holds no translation, so it
    injects into W_M, and the M-simple walls give W_M."""
    return prod(m + 1 for m in _exponents(ctx))


def _exponents(ctx) -> tuple[int, ...]:
    """The exponents of W_M, memoised in `ctx.exponents`."""
    if ctx.exponents is None:
        ctx.exponents = tuple(weyl_exponents(ctx.m_simple_roots, ctx.datum.is_root))
    return ctx.exponents


def wa_ball_count(ctx, max_length: int) -> int:
    """Number of elements of the affine Weyl part W_a(M) with length <= L.

    Counted without a walk, by Bott's formula: the lengths of W_a(M)
    have the generating series prod_i (1 + q + ... + q^{m_i}) / (1 - q^{m_i})
    over the exponents m_i of W_M (Humphreys, Reflection Groups and
    Coxeter Groups, 8.9), the product over the components of M of their
    own series.  The series is cut at L and summed.
    """
    cache = ctx.wa_ball_counts
    if max_length not in cache:
        series = [1] + [0] * max_length
        for m in _exponents(ctx):
            # times (1 - q^{m+1}) / (1 - q), then over (1 - q^m)
            for i in range(max_length, m, -1):
                series[i] -= series[i - m - 1]
            for step in (1, m):
                for i in range(step, max_length + 1):
                    series[i] += series[i - step]
        cache[max_length] = sum(series)
    return cache[max_length]


# -- standard triples ------------------------------------------------------


def standard_triple(ctx, w_min: AffineWeylElement) -> StandardTriple:
    """A standard triple (x, K, u) with u x in the minimal class of w_min.

    Searched deterministically: the members of the move orbit of w_min
    in canonical order, taken lazily, and K over finite parabolic
    subsets by increasing size.  The search depends only on the orbit,
    so its triple is memoised for every member.  Failure would
    contradict minimal-length theory, so it raises LogicError.
    """
    cache = ctx.standard_triples
    if w_min in cache:
        return cache[w_min]
    if not is_min_in_class(ctx, w_min):
        raise LogicError("standard_triple requires a minimal-length element")
    elem = dict(ctx.simple_items())
    subsets = finite_parabolics(ctx)
    orbit = ctx.move_orbits[w_min]
    for y in ctx.canonical_order(orbit):
        for sub in subsets:
            triple = _try_triple(ctx, y, sub, elem)
            if triple is not None:
                cache.update(dict.fromkeys(orbit, triple))
                return triple
    raise LogicError(f"no standard triple found in the class of {w_min}")


def _try_triple(ctx, y, k_labels, elem) -> StandardTriple | None:
    x, u = y, ctx.identity
    changed = True
    while changed:
        changed = False
        for lab in k_labels:
            if ctx.left_descents(x)[lab]:
                x, u = ctx.wall_times(lab, x), ctx.times_wall(u, lab)
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
