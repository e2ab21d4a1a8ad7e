"""Finite models over a ground set {0..n-1}.

Partial injections are tuples with None marking undefined points; total
maps are plain tuples.  Everything here is small enough to enumerate, so
this module doubles as the oracle layer for the symbolic side: claimed
identities about ranks, ideals, maximal subsemigroups and transversal
products are checked against exhaustive computation.  The complete list
of maximal subsemigroups comes from a J-class reduction, one rank at a time.

Closures and closedness tests multiply through one kernel, ``_row``: the
map u becomes an ``operator.itemgetter`` that reads ``v + (None,)``, so a
whole row of products u*v is one ``map`` call, one Python step per row and
one C call per product.  There is one closure loop, ``_close``, which runs
on generators whose padded maps and rows are already built, and one
driver over it, ``_span``, which closes a set of members from the members
it needs: it takes them by falling rank and keeps one as a generator only
when the closure so far misses it.  A span costs about
2 * |closure| * |kept generators| products, not |closure| * |members|.
``fchart_closure`` and ``is_closed`` are spans; ``is_maximal`` spans the
candidate once, then closes it with one missing element per double orbit
of its units, multiplying by the kept generators and that element only.
``fchart_compose`` is the pointwise product for single pairs.

``fchart_closure`` holds at most ``MAX_CLOSURE_CELLS`` = 2^20 entries
(elements times points) and refuses a larger closure with
``ResourceGuardError`` ("closure passes ... entries") as soon as the bound is
passed.  I_7 (130,922 elements on 7 points, the largest monoid that
``all_fcharts`` lists) and S_8 close; S_9 (362,880 elements on 9 points) is
refused.  The bound is on the result, not on the number of points, because
one permutation of 100 points can already generate 232,792,560 elements.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations
from operator import itemgetter, methodcaller
from typing import NamedTuple

from .errors import InternalError, ParameterError, ParseError, ResourceGuardError

FChart = tuple  # entries: int | None, injective on defined points
FTrans = tuple  # entries: int, total; composes as an FChart with no holes

MAX_CLOSURE_CELLS = 1 << 20


# -- Element arithmetic -----------------------------------------------------


def fchart_compose(u: FChart, v: FChart) -> FChart:
    return tuple([v[e] if e is not None else None for e in u])


def _row(u: FChart):
    """The map ``v + (None,) -> u*v`` for maps v on the points of u.

    Undefined points of u read the pad, so partial and total maps compose
    alike, and ``map(_row(u), padded)`` forms a row of products in C.
    """
    idx = [len(u) if y is None else y for y in u]
    if len(idx) > 1:
        return itemgetter(*idx)
    # An itemgetter of one index returns the item, not a 1-tuple.
    return lambda pv: tuple(pv[i] for i in idx)


def fchart_invert(u: FChart) -> FChart:
    n = len(u)
    out = [None] * n
    for x, y in enumerate(u):
        if y is not None:
            out[y] = x
    return tuple(out)


def fchart_dom(u: FChart) -> frozenset:
    return frozenset(x for x, y in enumerate(u) if y is not None)


def fchart_im(u: FChart) -> frozenset:
    return frozenset(y for y in u if y is not None)


def fchart_rank(u: FChart) -> int:
    return sum(1 for y in u if y is not None)


def fchart_collapse(u: FChart) -> int:
    """Points outside a transversal of the kernel; for injective maps the
    kernel is trivial so this is just the number of undefined points."""
    return len(u) - fchart_rank(u)


def fchart_defect(u: FChart) -> int:
    return len(u) - fchart_rank(u)


def is_fchart(u) -> bool:
    if not isinstance(u, tuple):
        return False
    seen = set()
    for y in u:
        if y is None:
            continue
        if not isinstance(y, int) or not 0 <= y < len(u) or y in seen:
            return False
        seen.add(y)
    return True


def ftrans_rank(u: FTrans) -> int:
    return len(set(u))


def ftrans_collapse(u: FTrans) -> int:
    return len(u) - ftrans_rank(u)


def ftrans_defect(u: FTrans) -> int:
    return len(u) - ftrans_rank(u)


def is_injective_ftrans(u: FTrans) -> bool:
    return len(set(u)) == len(u)


# -- Enumeration -------------------------------------------------------------


@lru_cache(maxsize=None)
def all_fcharts(n: int) -> tuple:
    """Every partial injection on n points."""
    if n > 7:
        raise ResourceGuardError(f"refusing to enumerate partial injections for n={n} > 7")
    out = []
    pts = range(n)
    for k in range(n + 1):
        for dom in combinations(pts, k):
            for img in combinations(pts, k):
                for arranged in permutations(img):
                    u = [None] * n
                    for x, y in zip(dom, arranged):
                        u[x] = y
                    out.append(tuple(u))
    return tuple(sorted(out, key=_fchart_key))


def _fchart_key(u: FChart):
    return tuple(-1 if y is None else y for y in u)


@lru_cache(maxsize=None)
def sym_group(n: int) -> tuple:
    return tuple(sorted(p for p in permutations(range(n))))


def identity_fchart(n: int) -> FChart:
    return tuple(range(n))


def low_rank_ideal(n: int, max_rank: int) -> frozenset:
    return frozenset(u for u in all_fcharts(n) if fchart_rank(u) <= max_rank)


def strict_ideal(n: int) -> frozenset:
    """Everything of non-maximal rank (the non-permutations)."""
    return low_rank_ideal(n, n - 1)


def partial_identities(n: int) -> frozenset:
    out = []
    for mask in range(1 << n):
        out.append(tuple(x if mask >> x & 1 else None for x in range(n)))
    return frozenset(out)


# -- Generic closure ----------------------------------------------------------


def fchart_closure(gens) -> frozenset:
    """The subsemigroup generated by ``gens``.

    ``_span`` closes them from the generators they need, so a closure costs
    about 2 * |closure| * |kept generators| products, however many of the
    closure's own elements ``gens`` lists: all 13,327 partial injections on 6
    points close from 7 kept generators.  Maps on different numbers of
    points are refused with ``ParameterError``, and a closure of more than
    ``MAX_CLOSURE_CELLS`` entries with ``ResourceGuardError``.
    """
    gens = list(gens)
    sizes = sorted({len(g) for g in gens})
    if len(sizes) > 1:
        raise ParameterError(
            f"maps on {sizes[0]} and {sizes[-1]} points cannot be multiplied"
        )
    cap = MAX_CLOSURE_CELLS // max([1, *sizes])
    closed = _span(gens, cap + 1)[0]
    if len(closed) > cap:
        raise ResourceGuardError(
            f"closure passes {MAX_CLOSURE_CELLS} entries (elements x points)"
        )
    return frozenset(closed)


def _span(members, stop: int):
    """The subsemigroup generated by ``members``, from the members it needs.

    Members are taken in order of falling rank, and one is kept as a
    generator only when the closure of those kept so far misses it; each
    kept generator extends that closed set by one ``_close`` call, with the
    kept generators as the only multipliers.  Returns the closure, the
    padded maps of the kept generators and their rows.  Once at least
    ``stop`` elements are known it returns at once, and the set may then
    fall short of the closure.
    """
    elements: set = set()
    padded: list = []
    rows: list = []
    # count(None) is the corank, and a C-level key keeps small closures cheap.
    for g in sorted(members, key=methodcaller("count", None)):
        if g in elements:
            continue
        elements.add(g)
        padded.append(g + (None,))
        rows.append(_row(g))
        _close(elements, [g], padded, rows, len(rows) - 1, stop)
        if len(elements) >= stop:
            break
    return elements, padded, rows


def _close(elements: set, frontier: list, padded: list, rows: list, base_size: int, stop) -> set:
    """The closure loop of ``_span`` and ``is_maximal``, on prepared
    generators.

    ``elements`` holds a closed base and the new generators ``frontier``;
    ``padded`` and ``rows`` list generators of the whole, the ``base_size``
    that generate the base first.  Every new element a is multiplied on
    both sides by each generator, which reaches every word in them: the
    products a*g form one row, ``map(_row(a), padded)``, and the products
    g*a call each generator's own row on the padded a.  In the first round
    the new elements are the new generators themselves, so a product of two
    of them is formed once, as a*g, and products of two base elements are
    never formed.  Grows ``elements`` in place and returns it; with ``stop``
    set, it returns as soon as at least ``stop`` elements are known, so the
    result may then fall short of the closure.
    """
    limit = float("inf") if stop is None else stop
    left = rows[:base_size]
    while frontier and len(elements) < limit:
        fresh = []
        for a in frontier:
            pa = a + (None,)
            for c in chain(map(_row(a), padded), [g(pa) for g in left]):
                if c not in elements:
                    elements.add(c)
                    fresh.append(c)
                    if len(elements) >= limit:
                        return elements
        frontier = fresh
        left = rows
    return elements


def is_closed(elements) -> bool:
    """Is ``elements`` closed under composition?  Exact: the span of the
    elements, cut one past their number, is the set itself only when every
    product lies in it, at about 2 * |elements| * |kept generators|
    products instead of |elements|^2."""
    elements = set(elements)
    return _span(elements, len(elements) + 1)[0] == elements


def is_inverse_closed(elements) -> bool:
    elements = set(elements)
    return all(fchart_invert(a) in elements for a in elements)


# -- Minimal transformation extensions ----------------------------------------


def minimal_extension(u: FChart) -> FTrans:
    """Total map agreeing with u on dom(u) and with image exactly im(u).

    Undefined points are sent to the image of the least defined point,
    which makes the choice deterministic.
    """
    dom = sorted(fchart_dom(u))
    if not dom:
        raise ParameterError("the empty chart has no transformation extension")
    fill = u[dom[0]]
    return tuple(y if y is not None else fill for y in u)


def is_transversal(v: FTrans, t: frozenset) -> bool:
    if len(t) != ftrans_rank(v):
        return False
    return {v[x] for x in t} == set(v)


def mutt_products(vs, assignment: dict, maxlen: int) -> frozenset:
    """All products v0*...*vk (k < maxlen) where each intermediate image is
    contained in the assigned transversal of the next factor."""
    vs = list(vs)
    for v in vs:
        t = assignment.get(v)
        if t is None or not is_transversal(v, frozenset(t)):
            raise ParameterError(
                f"assignment for {render_fchart(v)} is not a transversal"
            )
    seen = set(vs)
    frontier = set(vs)
    for _ in range(maxlen - 1):
        fresh = set()
        for p in frontier:
            imp = set(p)
            for v in vs:
                if imp <= set(assignment[v]):
                    q = fchart_compose(p, v)
                    if q not in seen:
                        fresh.add(q)
        seen |= fresh
        frontier = fresh
        if not frontier:
            break
    return frozenset(seen)


def injective_mutt_membership(us, maxlen: int = 3):
    """Check that injective chained-transversal products of the minimal
    extensions of us land in the semigroup generated by us.

    Returns (ok, counterexamples).
    """
    us = sorted(set(us), key=_fchart_key)
    if not us:
        raise ParameterError("need at least one chart")
    assignment: dict = {}
    for u in us:
        if fchart_rank(u) == 0:
            raise ParameterError("charts must be non-empty")
        v = minimal_extension(u)
        if v not in assignment:
            assignment[v] = frozenset(fchart_dom(u))
    products = mutt_products(list(assignment), assignment, maxlen)
    generated = fchart_closure(us)
    bad = []
    for p in products:
        if is_injective_ftrans(p):
            as_chart = tuple(p)
            if as_chart not in generated:
                bad.append(as_chart)
    return (not bad, bad)


# -- Maximal subsemigroups ------------------------------------------------------


def is_maximal(m, n: int) -> bool:
    """Is the closed proper subset ``m`` of the partial injections on n
    points a maximal subsemigroup, that is, does ``m`` with any one missing
    element generate everything?

    ``is_closed``'s span of ``m`` also yields the generators ``m`` needs,
    and each closure of ``m`` with a missing x multiplies by those and x
    only.  One x is closed per double orbit H*x*H, where H is the group of
    permutations in ``m``: for s and t in H, s*x*t lies outside ``m`` (else
    x = s^-1 * (s*x*t) * t^-1 would lie in it) and generates ``m`` with x
    and back, so it needs no closure of its own.  A closed ``m`` without
    permutations has H empty, and then every x is closed.
    """
    universe = all_fcharts(n)
    mset = set(m)
    if not mset.issubset(universe):
        raise ParameterError("candidate contains elements outside the monoid")
    closure, padded, rows = _span(mset, len(mset) + 1)
    if closure != mset:
        raise ParameterError("candidate is not closed under composition")
    whole = len(universe)
    if len(mset) == whole:
        raise ParameterError("candidate is the whole monoid, hence not proper")
    units = [u for u in mset if None not in u]
    unit_padded = [u + (None,) for u in units]
    unit_rows = [_row(u) for u in units]
    decided: set = set()
    for x in universe:
        if x in mset or x in decided:
            continue
        px = x + (None,)
        for s in unit_rows:
            decided.update(map(_row(s(px)), unit_padded))
        grown = _close({*mset, x}, [x], [*padded, px], [*rows, _row(x)], len(rows), whole)
        if len(grown) < whole:
            return False
    return True


class LabelledSet(NamedTuple):
    label: str
    elements: frozenset


def maximal_subgroups(n: int) -> list[frozenset]:
    """Maximal subgroups of the symmetric group, by closing each unordered
    pair {g, h} of permutations once, g = h included (complete for n <= 4,
    where every subgroup is generated by at most two elements)."""
    if n > 4:
        raise ResourceGuardError("subgroup enumeration is only supported for n <= 4")
    perms = sym_group(n)
    whole = frozenset(perms)
    subgroups = {frozenset({identity_fchart(n)})}
    for g, h in combinations_with_replacement(perms, 2):
        subgroups.add(fchart_closure({g, h}))
    proper = [s for s in subgroups if s != whole]
    maximal = [
        s
        for s in proper
        if not any(s < t for t in proper)
    ]
    return sorted(maximal, key=lambda s: (-len(s), sorted(s)))


def predicted_finite_maximals(n: int) -> list[LabelledSet]:
    """The expected maximal subsemigroups of the partial injection monoid:
    permutations plus everything of rank <= n-2, and one set per maximal
    subgroup of the permutation group."""
    if not 2 <= n <= 4:
        raise ParameterError("predictions are provided for 2 <= n <= 4 only")
    sym = frozenset(sym_group(n))
    non_perms = frozenset(all_fcharts(n)) - sym
    out = [
        LabelledSet(
            "permutations-plus-corank2",
            sym | low_rank_ideal(n, n - 2),
        )
    ]
    for i, g in enumerate(maximal_subgroups(n)):
        out.append(LabelledSet(f"subgroup-{i}-order-{len(g)}", frozenset(g) | non_perms))
    return out


# -- All maximal subsemigroups, by J-class reduction ----------------------------


class SearchResult(NamedTuple):
    """The maximal subsemigroups of the partial injections on n points and
    the maximal elements among their inverse parts, both sorted by
    ``_set_key``.  ``complete`` and ``note`` stay for the pinned summaries;
    the reduction is exact, so they are always True and empty."""

    n: int
    complete: bool
    maximal: list[frozenset]
    maximal_inverse: list[frozenset]
    note: str = ""


def completeness_search(n: int) -> SearchResult:
    """Every maximal subsemigroup of the partial injections on n points.

    A maximal subsemigroup M of a finite semigroup misses elements of
    exactly one J-class J (Graham, Graham and Rhodes, 1968), so M contains
    everything outside J and hence ``base``, the subsemigroup that
    everything outside J generates.  Here the J-classes are the ranks.  If
    J lies inside ``base``, no M misses J.  For the group of units (rank n)
    everything else is an ideal, so the M are that ideal together with a
    maximal subgroup of the permutations.  For a lower rank, every proper
    subsemigroup containing ``base`` is ``base`` itself once ``base`` is
    maximal, which ``is_maximal`` checks.

    n runs from 2 to 4: ``maximal_subgroups`` is complete only for n <= 4.
    """
    if n < 2:
        raise ParameterError("completeness search needs n >= 2")
    if n > 4:
        raise ResourceGuardError("completeness search supports 2 <= n <= 4")
    universe = frozenset(all_fcharts(n))
    maximal = []
    for k in range(n, -1, -1):
        rest = frozenset(u for u in universe if fchart_rank(u) != k)
        base = fchart_closure(rest)
        if base == universe:
            continue
        if k == n:
            maximal.extend(rest | h for h in maximal_subgroups(n))
        elif is_maximal(base, n):
            maximal.append(base)
        else:
            raise InternalError(
                f"internal error: rank {k} needs a Rees-matrix reduction"
            )
    # Maximal inverse-closed subsemigroups are the maximal elements among
    # the intersections of each maximal subsemigroup with its inverse.
    parts = {m & frozenset(map(fchart_invert, m)) for m in maximal}
    inverse = [v for v in parts if not any(v < o for o in parts)]
    return SearchResult(
        n, True, sorted(maximal, key=_set_key), sorted(inverse, key=_set_key)
    )


def _set_key(s: frozenset):
    return (-len(s), sorted(map(_fchart_key, s)))


# -- Text format -----------------------------------------------------------------


def render_fchart(u) -> str:
    return "[" + ",".join("_" if y is None else str(y) for y in u) + "]"


def parse_fchart(text: str) -> FChart:
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ParseError(f"finite chart literal needs brackets: {text!r}")
    body = t[1:-1].strip()
    if not body:
        raise ParseError("empty finite chart literal; use [_] style instead")
    entries = []
    for tok in body.split(","):
        tok = tok.strip()
        if tok == "_":
            entries.append(None)
        elif tok.isdigit():
            entries.append(int(tok))
        else:
            raise ParseError(f"bad entry {tok!r} in finite chart literal")
    u = tuple(entries)
    if not is_fchart(u):
        raise ParseError(f"not an injective partial map: {text!r}")
    return u
