"""Charts: partial bijections of the naturals with decidable structure.

A chart is a finite set of exceptional point-to-point pairs together with
finitely many pieces, each piece an order preserving affine map from one
arithmetic progression onto another.  The family is closed under
composition (convolving progressions via the Chinese remainder theorem),
inversion and restriction, and every derived set (domain, image, their
complements) is eventually periodic, so ranks, collapses and defects are
computed exactly.

Composition is written left to right throughout: (x)(f * g) = ((x)f)g.

Charts must be built through `make_chart`, which validates injectivity and
canonicalises: pieces are regrouped by the affine rule they apply, each
group's sources are expressed with the minimal period, every piece starts at
the least point from which its whole residue class follows the rule, and
whatever sits before that start is demoted to plain pairs.  The result
depends only on the map itself, so structural equality of charts is
extensional equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cardinal import ALEPH0, Card, ZERO
from .epset import (
    EMPTY,
    EPSet,
    NATURALS,
    Prog,
    ParseError,
    from_finite,
    from_prog,
    progs_intersect,
    prog_from_parts,
    render_prog,
    union_all,
)
from .errors import InjectivityError, ParameterError


@dataclass(frozen=True, order=True)
class Piece:
    """Order preserving map sending src.value(i) to dst.value(i)."""

    src: Prog
    dst: Prog

    def apply(self, x: int) -> int:
        return self.dst.value(self.src.index(x))

    def is_identity(self) -> bool:
        return self.src == self.dst


@dataclass(frozen=True)
class Chart:
    pairs: frozenset[tuple[int, int]]
    pieces: tuple[Piece, ...]
    # Index of `pairs` for point lookup; derived, so not part of identity.
    pair_map: dict[int, int] = field(compare=False, hash=False, repr=False)

    def __mul__(self, other: "Chart") -> "Chart":
        return compose(self, other)

    def inverse(self) -> "Chart":
        return invert(self)

    def apply(self, x: int) -> int | None:
        return apply_chart(self, x)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Chart({render_chart(self)!r})"


# -- Construction and canonical form --------------------------------------


def _divisors(n: int) -> list[int]:
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _canonicalize(
    pair_map: dict[int, int], pieces: list[Piece]
) -> tuple[dict[int, int], list[Piece]]:
    """Rewrite (pairs, pieces) as the canonical presentation of the same map.

    Pieces are grouped by the affine rule they apply; each group's source
    classes are re-expressed with the minimal period of their union, and each
    resulting piece starts at the least point from which its whole class
    follows the rule, absorbing pairs that extend it downward.  Elements of
    the old pieces left before a canonical start become plain pairs.  The
    output depends only on the map, not on its presentation.

    Every walk is bounded by its own residue class: the walk down for a new
    piece starts at the latest first point of the old pieces in its class,
    and an old piece is walked only up to the canonical start of each class
    it meets, past which its points lie on the new piece.  For given steps,
    the cost is linear in the pieces, the pairs and the demoted points, and
    does not depend on how far apart the pieces start.
    """
    if not pieces:
        return dict(pair_map), []

    def lookup(x: int) -> int | None:
        y = pair_map.get(x)
        if y is not None:
            return y
        for pc in pieces:
            if x in pc.src:
                return pc.apply(x)
        return None

    groups: dict[tuple[Fraction, Fraction], list[Piece]] = {}
    for pc in pieces:
        slope = Fraction(pc.dst.step, pc.src.step)
        intercept = pc.dst.first - slope * pc.src.first
        groups.setdefault((slope, intercept), []).append(pc)

    new_pieces: list[Piece] = []
    # Old piece -> the points it keeps below the canonical starts.
    early: dict[Piece, list[int]] = {}
    for (slope, _), grp in groups.items():
        span = lcm(*(pc.src.step for pc in grp))
        # Each class mod span belongs to one old piece; keep its first point.
        owner_first = {
            c % span: pc.src.first
            for pc in grp
            for c in range(pc.src.first, pc.src.first + span, pc.src.step)
        }
        period = span
        for d in _divisors(span):
            if all((c + d) % span in owner_first for c in owner_first):
                period = d
                break
        step_out = slope * period
        if step_out.denominator != 1:  # pragma: no cover - impossible for valid input
            raise ParameterError("piece group with fractional output step")
        step_out = int(step_out)
        # From the latest first point of a class on, old pieces cover it.
        tops: dict[int, int] = {}
        for c, first in owner_first.items():
            tops[c % period] = max(tops.get(c % period, 0), first)
        starts: dict[int, int] = {}
        for r, top in tops.items():
            v = r + -(-(top - r) // period) * period
            y = lookup(v)
            while v - period >= 0 and y - step_out >= 0 and lookup(v - period) == y - step_out:
                v -= period
                y -= step_out
            starts[r] = v
            new_pieces.append(Piece(Prog(v, period), Prog(y, step_out)))
        for pc in grp:
            stride = lcm(pc.src.step, period)
            early[pc] = sorted(
                x
                for x0 in range(pc.src.first, pc.src.first + stride, pc.src.step)
                for x in range(x0, starts[x0 % period], stride)
            )

    new_pieces.sort()

    def covered(x: int) -> bool:
        return any(x in pc.src for pc in new_pieces)

    out_pairs = {x: y for x, y in pair_map.items() if not covered(x)}
    for pc in pieces:
        for x in early[pc]:
            if not covered(x):
                out_pairs[x] = pc.apply(x)
    return out_pairs, new_pieces


def make_chart(pairs, pieces) -> Chart:
    piece_list = list(pieces)

    pair_map: dict[int, int] = {}
    for x, y in pairs:
        x, y = int(x), int(y)
        if x < 0 or y < 0:
            raise ParameterError(f"chart points must be naturals, got ({x},{y})")
        if x in pair_map and pair_map[x] != y:
            raise InjectivityError(f"point {x} is sent to both {pair_map[x]} and {y}")
        pair_map[x] = y

    _validate(Chart(frozenset(pair_map.items()), tuple(sorted(piece_list)), pair_map))
    pair_map, piece_list = _canonicalize(pair_map, piece_list)
    chart = Chart(frozenset(pair_map.items()), tuple(piece_list), pair_map)
    _validate(chart)
    return chart


def _validate(c: Chart) -> None:
    seen_y: dict[int, int] = {}
    for x, y in c.pairs:
        if y in seen_y:
            raise InjectivityError(f"points {seen_y[y]} and {x} both map to {y}")
        seen_y[y] = x
    for i, a in enumerate(c.pieces):
        for b in c.pieces[i + 1 :]:
            clash = progs_intersect(a.src, b.src)
            if clash is not None:
                raise InjectivityError(
                    f"piece sources overlap at {clash.first}"
                )
            clash = progs_intersect(a.dst, b.dst)
            if clash is not None:
                raise InjectivityError(
                    f"piece destinations overlap at {clash.first}"
                )
        for x, y in c.pairs:
            if x in a.src:
                raise InjectivityError(f"pair source {x} lies on a piece source")
            if y in a.dst:
                raise InjectivityError(f"pair destination {y} lies on a piece destination")


EMPTY_CHART = make_chart((), ())
IDENTITY_CHART = make_chart((), (Piece(Prog(0, 1), Prog(0, 1)),))


# -- Point evaluation ------------------------------------------------------


def apply_chart(c: Chart, x: int) -> int | None:
    y = c.pair_map.get(x)
    if y is not None:
        return y
    for pc in c.pieces:
        if x in pc.src:
            return pc.apply(x)
    return None


# -- Composition, inversion ------------------------------------------------


def compose(f: Chart, g: Chart) -> Chart:
    """Left-to-right composition f then g."""
    pairs = []
    pieces = []
    for x, y in f.pairs:
        z = apply_chart(g, y)
        if z is not None:
            pairs.append((x, z))
    for pf in f.pieces:
        for y, z in g.pairs:
            if y in pf.dst:
                pairs.append((pf.src.value(pf.dst.index(y)), z))
        for pg in g.pieces:
            mid = progs_intersect(pf.dst, pg.src)
            if mid is None:
                continue
            i0 = pf.dst.index(mid.first)
            k_f = mid.step // pf.dst.step
            j0 = pg.src.index(mid.first)
            k_g = mid.step // pg.src.step
            pieces.append(
                Piece(
                    Prog(pf.src.value(i0), pf.src.step * k_f),
                    Prog(pg.dst.value(j0), pg.dst.step * k_g),
                )
            )
    return make_chart(pairs, pieces)


def invert(f: Chart) -> Chart:
    return make_chart(
        ((y, x) for x, y in f.pairs),
        (Piece(pc.dst, pc.src) for pc in f.pieces),
    )


def chart_union(*charts: Chart) -> Chart:
    """Union of charts with disjoint domains and images."""
    pairs = []
    pieces = []
    for c in charts:
        pairs.extend(c.pairs)
        pieces.extend(c.pieces)
    return make_chart(pairs, pieces)


def restrict(f: Chart, s: EPSet) -> Chart:
    """The restriction of f to domain points inside s."""
    return compose(identity_on(s), f)


# -- Derived sets and statistics -------------------------------------------


@lru_cache(maxsize=65536)
def dom_set(c: Chart) -> EPSet:
    parts = [from_prog(pc.src) for pc in c.pieces]
    parts.append(from_finite(x for x, _ in c.pairs))
    return union_all(parts)


@lru_cache(maxsize=65536)
def im_set(c: Chart) -> EPSet:
    parts = [from_prog(pc.dst) for pc in c.pieces]
    parts.append(from_finite(y for _, y in c.pairs))
    return union_all(parts)


@dataclass(frozen=True)
class ChartStats:
    rank: Card
    collapse: Card
    defect: Card
    dom: EPSet
    im: EPSet
    support: EPSet | None


@lru_cache(maxsize=65536)
def stats(c: Chart) -> ChartStats:
    dom = dom_set(c)
    im = im_set(c)
    rank = im.card()
    collapse = dom.complement().card()
    defect = im.complement().card()
    support = None
    if dom == NATURALS and im == NATURALS:
        support = _support(c)
    return ChartStats(rank, collapse, defect, dom, im, support)


def _support(c: Chart) -> EPSet:
    """Moved points of a permutation chart."""
    moved = [from_finite(x for x, y in c.pairs if x != y)]
    for pc in c.pieces:
        if pc.is_identity():
            continue
        src = from_prog(pc.src)
        if pc.src.step == pc.dst.step:
            # Pure shift: every point moves (starts differ, else identity).
            moved.append(src)
        else:
            # Affine with distinct slopes fixes at most one point.
            num = pc.dst.first * pc.src.step - pc.src.first * pc.dst.step
            den = pc.src.step - pc.dst.step
            if num % den == 0 and (x := num // den) in pc.src and pc.apply(x) == x:
                moved.append(src.difference(from_finite([x])))
            else:
                moved.append(src)
    return union_all(moved)


def rank_of(c: Chart) -> Card:
    return stats(c).rank


def collapse_of(c: Chart) -> Card:
    return stats(c).collapse


def defect_of(c: Chart) -> Card:
    return stats(c).defect


def is_permutation(c: Chart) -> bool:
    st = stats(c)
    return st.dom == NATURALS and st.im == NATURALS


def is_total(c: Chart) -> bool:
    return stats(c).dom == NATURALS


def is_partial_identity(c: Chart) -> bool:
    return all(x == y for x, y in c.pairs) and all(pc.is_identity() for pc in c.pieces)


# -- Images of sets ---------------------------------------------------------


def image_of_set(f: Chart, s: EPSet) -> EPSet:
    """The set {(x)f : x in s and x in dom f}."""
    finite_pts = [y for x, y in f.pairs if x in s]
    parts = [from_finite(finite_pts)]
    for pc in f.pieces:
        hit = s.intersect(from_prog(pc.src))
        if hit.is_empty():
            continue
        progs, low = hit.decompose()
        parts.append(from_finite(pc.apply(x) for x in low))
        for pr in progs:
            i0 = pc.src.index(pr.first)
            k = pr.step // pc.src.step
            parts.append(from_prog(Prog(pc.dst.value(i0), pc.dst.step * k)))
    return union_all(parts)


def preimage_of_set(f: Chart, s: EPSet) -> EPSet:
    return image_of_set(invert(f), s)


# -- Constructions -----------------------------------------------------------


def identity_on(s: EPSet) -> Chart:
    progs, low = s.decompose()
    return make_chart(((x, x) for x in low), (Piece(p, p) for p in progs))


def transposition(u: int, v: int) -> Chart:
    if u == v:
        raise ParameterError("transposition needs two distinct points")
    rest = NATURALS.difference(from_finite([u, v]))
    return chart_union(identity_on(rest), make_chart(((u, v), (v, u)), ()))


def bijection_between(a: EPSet, b: EPSet) -> Chart:
    """Some chart with domain exactly a and image exactly b."""
    ca, cb = a.card(), b.card()
    if ca != cb:
        raise ParameterError(
            f"cannot biject sets of cardinality {ca} and {cb}"
        )
    if ca.finite:
        return make_chart(zip(sorted(a.low), sorted(b.low)), ())

    progs_a, fin_a = a.decompose()
    progs_b, fin_b = b.decompose()
    # Equalise piece counts by splitting one progression into exactly as
    # many interleaved parts as are missing, then equalise the finite parts
    # by shifting progression heads into them.
    if len(progs_a) < len(progs_b):
        p = progs_a.pop()
        progs_a.extend(p.split(len(progs_b) - len(progs_a)))
    elif len(progs_b) < len(progs_a):
        p = progs_b.pop()
        progs_b.extend(p.split(len(progs_a) - len(progs_b)))
    progs_a.sort()
    progs_b.sort()
    while len(fin_a) < len(fin_b):
        i = min(range(len(progs_a)), key=lambda j: progs_a[j].first)
        fin_a.append(progs_a[i].first)
        progs_a[i] = Prog(progs_a[i].first + progs_a[i].step, progs_a[i].step)
    while len(fin_b) < len(fin_a):
        i = min(range(len(progs_b)), key=lambda j: progs_b[j].first)
        fin_b.append(progs_b[i].first)
        progs_b[i] = Prog(progs_b[i].first + progs_b[i].step, progs_b[i].step)
    return make_chart(
        zip(sorted(fin_a), sorted(fin_b)),
        (Piece(pa, pb) for pa, pb in zip(progs_a, progs_b)),
    )


def extend_to_bijection(p: Chart, src: EPSet, dst: EPSet) -> Chart:
    """Extend a partial bijection with domain inside src and image inside
    dst to one with domain exactly src and image exactly dst."""
    dom = dom_set(p)
    im = im_set(p)
    if not dom.is_subset(src):
        raise ParameterError("domain is not contained in the source carrier")
    if not im.is_subset(dst):
        raise ParameterError("image is not contained in the target carrier")
    missing_dom = src.difference(dom)
    missing_im = dst.difference(im)
    if missing_dom.card() != missing_im.card():
        raise ParameterError(
            "carrier leftovers have different cardinalities "
            f"({missing_dom.card()} vs {missing_im.card()})"
        )
    if missing_dom.is_empty():
        return p
    return chart_union(p, bijection_between(missing_dom, missing_im))


def extend_to_permutation(p: Chart, y: EPSet) -> Chart:
    """Extend a partial bijection of y to a permutation of y."""
    return extend_to_bijection(p, y, y)


def sandwich_factorize(h: Chart, f: Chart, g: Chart, y: EPSet) -> Chart:
    """Permutation p fixing the complement of y with f * p * g == h.

    Requires: y a moiety of the naturals; f total with image a moiety of
    y; g surjective with domain a moiety of y.
    """
    if not y.is_moiety():
        raise ParameterError("carrier y must be a moiety of the naturals")
    fs = stats(f)
    if fs.collapse != ZERO:
        raise ParameterError("f must be total (collapse zero)")
    if not fs.im.is_subset(y):
        raise ParameterError("image of f must lie inside y")
    if not (fs.im.card() == ALEPH0 and y.difference(fs.im).card() == ALEPH0):
        raise ParameterError("image of f must be a moiety of y")
    gs = stats(g)
    if gs.im != NATURALS:
        raise ParameterError("g must be surjective onto the naturals")
    if not gs.dom.is_subset(y):
        raise ParameterError("domain of g must lie inside y")
    if not (gs.dom.card() == ALEPH0 and y.difference(gs.dom).card() == ALEPH0):
        raise ParameterError("domain of g must be a moiety of y")

    p = compose(compose(invert(f), h), invert(g))
    dom_p = dom_set(p)
    im_p = im_set(p)

    # Points of im f where p is undefined must go outside dom g, so the
    # final composite is undefined exactly off dom h.
    loose = fs.im.difference(dom_p)
    outside = y.difference(gs.dom)
    if loose.is_empty():
        sink = EMPTY
        filler = EMPTY_CHART
    elif loose.card() == ALEPH0:
        sink = outside.split(2)[0]
        filler = bijection_between(loose, sink)
    else:
        sink = outside.take_first(len(loose.low))
        filler = bijection_between(loose, sink)

    rest_src = y.difference(fs.im)
    rest_dst = y.difference(im_p).difference(sink)
    closer = bijection_between(rest_src, rest_dst)

    p_prime = chart_union(p, filler, closer)
    p_full = chart_union(p_prime, identity_on(NATURALS.difference(y)))
    if compose(compose(f, p_full), g) != h:
        raise ParameterError("factorisation postcondition failed")
    return p_full


# -- Text format -------------------------------------------------------------


def render_chart(c: Chart) -> str:
    items = []
    for x, y in sorted(c.pairs):
        items.append(f"pair {x} -> {y}")
    for pc in c.pieces:
        items.append(f"piece {render_prog(pc.src)} -> {render_prog(pc.dst)}")
    inner = "; ".join(items)
    if inner:
        inner = " " + inner + "; "
    else:
        inner = " "
    return "chart {" + inner + "}"


def _parse_prog(text: str) -> Prog:
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ParseError(f"expected parenthesised progression, got {text!r}")
    toks = t[1:-1].split()
    if len(toks) != 5 or toks[1] != "mod" or toks[3] != "from":
        raise ParseError(f"bad progression {text!r}")
    try:
        r, m, t0 = int(toks[0]), int(toks[2]), int(toks[4])
    except ValueError as exc:
        raise ParseError(f"bad progression numbers in {text!r}") from exc
    return prog_from_parts(r, m, t0)


def parse_chart(text: str) -> Chart:
    t = text.strip()
    if not t.startswith("chart"):
        raise ParseError("chart literal must start with 'chart'")
    t = t[len("chart") :].strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ParseError("chart literal must be wrapped in braces")
    body = t[1:-1].strip()
    pairs = []
    pieces = []
    if body:
        for raw in body.split(";"):
            item = raw.strip()
            if not item:
                continue
            if item.startswith("pair"):
                rest = item[len("pair") :]
                if "->" not in rest:
                    raise ParseError(f"pair needs '->': {item!r}")
                xs, ys = rest.split("->", 1)
                try:
                    pairs.append((int(xs), int(ys)))
                except ValueError as exc:
                    raise ParseError(f"bad pair {item!r}") from exc
            elif item.startswith("piece"):
                rest = item[len("piece") :]
                if "->" not in rest:
                    raise ParseError(f"piece needs '->': {item!r}")
                src, dst = rest.split("->", 1)
                pieces.append(Piece(_parse_prog(src), _parse_prog(dst)))
            else:
                raise ParseError(f"unknown chart item {item!r}")
    return make_chart(pairs, pieces)
