"""Charts: partial bijections of the naturals with decidable structure.

A chart is a finite set of exceptional point-to-point pairs together with
finitely many pieces, each piece an order preserving affine map from one
arithmetic progression onto another.  The family is closed under
composition (convolving progressions via the Chinese remainder theorem),
inversion and restriction, and every derived set (domain, image, their
complements) is eventually periodic, so ranks, collapses and defects are
computed exactly.

Composition is written left to right throughout: (x)(f * g) = ((x)f)g.

Injectivity is checked where a chart enters the program: `make_chart`, and
`parse_chart` and `chart_union` through it, run `_validate` on their input
(`parse_chart` reports a clash as a `ParseError`, like the other literals).
`compose`, `invert`, `identity_on`, `bijection_between`,
`extend_to_bijection` and the private `_disjoint_union` (for parts that
are disjoint by construction: `extend_to_bijection` here, and in
`partition_action` the maps between blocks of `block_shuffle`,
`padding_perm`, `defect_spreader` and `_image_aligner`) build maps that
are injective by construction and go straight to the private `_chart`;
a property test over their output
(tests/test_chart.py, `TestInjectiveByConstruction`) carries the check.
Every chart is canonicalised: pieces are regrouped by the affine rule they
apply, each group's sources are expressed with the minimal period, every
piece starts at the least point from which its whole residue class follows
the rule, and whatever sits before that start is demoted to plain pairs.
The result depends only on the map itself, so structural equality of charts
is extensional equality.

A Chart is a NamedTuple (pairs, pieces), like ``Piece`` and ``epset.Prog``:
equality, hash and order are those of that field tuple, computed in C.
``Chart.pair_map``, the index of the pairs for point lookup, sits outside
the tuple, in the instance ``__dict__``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .cardinal import ALEPH0, Card, ZERO
from .epset import (
    EMPTY,
    EPSet,
    NATURALS,
    Prog,
    _guard,
    affine_image,
    prog_part,
    progs_intersect,
    prog_from_parts,
    render_prog,
    union_parts,
)
from .errors import InjectivityError, InternalError, ParameterError, ParseError, ResourceGuardError

MAX_GROUP_CLASSES = 2**12  # most residue classes one piece group may hold mod its span
MAX_DEMOTED = 2**16  # most points canonicalisation may demote to pairs


class Piece(NamedTuple):
    """Order preserving map sending src.value(i) to dst.value(i); a NamedTuple
    of Progs, so it hashes, compares and sorts in C, as its four ints do."""

    src: Prog
    dst: Prog

    def apply(self, x: int) -> int:
        return self.dst.value(self.src.index(x))

    def is_identity(self) -> bool:
        return self.src == self.dst


class _ChartFields(NamedTuple):
    pairs: frozenset[tuple[int, int]]
    pieces: tuple[Piece, ...]


class Chart(_ChartFields):
    """Identified by (pairs, pieces); ``pair_map`` indexes the pairs for point
    lookup and is derived from them.  Copy and pickle call ``__new__`` with
    the fields alone (``__getnewargs__``), so it rebuilds the index when it
    is not given."""

    def __new__(cls, pairs, pieces, pair_map: dict[int, int] | None = None) -> "Chart":
        self = tuple.__new__(cls, (pairs, pieces))
        self.pair_map = dict(pairs) if pair_map is None else pair_map
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Chart({render_chart(self)!r})"


# -- Construction and canonical form --------------------------------------


def _least_period(classes: list[int], span: int) -> int:
    """The least shift mod span that maps the residues `classes` onto themselves.

    The residues are read as the cyclic word of gaps between neighbours, and
    the shift is the first recurrence of that word inside itself doubled (the
    classic rotation trick), at a cost linear in the classes whatever the
    span.  Every gap starts with a comma, and any run of as many
    consecutive gaps as there are classes sums to span, so a recurrence is a
    whole rotation of the gaps.
    """
    cs = sorted(classes)
    cs.append(cs[0] + span)
    word = "".join(f",{y - x}" for x, y in zip(cs, cs[1:]))
    return cs[word.count(",", 0, (word + word).find(word, 1))] - cs[0]


def _canonicalize(
    pair_map: dict[int, int], pieces: list[Piece]
) -> tuple[dict[int, int], list[Piece]]:
    """Rewrite (pairs, pieces) as the canonical presentation of the same map.

    Pieces are grouped by the affine rule x -> (a*x + c)/b they apply, keyed
    by the integers (a, b, c) with a/b the slope in lowest terms; each
    group's source classes are re-expressed with the least period of their
    union (`_least_period`), and each resulting piece starts at the least
    point from which its whole class follows the rule, absorbing pairs that
    extend it downward.  Elements of the old pieces left before a canonical
    start become plain pairs.  The output depends only on the map, not on
    its presentation; its pieces come sorted.

    A group of one piece keeps its steps and demotes nothing: it walks down
    from its own first point, and keeps the input piece if the start stays.
    In a larger group, the walk for a new piece starts at the latest first
    point of the old pieces in its class, and an old piece is walked only up
    to the canonical start of each class it meets.  The walks are the only
    source of covered pairs: from a walk's first point on, its class lies
    on old pieces, which no pair of the injective input meets, and demoted
    points lie below their class's start.  So the output pairs are the input
    pairs less the points walked onto, then the demoted points.  For given
    steps, the cost is linear in the pieces, the pairs and the demoted
    points, and does not depend on how far apart the pieces start.  Both
    sizes that the input does not bound are counted from the steps and
    starts before anything is allocated: ResourceGuardError refuses a group
    with more than MAX_GROUP_CLASSES classes mod the lcm of its steps, and
    more than MAX_DEMOTED demoted points in all.
    """
    if not pieces:
        return dict(pair_map), []
    ints = [src + dst for src, dst in pieces]  # plain (sf, ss, df, ds) tuples unpack fast

    def lookup(x: int) -> int | None:
        y = pair_map.get(x)
        if y is not None:
            return y
        for sf, ss, df, ds in ints:
            if x >= sf and (x - sf) % ss == 0:
                return df + (x - sf) // ss * ds
        return None

    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, (sf, ss, df, ds) in enumerate(ints):
        g = gcd(ss, ds)
        a, b = ds // g, ss // g
        groups.setdefault((a, b, df * b - a * sf), []).append(i)

    out_pairs = dict(pair_map)
    new_pieces: list[Piece] = []
    # Old piece -> the points it keeps below the canonical starts.
    early: dict[tuple, list[int]] = {}
    demoted = 0
    for (a, b, _), idx in groups.items():
        if len(idx) == 1:
            sf, ss, df, ds = ints[idx[0]]
            v, y = sf, df
            while v - ss >= 0 and y - ds >= 0 and lookup(v - ss) == y - ds:
                v -= ss
                y -= ds
                out_pairs.pop(v, None)
            new_pieces.append(pieces[idx[0]] if v == sf else Piece(Prog(v, ss), Prog(y, ds)))
            continue
        grp = [ints[i] for i in idx]
        span = lcm(*(ss for _, ss, _, _ in grp))
        classes = sum(span // ss for _, ss, _, _ in grp)
        if classes > MAX_GROUP_CLASSES:
            raise ResourceGuardError(
                f"a piece group has {classes} residue classes mod {span}, "
                f"more than {MAX_GROUP_CLASSES}"
            )
        # Each class mod span belongs to one old piece; keep its first point.
        owner_first = {c % span: sf for sf, ss, _, _ in grp for c in range(sf, sf + span, ss)}
        period = _least_period(list(owner_first), span)
        step_out, rest = divmod(a * period, b)
        if rest:  # pragma: no cover - impossible for valid input
            raise InternalError("internal error: piece group with fractional output step")
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
                out_pairs.pop(v, None)
            starts[r] = v
            new_pieces.append(Piece(Prog(v, period), Prog(y, step_out)))
        for pc in grp:
            sf, ss, _, _ = pc
            stride = lcm(ss, period)
            runs = [range(x0, starts[x0 % period], stride) for x0 in range(sf, sf + stride, ss)]
            demoted += sum(map(len, runs))
            if demoted > MAX_DEMOTED:
                raise ResourceGuardError(
                    f"canonical form would demote more than {MAX_DEMOTED} points to pairs"
                )
            early[pc] = sorted(x for run in runs for x in run)

    new_pieces.sort()
    for pc in ints:
        sf, ss, df, ds = pc
        for x in early.get(pc, ()):
            out_pairs[x] = df + (x - sf) // ss * ds
    return out_pairs, new_pieces


def make_chart(pairs, pieces) -> Chart:
    """The chart of the given pairs and pieces, checked as input: each point
    a natural sent to one place, then `_validate` for injectivity.  Builders
    of maps injective by construction call `_chart` instead."""
    pieces = list(pieces)

    pair_map: dict[int, int] = {}
    for x, y in pairs:
        x, y = int(x), int(y)
        if x < 0 or y < 0:
            raise ParameterError(f"chart points must be naturals, got ({x},{y})")
        if x in pair_map and pair_map[x] != y:
            raise InjectivityError(f"point {x} is sent to both {pair_map[x]} and {y}")
        pair_map[x] = y
    _validate(frozenset(pair_map.items()), pieces)
    return _chart(pair_map, pieces)


def _chart(pair_map: dict[int, int], pieces: list[Piece]) -> Chart:
    """The canonical chart of an injective map, unchecked on input."""
    out_map, canonical = _canonicalize(pair_map, pieces)
    pair_set = frozenset(out_map.items())
    # Input already canonical (up to piece order) is injective, so the
    # postcondition runs only if canonicalisation changed something; a
    # clash there is a fault of `_canonicalize` or of a builder, not of
    # the user.
    if out_map != pair_map or canonical != sorted(pieces):
        try:
            _validate(pair_set, canonical)
        except InjectivityError as exc:
            raise InternalError(f"internal error: canonical form is not injective: {exc}") from exc
    return Chart(pair_set, tuple(canonical), out_map)


def _validate(pairs: frozenset[tuple[int, int]], pieces: list[Piece]) -> None:
    """Raise InjectivityError if two of the pairs and pieces share a source or a
    destination.  Pieces are read as sorted int tuples, which fixes the clash named."""
    seen_y: dict[int, int] = {}
    for x, y in pairs:
        if y in seen_y:
            raise InjectivityError(f"points {seen_y[y]} and {x} both map to {y}")
        seen_y[y] = x
    ints = sorted(src + dst for src, dst in pieces)  # as in `_canonicalize`
    for i, (sf, ss, df, ds) in enumerate(ints):
        for sf2, ss2, df2, ds2 in ints[i + 1 :]:
            # Two progressions meet iff their starts agree mod the gcd of their steps.
            if (sf2 - sf) % gcd(ss, ss2) == 0:
                clash = progs_intersect(Prog(sf, ss), Prog(sf2, ss2))
                raise InjectivityError(f"piece sources overlap at {clash.first}")
            if (df2 - df) % gcd(ds, ds2) == 0:
                clash = progs_intersect(Prog(df, ds), Prog(df2, ds2))
                raise InjectivityError(f"piece destinations overlap at {clash.first}")
        for x, y in pairs:
            if x >= sf and (x - sf) % ss == 0:
                raise InjectivityError(f"pair source {x} lies on a piece source")
            if y >= df and (y - df) % ds == 0:
                raise InjectivityError(f"pair destination {y} lies on a piece destination")


EMPTY_CHART = make_chart((), ())
IDENTITY_CHART = make_chart((), (Piece(Prog(0, 1), Prog(0, 1)),))


# -- Point evaluation ------------------------------------------------------


def apply_chart(c: Chart, x: int) -> int | None:
    y = c.pair_map.get(x)
    if y is not None:
        return y
    # Indexing the tuples is cheaper than `in`, `Piece.apply` or unpacking.
    for pc in c.pieces:
        src = pc[0]
        d = x - src[0]
        if d >= 0 and d % src[1] == 0:
            dst = pc[1]
            return dst[0] + d // src[1] * dst[1]
    return None


# -- Composition, inversion ------------------------------------------------


def compose(f: Chart, g: Chart) -> Chart:
    """Left-to-right composition f then g."""
    pairs = {}
    pieces = []
    for x, y in f.pairs:
        z = apply_chart(g, y)
        if z is not None:
            pairs[x] = z
    for pf in f.pieces:
        for y, z in g.pairs:
            if y in pf.dst:
                pairs[pf.src.value(pf.dst.index(y))] = z
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
    return _chart(pairs, pieces)


def invert(f: Chart) -> Chart:
    return _chart({y: x for x, y in f.pairs}, [Piece(pc.dst, pc.src) for pc in f.pieces])


def chart_union(*charts: Chart) -> Chart:
    """Union of charts with disjoint domains and images, checked by
    `make_chart` (InjectivityError if they meet)."""
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
    """The domain: each piece source one position (`prog_part`), merged
    with the pair points by `union_parts`, one mask per period, as images
    are.  A chart of k pieces of one step thus holds one residue mask as
    wide as the step, not k of them."""
    return union_parts((prog_part(pc.src) for pc in c.pieces), [x for x, _ in c.pairs])


@lru_cache(maxsize=65536)
def im_set(c: Chart) -> EPSet:
    """The image, built as `dom_set` builds the domain, from the destinations."""
    return union_parts((prog_part(pc.dst) for pc in c.pieces), [y for _, y in c.pairs])


class ChartStats(NamedTuple):
    rank: Card
    collapse: Card
    defect: Card
    dom: EPSet
    im: EPSet


@lru_cache(maxsize=65536)
def stats(c: Chart) -> ChartStats:
    dom = dom_set(c)
    im = im_set(c)
    return ChartStats(im.card(), dom.complement().card(), im.complement().card(), dom, im)


def is_permutation(c: Chart) -> bool:
    st = stats(c)
    return st.dom == NATURALS and st.im == NATURALS


def is_total(c: Chart) -> bool:
    return stats(c).dom == NATURALS


def is_partial_identity(c: Chart) -> bool:
    return all(x == y for x, y in c.pairs) and all(pc.is_identity() for pc in c.pieces)


# -- Images of sets ---------------------------------------------------------


@lru_cache(maxsize=65536)
def image_of_set(f: Chart, s: EPSet) -> EPSet:
    """The set {(x)f : x in s and x in dom f}; cached like `stats`.

    Built in one pass: each piece's image as residue positions
    (`affine_image`), merged with the pair images by `union_parts`, the
    merge that builds domains and images too.  The cost rule: one mask and
    one canonical form per image period, whatever the number of pieces and
    pairs, and `union_all` only across pieces of different image periods."""
    return _image(s, f.pairs, f.pieces)


def preimage_of_set(f: Chart, s: EPSet) -> EPSet:
    """The set {x : (x)f in s}, built as `image_of_set` builds the image,
    with every pair and piece read backwards; no inverse chart is made."""
    return _image(s, ((y, x) for x, y in f.pairs), ((pc.dst, pc.src) for pc in f.pieces))


def _image(s: EPSet, pairs, pieces) -> EPSet:
    # A pair source is tested against the bit of s that decides it, with no call.
    n, m, res, low = s.threshold, s.period, s.residues, s.low
    parts = [part for src, dst in pieces if (part := affine_image(s, src, dst)) is not None]
    return union_parts(parts, [y for x, y in pairs if (low >> x if x < n else res >> x % m) & 1])


# -- Constructions -----------------------------------------------------------


def identity_on(s: EPSet) -> Chart:
    progs, low = s.decompose()
    return _chart({x: x for x in low}, [Piece(p, p) for p in progs])


def transposition(u: int, v: int) -> Chart:
    """The swap of u and v in canonical form: the swap, the fixed points below
    top = max(u, v) + 1, and the identity from top on.  Those are top pairs,
    so top is mask-guarded and then refused above MAX_DEMOTED."""
    if u == v:
        raise ParameterError("transposition needs two distinct points")
    top = max(u, v) + 1
    _guard(top, 1)
    if top > MAX_DEMOTED:
        raise ResourceGuardError(
            f"transposition of {u} and {v} would hold {top} pairs, more than MAX_DEMOTED = {MAX_DEMOTED}"
        )
    fixed = ((x, x) for x in range(top) if x != u and x != v)
    return make_chart(((u, v), (v, u), *fixed), (Piece(Prog(top, 1), Prog(top, 1)),))


def bijection_between(a: EPSet, b: EPSet) -> Chart:
    """Some chart with domain exactly a and image exactly b."""
    ca, cb = a.card(), b.card()
    if ca != cb:
        raise ParameterError(
            f"cannot biject sets of cardinality {ca} and {cb}"
        )
    if ca.finite:
        return _chart(dict(zip(a.low, b.low)), [])

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
    return _chart(
        dict(zip(sorted(fin_a), sorted(fin_b))),
        [Piece(pa, pb) for pa, pb in zip(progs_a, progs_b)],
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
    return _disjoint_union(p, bijection_between(missing_dom, missing_im))


def _disjoint_union(*charts: Chart) -> Chart:
    """The union of charts whose domains and images are disjoint by
    construction, unchecked on input; `chart_union` checks its input."""
    return _chart(
        {x: y for c in charts for x, y in c.pairs},
        [pc for c in charts for pc in c.pieces],
    )


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

    p_full = chart_union(p, filler, closer, identity_on(NATURALS.difference(y)))
    if compose(compose(f, p_full), g) != h:
        raise InternalError("internal error: factorisation postcondition failed")
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
    try:
        return make_chart(pairs, pieces)
    except InjectivityError as exc:
        raise ParseError(str(exc)) from exc
