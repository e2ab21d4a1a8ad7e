"""Finite partitions of the naturals into infinite blocks, the induced
action of charts on blocks, and the constructions that steer it.

A chart f induces a binary relation on block indices: i relates to j
when infinitely many points of block i land in block j under f.  The
relation of a product is contained in the product of the relations, and
``padding_perm`` produces a block-preserving permutation a that makes
the containment an equality for a given pair: rel(f*a*g) = rel(f)rel(g).

``defect_spreader`` turns a total chart with missing points into one
whose missing points meet every block as much as possible, and
``block_evader`` combines everything to funnel the image of a total
chart into a single block using only permutations of the blocks plus two
supplied charts whose relations are not permutations.  Both return a
``Word``: labelled letters and their product, which ``replay`` recomputes.

Partitions and block relations have at most ``MAX_BLOCKS`` = 64 blocks:
``mod_partition``, ``make_partition`` and ``rel_from_pairs`` refuse more with
``ResourceGuardError`` ("... supports at most 64 blocks, got n") before
allocating anything.  A partition holds its n blocks and their residues, and a
relation has up to n^2 pairs.  On a shared 2-core Xeon, ``ixm rel rho`` of
``part mod 64`` and a 1,024-piece chart takes 0.23 s, 0.03 s of it in ``rho_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import permutations, product
from math import gcd, lcm
from operator import add, eq

from .cardinal import ALEPH0, Card, fin
from .chart import (
    Chart,
    _disjoint_union,
    bijection_between,
    compose,
    extend_to_bijection,
    identity_on,
    im_set,
    image_of_set,
    is_permutation,
    is_total,
    preimage_of_set,
    stats,
)
from .epset import EPSet, NATURALS, make_epset, parse_epset, render_epset, residue_class, union_all
from .errors import InternalError, ParameterError, ParseError, ResourceGuardError

MAX_BLOCKS = 64
MAX_RHO_STEPS = 1 << 22  # most loop steps one `rho_of` call may take


# -- Partitions -------------------------------------------------------------------


@dataclass(frozen=True)
class FinPartition:
    """A partition of the naturals into finitely many infinite pieces, each
    eventually periodic.  It is its blocks: ``residue_groups`` is read off
    them, and the residue classes mod n in order equal ``mod_partition(n)``."""

    blocks: tuple[EPSet, ...]

    @property
    def n(self) -> int:
        return len(self.blocks)

    @cached_property
    def residue_groups(self) -> tuple:
        """((period, [(block index, residues), ...]), ...): the blocks by period."""
        groups: dict[int, list] = {}
        for i, b in enumerate(self.blocks):
            groups.setdefault(b.period, []).append((i, tuple(b.residues)))
        return tuple(groups.items())


def _guard_blocks(n: int, what: str) -> None:
    if n > MAX_BLOCKS:
        raise ResourceGuardError(f"{what} supports at most {MAX_BLOCKS} blocks, got {n}")


@lru_cache(maxsize=32)
def mod_partition(n: int) -> FinPartition:
    if n < 2:
        raise ParameterError("a block partition needs at least two blocks")
    _guard_blocks(n, "a block partition")
    return FinPartition(tuple(residue_class(i, n) for i in range(n)))


def make_partition(blocks) -> FinPartition:
    blocks = tuple(blocks)
    if len(blocks) < 2:
        raise ParameterError("a block partition needs at least two blocks")
    _guard_blocks(len(blocks), "a block partition")
    for i, b in enumerate(blocks):
        if not b.is_moiety():
            raise ParameterError(f"block {i} is not both infinite and co-infinite")
    union, joint = union_all(blocks), lcm(*(b.period for b in blocks))
    below = make_epset(max(b.threshold for b in blocks), 1, (0,), ()).complement()
    def points(s: EPSet) -> int:  # below every threshold, then in one joint period
        return len(s.intersect(below).low) + len(s.residues) * (joint // s.period)
    # Past every threshold all repeat with the joint period, so the blocks are
    # disjoint iff they have as many points as their union in those two parts.
    if sum(map(points, blocks)) != points(union):
        raise ParameterError("blocks overlap")
    if union != NATURALS:
        raise ParameterError("blocks do not cover the naturals")
    return FinPartition(blocks)


def render_partition(p: FinPartition) -> str:
    if p == mod_partition(p.n):
        return f"part mod {p.n}"
    return "part blocks " + " | ".join(render_epset(b) for b in p.blocks)


def parse_partition(text: str) -> FinPartition:
    t = text.strip()
    if not t.startswith("part "):
        raise ParseError(f"partition literal must start with 'part': {text!r}")
    body = t[5:].strip()
    if body.startswith("mod "):
        arg = body[4:].strip()
        if not arg.isdigit() or int(arg) < 2:
            raise ParseError(f"modulus must be an integer >= 2: {text!r}")
        return mod_partition(int(arg))
    if body.startswith("blocks "):
        parts = [parse_epset(chunk.strip()) for chunk in body[7:].split("|")]
        try:
            return make_partition(parts)
        except ParameterError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown partition form in {text!r}")


# -- Block relations ---------------------------------------------------------------


@dataclass(frozen=True)
class BinRel:
    """A binary relation on {0..n-1}, one bitmask row per left index."""

    n: int
    rows: tuple[int, ...]

    def pairs(self) -> frozenset:
        return frozenset(
            (i, j) for i in range(self.n) for j in range(self.n) if self.rows[i] >> j & 1
        )


def rel_from_pairs(n: int, pairs) -> BinRel:
    _guard_blocks(n, "a block relation")
    rows = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ParameterError(f"pair ({i},{j}) out of range for n={n}")
        rows[i] |= 1 << j
    return BinRel(n, tuple(rows))


def rel_identity(n: int) -> BinRel:
    return BinRel(n, tuple(1 << i for i in range(n)))


def rel_full(n: int) -> BinRel:
    return BinRel(n, ((1 << n) - 1,) * n)


def rel_compose(r: BinRel, s: BinRel) -> BinRel:
    if r.n != s.n:
        raise ParameterError("relation sizes differ")
    rows = []
    for mask in r.rows:
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= s.rows[low.bit_length() - 1]
            m ^= low
        rows.append(out)
    return BinRel(r.n, tuple(rows))


def rel_converse(r: BinRel) -> BinRel:
    rows = [0] * r.n
    for i in range(r.n):
        for j in range(r.n):
            if r.rows[i] >> j & 1:
                rows[j] |= 1 << i
    return BinRel(r.n, tuple(rows))


def rel_dom_full(r: BinRel) -> bool:
    return all(row for row in r.rows)


def rel_im_full(r: BinRel) -> bool:
    acc = 0
    for row in r.rows:
        acc |= row
    return acc == (1 << r.n) - 1


def rel_is_perm(r: BinRel) -> bool:
    seen = 0
    for row in r.rows:
        if row == 0 or row & (row - 1):
            return False
        if seen & row:
            return False
        seen |= row
    return True


def perm_rel(pi) -> BinRel:
    return BinRel(len(pi), tuple(1 << pi[i] for i in range(len(pi))))


def render_rel(r: BinRel) -> str:
    inner = ",".join(f"({i},{j})" for i, j in sorted(r.pairs()))
    return f"rel n={r.n} {{{inner}}}"


def parse_rel(text: str) -> BinRel:
    t = text.strip()
    if not t.startswith("rel "):
        raise ParseError(f"relation literal must start with 'rel': {text!r}")
    body = t[4:].strip()
    if not body.startswith("n="):
        raise ParseError(f"relation literal needs n=<size>: {text!r}")
    head, _, rest = body.partition("{")
    n_text = head[2:].strip()
    if not n_text.isdigit() or int(n_text) < 1:
        raise ParseError(f"bad relation size in {text!r}")
    n = int(n_text)
    if not rest.endswith("}"):
        raise ParseError(f"relation literal needs braces: {text!r}")
    inner = rest[:-1].strip()
    pairs = []
    if inner:
        for chunk in inner.replace("(", " ").split(")"):
            chunk = chunk.strip().strip(",").strip()
            if not chunk:
                continue
            try:
                i, j = (int(v) for v in chunk.split(","))
            except ValueError as exc:
                raise ParseError(f"bad pair {chunk!r} in {text!r}") from exc
            pairs.append((i, j))
    try:
        return rel_from_pairs(n, pairs)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


# -- The action ---------------------------------------------------------------------


@lru_cache(maxsize=65536)
def rho_of(p: FinPartition, f: Chart) -> BinRel:
    """The relation: block i touches block j when infinitely many points of
    block i are mapped into block j.

    Past its threshold, block i is the x with x mod m_i in R_i.  Along a piece
    (a, q) -> (b, q2), a + q*t is in block i for large t iff t = u (mod k),
    k = m_i/g, for a u = (r - a)/g * (q/g)^-1 with r in R_i, r = a (mod g) and
    g = gcd(m_i, q), as in ``epset.affine_image``; b + q2*t is in block j iff
    t = v (mod k') alike, so (i, j) is a pair iff some u = v (mod gcd(k, k')).
    Pairs never count.  A piece costs G * (G + 2R) steps for G block periods
    and R block residues, none up to a period; ``MAX_RHO_STEPS`` bounds a call.
    """
    g, r = len(p.residue_groups), sum(len(b.residues) for b in p.blocks)
    if (steps := len(f.pieces) * g * (g + 2 * r)) > MAX_RHO_STEPS:
        raise ResourceGuardError(f"block relation takes {steps} steps, past {MAX_RHO_STEPS}")
    rows = [0] * p.n
    for (a, q), (b, q2) in f.pieces:
        for (m, src), (m2, dst) in product(p.residue_groups, repeat=2):
            (k, us), (k2, vs) = _index_classes(m, src, a, q), _index_classes(m2, dst, b, q2)
            d = gcd(k, k2)
            into: dict[int, int] = {}
            for v, j in vs:
                into[v % d] = into.get(v % d, 0) | 1 << j
            for u, i in us:
                rows[i] |= into.get(u % d, 0)
    return BinRel(p.n, tuple(rows))


def _index_classes(m: int, members, first: int, step: int):
    """(k, pairs (u, i)): for all large t = u (mod k), first + step*t is in block i."""
    g = gcd(m, step)
    k = m // g
    inv = pow(step // g, -1, k)
    return k, (((r - first) // g * inv % k, i)
               for i, rs in members for r in rs if (r - first) % g == 0)


def block_stabilises(p: FinPartition, f: Chart) -> bool:
    """Does the permutation f map every block onto a block?"""
    return _blocks_onto_blocks(p, f, eq)


def almost_block_stabilises(p: FinPartition, f: Chart) -> bool:
    """Does the permutation f map every block onto a block up to finitely
    many points?"""
    return _blocks_onto_blocks(
        p, f, lambda img, c: img.difference(c).union(c.difference(img)).card().finite
    )


def _blocks_onto_blocks(p: FinPartition, f: Chart, close) -> bool:
    """Is f a permutation whose image of each block is ``close`` to a block,
    the first such one, with no block hit twice?"""
    if not is_permutation(f):
        return False
    targets = []
    for b in p.blocks:
        img = image_of_set(f, b)
        hit = next((j for j, c in enumerate(p.blocks) if close(img, c)), None)
        if hit is None:
            return False
        targets.append(hit)
    return sorted(targets) == list(range(p.n))


def block_shuffle(p: FinPartition, pi) -> Chart:
    """The permutation sending block i onto block pi[i] monotonically."""
    if sorted(pi) != list(range(p.n)):
        raise ParameterError(f"{pi} is not a permutation of 0..{p.n - 1}")
    return _disjoint_union(*(bijection_between(p.blocks[i], p.blocks[pi[i]]) for i in range(p.n)))


# -- Padding -----------------------------------------------------------------------


def padding_perm(p: FinPartition, f: Chart, g: Chart) -> Chart:
    """A block-preserving permutation a with rel(f*a*g) = rel(f)rel(g).

    Within each middle block m, a moiety of what f delivers from block j is
    rerouted into what g will carry on to block k, for every (j, k) that the
    composite relation requires; the remainder of the block is shuffled onto
    itself.  The identity rel(f*a*g) = rel(f)rel(g) is asserted before
    returning.
    """
    rf, rg = rho_of(p, f), rho_of(p, g)
    pieces = []
    for m in range(p.n):
        block = p.blocks[m]
        js = [j for j in range(p.n) if rf.rows[j] >> m & 1]
        ks = [k for k in range(p.n) if rg.rows[m] >> k & 1]
        used_src: list[EPSet] = []
        used_dst: list[EPSet] = []
        if js and ks:
            incoming = {
                j: image_of_set(f, p.blocks[j]).intersect(block).split(len(ks) + 1)
                for j in js
            }
            outgoing = {
                k: preimage_of_set(g, p.blocks[k]).intersect(block).split(len(js) + 1)
                for k in ks
            }
            for ji, j in enumerate(js):
                for ki, k in enumerate(ks):
                    src = incoming[j][ki]
                    dst = outgoing[k][ji]
                    pieces.append(bijection_between(src, dst))
                    used_src.append(src)
                    used_dst.append(dst)
        rest_src = block.difference(union_all(used_src))
        rest_dst = block.difference(union_all(used_dst))
        pieces.append(bijection_between(rest_src, rest_dst))
    a = _disjoint_union(*pieces)
    want = rel_compose(rf, rg)
    got = rho_of(p, compose(compose(f, a), g))
    if got != want:
        raise InternalError("internal error: padding permutation missed its target")
    return a


# -- Spreading defect --------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """Labelled letters, a tuple of (label, Chart), and their product: ``+``
    composes the products, ``replay`` recomputes one from the letters alone."""

    letters: tuple
    chart: Chart

    def __add__(self, other: Word) -> Word:
        return Word(self.letters + other.letters, compose(self.chart, other.chart))

    def replay(self) -> Chart:
        return reduce(compose, (c for _, c in self.letters))


def _letter(label: str, c: Chart) -> Word:
    return Word(((label, c),), c)


def defect_spreader(p: FinPartition, f: Chart) -> Word:
    """From a total chart with missing points, build a word in f and
    permutations of the blocks whose value misses at least defect(f)
    points inside every block."""
    if not is_total(f):
        raise ParameterError("defect spreading needs a total chart")
    delta = stats(f).defect
    if delta == fin(0):
        raise ParameterError("the chart is surjective; there is nothing to spread")

    # g = f^n misses n*delta points when delta is finite, so some block s
    # misses delta of them; g = f will do when delta is infinite.
    g = reduce(add, [_letter("gen", f)] * (1 if delta.infinite else p.n))
    s = _donor_block(p, g.chart, delta)
    src_pool = p.blocks[s].difference(im_set(g.chart))
    src_pts = src_pool.split(2)[0] if delta.infinite else src_pool.take_first(delta.value)

    w = g
    for i in range(p.n):
        if _missing_card(p, w.chart, i) >= delta:
            continue
        j = next(k for k, row in enumerate(rho_of(p, w.chart).rows) if row >> i & 1)
        dst_pool = preimage_of_set(w.chart, p.blocks[i]).intersect(p.blocks[j])
        dst_pts = dst_pool.split(2)[0] if delta.infinite else dst_pool.take_first(delta.value)
        q = bijection_between(src_pts, dst_pts)
        if s == j:
            mover = extend_to_bijection(q, p.blocks[s], p.blocks[s])
            others = [identity_on(p.blocks[m]) for m in range(p.n) if m != s]
        else:
            back = bijection_between(p.blocks[j], p.blocks[s])
            mover = _disjoint_union(extend_to_bijection(q, p.blocks[s], p.blocks[j]), back)
            others = [identity_on(p.blocks[m]) for m in range(p.n) if m not in (s, j)]
        # The parts map blocks onto blocks, so they are disjoint by construction.
        a = _disjoint_union(mover, *others)
        # im(g*a*w) = (im g)*a*w, so g*a*w misses what w misses and, in
        # block i, the images of the delta points a moves into its preimage.
        w = g + _letter("stab", a) + w

    for i in range(p.n):
        if _missing_card(p, w.chart, i) < delta:
            raise InternalError("internal error: spreading left a block short")
    return w


def _missing_card(p: FinPartition, w: Chart, i: int) -> Card:
    return p.blocks[i].difference(im_set(w)).card()


def _donor_block(p: FinPartition, w: Chart, delta: Card) -> int:
    for s in range(p.n):
        if _missing_card(p, w, s) >= delta:
            return s
    raise InternalError("internal error: no block holds enough missing points")


# -- Word search in the relation monoid ----------------------------------------------


def full_relation_word(n: int, rho: BinRel, sigma: BinRel):
    """A word over {rho, sigma} and the permutation relations whose product
    is the full relation, found by breadth-first search; None if the
    generated subsemigroup misses the full relation.

    The search runs on plain row tuples.  Each generator becomes a table of
    its 2**n row images (entry ``mask`` is the union of the generator's rows
    at the bits of mask), built once per search for (n! + 2) * 2**n
    entries.  Right-multiplying a relation by the generator is then
    ``tuple(map(table.__getitem__, rows))``, one C call per product, and
    the search builds no ``BinRel``.  Generators are tried in the
    order rho, sigma, then the permutations in lexicographic order, and each
    frontier keeps its discovery order, which fixes the word returned.
    """
    if n > 5:
        raise ResourceGuardError("relation word search supports n <= 5")
    if rho.n != n or sigma.n != n:
        raise ParameterError("relation sizes differ")
    gens = [("g", rho.rows), ("h", sigma.rows)]
    gens += [(("perm", pi), perm_rel(pi).rows) for pi in permutations(range(n))]
    tables = [(label, _row_images(rows).__getitem__) for label, rows in gens]
    target = rel_full(n).rows
    seen: dict[tuple, tuple] = {}
    for label, rows in gens:
        seen.setdefault(rows, (label,))
    frontier = dict(seen)
    while frontier and target not in seen:
        fresh: dict[tuple, tuple] = {}
        for rows, word in frontier.items():
            for label, image in tables:
                nxt = tuple(map(image, rows))
                if nxt not in seen and nxt not in fresh:
                    fresh[nxt] = word + (label,)
        seen.update(fresh)
        frontier = fresh
    return seen.get(target)


def _row_images(rows: tuple) -> list[int]:
    """Entry ``mask`` is the union of ``rows[j]`` over the bits j of mask:
    the row that a relation row ``mask`` becomes when multiplied on the
    right by the relation with these rows."""
    table = [0] * (1 << len(rows))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | rows[low.bit_length() - 1]
    return table


def nxn_closure_check(n: int, rho: BinRel, sigma: BinRel) -> bool:
    """Does the semigroup generated by the permutation relations together
    with rho (full domain, not a permutation) and sigma (full image, not a
    permutation) contain the full relation?"""
    if not (rel_dom_full(rho) and not rel_is_perm(rho)):
        raise ParameterError("rho must have full domain and not be a permutation")
    if not (rel_im_full(sigma) and not rel_is_perm(sigma)):
        raise ParameterError("sigma must have full image and not be a permutation")
    return full_relation_word(n, rho, sigma) is not None


def all_relations(n: int) -> list[BinRel]:
    if n > 3:
        raise ResourceGuardError("relation enumeration supports n <= 3")
    out = []
    for code in range(1 << (n * n)):
        rows = tuple((code >> (n * i)) & ((1 << n) - 1) for i in range(n))
        out.append(BinRel(n, rows))
    return out


def canonical_rel(r: BinRel) -> BinRel:
    """Least representative of r under relabelling rows and columns by
    permutations (two-sided symmetric group action).  For each column
    relabelling pi the least row order is the sorted one, so only the n!
    relabellings pi are tried."""
    cols = [[j for j in range(r.n) if row >> j & 1] for row in r.rows]
    return BinRel(
        r.n,
        min(
            tuple(sorted(sum(1 << pi[j] for j in js) for js in cols))
            for pi in permutations(range(r.n))
        ),
    )


# -- Evading the block action ---------------------------------------------------------


def block_evader(p: FinPartition, f: Chart, g: Chart, h: Chart) -> Word:
    """A word in f, g, h and permutations of the blocks whose value is a
    total chart with image inside block 0.

    Requirements: f is total with infinitely many points missing from its
    image; rel(g) has full domain but is not a permutation; rel(h) has full
    image but is not a permutation.  The word is assembled in three moves:
    spread f's missing points across all blocks, realise a relation word
    whose product is the full relation by inserting padding permutations,
    then align the spread image with the full-relation chart.
    """
    if not is_total(f):
        raise ParameterError("f must be total")
    if stats(f).defect != ALEPH0:
        raise ParameterError(
            "f must miss infinitely many points: finite defect can never be "
            "funnelled into one block, since composing charts only adds defects"
        )
    rg, rh = rho_of(p, g), rho_of(p, h)
    if rel_is_perm(rg) or not rel_dom_full(rg):
        raise ParameterError(
            "g must act on blocks with full domain and not as a permutation"
        )
    if rel_is_perm(rh) or not rel_im_full(rh):
        raise ParameterError(
            "h must act on blocks with full image and not as a permutation"
        )

    spread = defect_spreader(p, f)

    tokens = full_relation_word(p.n, rg, rh)
    if tokens is None:
        raise ParameterError(
            "the block relations of g and h do not generate the full relation"
        )
    t = _realize_word(p, tokens, g, h)
    if rho_of(p, t.chart) != rel_full(p.n):
        raise InternalError("internal error: realised word misses the full relation")

    word = spread + _letter("stab", _image_aligner(p, spread.chart, t.chart)) + t
    if not is_total(word.chart):
        raise InternalError("internal error: evader output is not total")
    if not im_set(word.chart).is_subset(p.blocks[0]):
        raise InternalError("internal error: evader image escapes block 0")
    return word


def _token_letter(p: FinPartition, token, g: Chart, h: Chart) -> Word:
    if token == "g":
        return _letter("g", g)
    if token == "h":
        return _letter("h", h)
    return _letter("stab", block_shuffle(p, token[1]))


def _realize_word(p: FinPartition, tokens, g: Chart, h: Chart) -> Word:
    """The tokens joined by padding permutations, whose own check makes the
    word's relation the product of the tokens' relations."""
    word = _token_letter(p, tokens[0], g, h)
    for token in tokens[1:]:
        nxt = _token_letter(p, token, g, h)
        word = word + _letter("stab", padding_perm(p, word.chart, nxt.chart)) + nxt
    return word


def _image_aligner(p: FinPartition, w: Chart, t: Chart) -> Chart:
    """A block-preserving permutation carrying the image of w into the part
    of each block that t sends into block 0."""
    funnel = preimage_of_set(t, p.blocks[0])
    pieces = []
    for m in range(p.n):
        block = p.blocks[m]
        have = im_set(w).intersect(block)
        pool = funnel.intersect(block)
        if pool.card() != ALEPH0:
            raise InternalError(
                "internal error: a block has no room to reach block 0"
            )
        if have.card() == ALEPH0:
            target = pool.split(2)[0]
        else:
            target = pool.take_first(len(have.low))
        pieces.append(
            extend_to_bijection(bijection_between(have, target), block, block)
        )
    return _disjoint_union(*pieces)
