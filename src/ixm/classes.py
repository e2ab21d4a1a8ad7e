"""The candidate maximal subsemigroup classes and their membership tests.

Four families of subsets of the chart monoid are provided, each in a
plain, an inverse (mirror) and a meet (plain-and-mirror) variant:

* ``S``  — cut out by collapse/defect thresholds alone.
* ``P``  — setwise stabiliser of a fixed finite set, relaxed by
           thresholds, together with everything of finite rank.
* ``V``  — stabiliser of an ultrafilter oracle, relaxed the same way.
* ``A``  — charts whose induced block relation on a finite partition is
           either a permutation or not everywhere defined.

Collapse counts the points where a chart is undefined, defect the points
it misses.  ``in_class`` picks a variant from the (plain, inverse) pair of
``class_sides``.  The module also produces separating witnesses: given two
class descriptions, a concrete chart in the first but not the second.
Inversion swaps the plain and inverse variants and fixes the meet, so a
recipe covers one side of each mirror pair: when none fits a pair, the
witness is the inverse of the dual pair's witness.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .cardinal import ALEPH0, ALEPH1, Card, fin, parse_card, render_card
from .chart import (
    Chart,
    ChartStats,
    Piece,
    bijection_between,
    chart_union,
    identity_on,
    image_of_set,
    invert,
    is_partial_identity,
    make_chart,
    stats,
    transposition,
)
from .epset import EMPTY, EPSet, NATURALS, Prog, from_finite, from_prog, render_ints, residue_class
from .errors import InternalError, ParameterError, ParseError, UnsupportedWitnessError
from .partition_action import (
    FinPartition,
    mod_partition,
    parse_partition,
    rel_dom_full,
    rel_im_full,
    rel_is_perm,
    render_partition,
    rho_of,
)
from .ultrafilter import (
    ResidueTower,
    is_principal,
    parse_uf,
    render_uf,
    stabilises_filter,
    uf_contains,
    uf_min,
)

FAMILIES = ("S", "P", "V", "A")
VARIANTS = ("plain", "inverse", "meet")


class _ClassFields(NamedTuple):
    family: str
    variant: str
    mu: Card | None
    gamma: EPSet | None
    uf: object | None
    partition: FinPartition | None


class ClassId(_ClassFields):
    """A description of one candidate maximal class.

    A NamedTuple of its six fields, like ``epset.Prog``: equality, hash and
    order are the field tuple's, computed in C.  ``__new__`` checks the
    fields; ``_replace`` does not, so it is used only to swap ``variant``
    for another member of VARIANTS, which no check of the family's
    parameters reads.
    """

    __slots__ = ()

    def __new__(
        cls,
        family: str,
        variant: str = "plain",
        mu: Card | None = None,
        gamma: EPSet | None = None,
        uf: object | None = None,
        partition: FinPartition | None = None,
    ) -> "ClassId":
        self = tuple.__new__(cls, (family, variant, mu, gamma, uf, partition))
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.family == "S":
            if self.mu not in (fin(1), ALEPH0):
                raise ParameterError(
                    "threshold classes need mu = fin:1 or aleph0; "
                    f"got {self.mu!r}"
                )
            _forbid(self, "gamma", "uf", "partition")
        elif self.family == "P":
            if self.mu not in (ALEPH0, ALEPH1):
                raise ParameterError(
                    f"set-stabiliser classes need mu = aleph0 or aleph1; got {self.mu!r}"
                )
            if self.gamma is None or not self.gamma.card().finite or self.gamma.is_empty():
                raise ParameterError("gamma must be a finite non-empty set")
            _forbid(self, "uf", "partition")
        elif self.family == "V":
            if self.mu not in (ALEPH0, ALEPH1):
                raise ParameterError(
                    f"filter-stabiliser classes need mu = aleph0 or aleph1; got {self.mu!r}"
                )
            if self.uf is None:
                raise ParameterError("a filter-stabiliser class needs an ultrafilter oracle")
            if is_principal(self.uf):
                raise ParameterError(
                    "principal oracles degenerate: their stabiliser class is the "
                    "set-stabiliser family at the principal point; use that instead"
                )
            _forbid(self, "gamma", "partition")
        else:  # A
            if self.partition is None:
                raise ParameterError("a block-action class needs a partition")
            _forbid(self, "mu", "gamma", "uf")
        return self


def _forbid(c: ClassId, *names):
    for name in names:
        if getattr(c, name) is not None:
            raise ParameterError(f"family {c.family} does not take parameter {name!r}")


def dual_class(c: ClassId) -> ClassId:
    """Swap the plain and inverse variants; the meet is self-dual."""
    if c.variant == "meet":
        return c
    return c._replace(variant="inverse" if c.variant == "plain" else "plain")


def admissibility(c: ClassId) -> tuple[bool, str]:
    """Whether the class parameters are in the range where the class is
    known to be maximal (as opposed to merely closed)."""
    if c.family == "V":
        least = uf_min(c.uf)
        if least >= c.mu:
            return (
                False,
                "the oracle accepts no set smaller than "
                f"{render_card(least)}, so the threshold {render_card(c.mu)} "
                "does not bite and the class degenerates",
            )
    return (True, "")


# -- Membership --------------------------------------------------------------------


def in_F_ideal(f: Chart) -> bool:
    return stats(f).rank.finite


def in_class(c: ClassId, f: Chart) -> bool:
    return pick_side(c.variant, class_sides(c, f))


def pick_side(variant: str, sides: tuple[bool, bool]) -> bool:
    plain, inverse = sides
    if variant == "plain":
        return plain
    if variant == "inverse":
        return inverse
    return plain and inverse


def class_sides(c: ClassId, f: Chart) -> tuple[bool, bool]:
    """Whether f lies in the (plain, inverse) classes of c; c.variant is unread."""
    st = stats(f)
    if c.family == "S":
        return _threshold(st, c.mu, True, True, True)
    if c.family == "A":
        rho = rho_of(c.partition, f)
        return (
            rel_is_perm(rho) or not rel_dom_full(rho),
            rel_is_perm(rho) or not rel_im_full(rho),
        )
    if st.rank.finite:
        return True, True
    if c.family == "P":
        keeps = image_of_set(f, c.gamma) == c.gamma
        return _threshold(
            st, c.mu, c.gamma.is_subset(st.dom), c.gamma.is_subset(st.im), keeps
        )
    return _filter_sides(c, st, f, _piece_stab)


def _threshold(
    st: ChartStats, mu: Card, dom_ok: bool, im_ok: bool, stab: bool
) -> tuple[bool, bool]:
    """The rule shared by S, P and V.  The plain class holds a chart whose
    collapse reaches mu, whose domain fails the anchor test (holding gamma
    for P, being accepted for V), or which stabilises the anchor with defect
    below mu; the inverse class swaps collapse with defect and domain with
    image.  S has no anchor: every bit is true."""
    cf, df = st.collapse, st.defect
    plain = cf >= mu or not dom_ok or (stab and df < mu)
    inverse = df >= mu or not im_ok or (stab and cf < mu)
    return plain, inverse


def _filter_sides(c: ClassId, st: ChartStats, f: Chart, stabilises) -> tuple[bool, bool]:
    dom_in = uf_contains(c.uf, st.dom)
    im_in = uf_contains(c.uf, st.im)
    stab = dom_in and im_in and stabilises(c.uf, f)
    return _threshold(st, c.mu, dom_in, im_in, stab)


def _piece_stab(uf, f: Chart) -> bool:
    return stabilises_filter(uf, f, check_witness=False)[0]


def in_class_v_alt(c: ClassId, f: Chart) -> bool:
    """Membership for the filter family computed through the quantified
    form: instead of trusting the piece-level verdict, the stabiliser bit
    is decided by checking "a set is accepted exactly when its image is"
    on concrete sets - the domain, refinements of the accepted residue
    class, every piece source with its halves, and whatever violation the
    decision procedure proposes.  Used to cross-check ``in_class``."""
    if c.family != "V":
        raise ParameterError("the alternative form only applies to the filter family")
    st = stats(f)
    if st.rank.finite:
        return True
    return pick_side(c.variant, _filter_sides(c, st, f, _quantified_stab))


def _quantified_stab(uf, f: Chart) -> bool:
    """Evaluate the set-level biconditional on a structured family of test
    sets through the image machinery alone."""
    candidates = [NATURALS, stats(f).dom, stats(f).im]
    for j in (1, 2, 3, 4):
        m = uf.base_modulus * j
        candidates.append(residue_class(uf.residue_at(m), m))
    for piece in f.pieces:
        src = from_prog(piece.src)
        candidates.append(src)
        candidates.extend(src.split(2))
    verdict, proposed = stabilises_filter(uf, f, check_witness=False)
    if not verdict and proposed is not None:
        candidates.append(proposed)
    return all(
        uf_contains(uf, s) == uf_contains(uf, image_of_set(f, s))
        for s in candidates
    )


# -- Separating witnesses -------------------------------------------------------------


def separating_witness(c1: ClassId, c2: ClassId) -> Chart:
    """A chart inside the first class but outside the second.

    The result is verified against both membership tests before being
    returned.  Pairs where the first class is contained in the second
    (or that no recipe covers) raise UnsupportedWitnessError.
    """
    w = _find_witness(c1, c2)
    if not in_class(c1, w):
        raise InternalError("internal error: witness misses its home class")
    if in_class(c2, w):
        raise InternalError("internal error: witness landed in the avoided class")
    return w


def _find_witness(c1: ClassId, c2: ClassId) -> Chart:
    try:
        return _direct_witness(c1, c2)
    except UnsupportedWitnessError as first:
        try:
            return invert(_direct_witness(dual_class(c1), dual_class(c2)))
        except UnsupportedWitnessError:
            raise first from None


def _direct_witness(c1: ClassId, c2: ClassId) -> Chart:
    if c2.variant == "meet":
        for sub in ("plain", "inverse"):
            try:
                return _direct_witness(c1, c2._replace(variant=sub))
            except UnsupportedWitnessError:
                continue
        raise UnsupportedWitnessError(
            lambda: f"no recipe separates {render_class(c1)} from either side of {render_class(c2)}"
        )
    return _RECIPES[(c1.family, c2.family)](c1, c2)


def _unsupported(c1: ClassId, c2: ClassId, reason: str = ""):
    suffix = f": {reason}" if reason else ""
    raise UnsupportedWitnessError(
        lambda: f"no recipe separates {render_class(c1)} from {render_class(c2)}{suffix}"
    )


# Stock charts.
DOUBLE = make_chart((), (Piece(Prog(0, 1), Prog(0, 2)),))
HALVE = invert(DOUBLE)
SHIFT = make_chart((), (Piece(Prog(0, 1), Prog(1, 1)),))
# Undefined at one point, missing infinitely many.
_PUNCTURED_DOUBLE = make_chart((), (Piece(Prog(1, 1), Prog(2, 2)),))


def _w_s_s(c1: ClassId, c2: ClassId) -> Chart:
    v1, v2, mu, nu = c1.variant, c2.variant, c1.mu, c2.mu
    if v1 == "inverse" and v2 == "plain":
        return DOUBLE
    if mu == nu and v1 in (v2, "meet"):
        _unsupported(c1, c2, "the first class is contained in the second")
    if v2 == "plain":
        return SHIFT if mu > nu else _PUNCTURED_DOUBLE
    if v1 == "meet" and mu < nu:
        return bijection_between(
            from_prog(Prog(0, 2)), NATURALS.difference(from_finite([0]))
        )
    _unsupported(c1, c2)


def _evens_above(s: EPSet) -> EPSet:
    cap = max(s.low.bit_length() - 1, 0) + s.threshold + 2
    start = cap + cap % 2
    return from_prog(Prog(start, 2))


def _w_p_s(c1: ClassId, c2: ClassId) -> Chart:
    gamma, nu = c1.gamma, c2.mu
    if c2.variant != "plain":
        _unsupported(c1, c2)
    if nu == fin(1):
        return _one_defect(gamma)
    # Miss gamma in the domain, land on a sparse image.
    return bijection_between(gamma.complement(), _evens_above(gamma))


def _one_defect(anchor: EPSet) -> Chart:
    """Fix the anchor pointwise and miss one point of its complement."""
    comp = anchor.complement()
    dropped = comp.difference(from_finite([comp.min()]))
    return chart_union(identity_on(anchor), bijection_between(comp, dropped))


def _w_s_p(c1: ClassId, c2: ClassId) -> Chart:
    low = c2.gamma.low
    return transposition((low & -low).bit_length() - 1, low.bit_length())


def _w_p_p(c1: ClassId, c2: ClassId) -> Chart:
    gamma, delta = c1.gamma, c2.gamma
    mu, nu = c1.mu, c2.mu
    if c2.variant != "plain":
        if c2.variant == "inverse" and gamma == delta and mu == nu and c1.variant == "plain":
            return bijection_between(NATURALS.difference(gamma), NATURALS)
        _unsupported(c1, c2)
    if not gamma.is_subset(delta):
        dom = NATURALS.difference(gamma.difference(delta))
        im = NATURALS.difference(gamma.union(delta))
        return bijection_between(dom, im)
    if not delta.is_subset(gamma):
        moved = delta.difference(gamma).min()
        top = max(gamma.low.bit_length(), delta.low.bit_length())
        return transposition(moved, top)
    if mu == nu:
        _unsupported(c1, c2, "the first class is contained in the second")
    if mu < nu:  # mu = aleph0, nu = aleph1
        evens = _evens_above(gamma)
        odds = from_prog(Prog(evens.min() + 1, 2))
        return bijection_between(gamma.union(evens), odds)
    comp = NATURALS.difference(gamma)
    return chart_union(identity_on(gamma), bijection_between(comp, _evens_above(gamma)))


def _accepted_class(uf) -> EPSet:
    modulus = uf.base_modulus
    return residue_class(uf.residue_at(modulus), modulus)


def _stab_with_defect(uf) -> Chart:
    """A total stabilising chart with infinitely many missed points: the
    accepted class is fixed pointwise and the rejected part is squeezed
    into a thinner copy of itself."""
    acc = _accepted_class(uf)
    rej = acc.complement()
    progs, low = rej.decompose()
    squeezed = [Prog(p.first, 2 * p.step) for p in progs]
    pieces = [
        bijection_between(from_prog(p), from_prog(q))
        for p, q in zip(progs, squeezed)
    ]
    pairs = identity_on(from_finite(low)) if low else None
    parts = [identity_on(acc)] + pieces + ([pairs] if pairs else [])
    return chart_union(*parts)


def _w_v_s(c1: ClassId, c2: ClassId) -> Chart:
    mu, nu = c1.mu, c2.mu
    if c2.variant != "plain":
        _unsupported(c1, c2)
    if nu == fin(1):
        return _one_defect(_accepted_class(c1.uf))
    if mu == ALEPH1:
        return _stab_with_defect(c1.uf)
    if c1.variant == "inverse":
        acc = _accepted_class(c1.uf)
        return bijection_between(
            NATURALS.difference(from_finite([0])), acc.complement()
        )
    _unsupported(
        c1,
        c2,
        "with the low threshold the filter class is contained in the "
        "threshold class; see the admissibility note",
    )


def _scrambler(uf) -> Chart:
    """Domain and image accepted, collapse and defect both infinite, and
    the accepted half of the domain is pushed onto a rejected class."""
    acc = _accepted_class(uf)
    t0, t1 = acc.split(2)
    if not uf_contains(uf, t0):
        t0, t1 = t1, t0
    u0, u1 = t0.split(2)
    landing = u0 if uf_contains(uf, u0) else u1
    return chart_union(bijection_between(t0, t1), bijection_between(t1, landing))


def _stab_with_collapse(uf) -> Chart:
    """A stabilising chart with infinite collapse and zero defect: the
    accepted class is fixed pointwise and the rejected part is covered by
    half of itself."""
    acc = _accepted_class(uf)
    rej = acc.complement()
    return chart_union(identity_on(acc), bijection_between(rej.split(2)[0], rej))


def _half_swap(uf, m: int) -> Chart:
    """The permutation fixing everything outside the oracle's class at m and
    swapping that class's two halves at 2m.  The accepted half lands on the
    rejected one, so the oracle is not stabilised; every point outside the
    class at m is fixed."""
    r = uf.residue_at(2 * m)
    kept = residue_class(r, 2 * m)
    other = residue_class((r + m) % (2 * m), 2 * m)
    rest = kept.union(other).complement()
    return chart_union(
        identity_on(rest),
        bijection_between(kept, other),
        bijection_between(other, kept),
    )


def _joint_modulus(u1: ResidueTower, u2: ResidueTower) -> int:
    """A modulus at which two unequal towers disagree: each prime's largest
    chosen power, since a least-exponent choice is fixed by its residue."""
    exps = {2: 1}
    for uf in (u1, u2):
        for p, a, _ in uf.choices:
            exps[p] = max(exps.get(p, 0), a)
    m = 1
    for p, a in exps.items():
        m *= p**a
    return m


def _w_v_v(c1: ClassId, c2: ClassId) -> Chart:
    if c1.uf != c2.uf:
        return _half_swap(c2.uf, _joint_modulus(c1.uf, c2.uf))
    mu, nu = c1.mu, c2.mu
    if mu == nu:
        if c1.variant == "plain" and c2.variant == "inverse":
            return bijection_between(_accepted_class(c1.uf).complement(), NATURALS)
        _unsupported(c1, c2, "the first class is contained in the second")
    if mu == ALEPH1:
        return _stab_with_defect(c1.uf) if c2.variant == "plain" else _stab_with_collapse(c1.uf)
    return _scrambler(c1.uf)


def _spread_blocks(p: FinPartition) -> Chart:
    return chart_union(
        *(
            bijection_between(b, b.split(2)[0])
            for b in p.blocks
        )
    )


def _w_a_s(c1: ClassId, c2: ClassId) -> Chart:
    if c2.variant != "plain":
        _unsupported(c1, c2)
    return _spread_blocks(c1.partition)


def _block_mixer(p: FinPartition, fixed: EPSet) -> Chart:
    """A permutation mixing blocks 0 and 1 while fixing the given finite
    set pointwise; its block relation has full domain and image but is not
    a permutation."""
    b0 = p.blocks[0].difference(fixed)
    b1 = p.blocks[1].difference(fixed)
    c0, c1_ = b0.split(2)
    d0, d1 = b1.split(2)
    parts = [
        identity_on(c0),
        bijection_between(c1_, d0),
        bijection_between(d0, c1_),
        identity_on(d1),
        identity_on(fixed),
    ]
    for b in p.blocks[2:]:
        parts.append(identity_on(b.difference(fixed)))
    return chart_union(*parts)


def _w_s_a(c1: ClassId, c2: ClassId) -> Chart:
    return _block_mixer(c2.partition, c1.gamma if c1.family == "P" else EMPTY)


def _w_a_p(c1: ClassId, c2: ClassId) -> Chart:
    gamma = c2.gamma
    p = c1.partition
    anchor = (gamma.low & -gamma.low).bit_length() - 1
    block = next(b for b in p.blocks if anchor in b)
    ceiling = gamma.low.bit_length()
    other = next(x for x in block if x > ceiling)
    return transposition(anchor, other)


def _cycle(u: EPSet, v: EPSet, w: EPSet) -> Chart:
    """The permutation sending u -> v -> w -> u and fixing every other point."""
    rest = identity_on(u.union(v).union(w).complement())
    return chart_union(rest, bijection_between(u, v), bijection_between(v, w), bijection_between(w, u))


def _w_a_a(c1: ClassId, c2: ClassId) -> Chart:
    """A 3-cycle of sets whose relation is a permutation on the first partition
    p but not on the avoided one q.  A block b of p meets (shares infinitely
    many points with) the block of q holding a point of b past every threshold.
    If it meets another, the halves of its first meet (by least point) go with
    the first half of its second; else two blocks lying in one block of q go
    with one lying in another; else p and q agree up to finitely many points."""
    p, q = c1.partition, c2.partition
    t = max(b.threshold for b in p.blocks + q.blocks)
    homes = []  # the block of q holding each block of p
    for b in p.blocks:
        x = t + ((b.residues & -b.residues).bit_length() - 1 - t) % b.period
        homes.append(next(j for j, c in enumerate(q.blocks) if x in c))
        if b.difference(q.blocks[homes[-1]]).card() == ALEPH0:
            meets = [m for c in q.blocks if (m := b.intersect(c)).card() == ALEPH0]
            first, second = sorted(meets, key=EPSet.min)[:2]
            u, w = first.split(2)
            return _cycle(u, second.split(2)[0], w)
    for i, h in enumerate(homes):
        if homes.count(h) > 1:
            k = next(k for k, g in enumerate(homes) if g != h)
            return _cycle(p.blocks[i], p.blocks[k], p.blocks[homes.index(h, i + 1)])
    if c1.variant == "plain" and c2.variant == "inverse":
        return bijection_between(p.blocks[0], NATURALS)
    _unsupported(c1, c2, "the first class is contained in the second")


def _w_p_v(c1: ClassId, c2: ClassId) -> Chart:
    """A permutation fixing the anchor set pointwise while trading the
    oracle's class with its complement away from the anchor."""
    gamma = c1.gamma if c1.family == "P" else EMPTY
    acc = _accepted_class(c2.uf)
    a = acc.difference(gamma)
    b = acc.complement().difference(gamma)
    return chart_union(
        identity_on(gamma), bijection_between(a, b), bijection_between(b, a)
    )


def _w_v_a(c1: ClassId, c2: ClassId) -> Chart:
    """Fix an accepted set pointwise and funnel half of every block into
    the block carrying the oracle; the block relation then has full domain
    but a single column."""
    if c2.variant != "plain":
        _unsupported(c1, c2)
    p = c2.partition
    uf = c1.uf
    home = next(b for b in p.blocks if uf_contains(uf, b))
    fine = _accepted_class(uf)
    while home.difference(fine).card() != ALEPH0:
        t0, t1 = fine.split(2)
        fine = t0 if uf_contains(uf, t0) else t1
    fine = fine.intersect(home)
    pool = home.difference(fine).split(p.n)
    parts = [identity_on(fine)]
    for i, b in enumerate(p.blocks):
        rest = b.difference(fine)
        parts.append(bijection_between(rest.split(2)[0], pool[i]))
    return chart_union(*parts)


def _w_a_v(c1: ClassId, c2: ClassId) -> Chart:
    """Swap the halves of the oracle's class at the blocks' joint period times its base modulus:
    an accepted set goes onto a rejected one, and all but finitely many points keep their block."""
    return _half_swap(c2.uf, lcm(*(b.period for b in c1.partition.blocks)) * c2.uf.base_modulus)


_RECIPES = {
    ("S", "S"): _w_s_s,
    ("P", "S"): _w_p_s,
    ("S", "P"): _w_s_p,
    ("P", "P"): _w_p_p,
    ("V", "S"): _w_v_s,
    ("S", "V"): _w_p_v,
    ("V", "V"): _w_v_v,
    ("A", "S"): _w_a_s,
    ("S", "A"): _w_s_a,
    ("P", "A"): _w_s_a,
    ("A", "P"): _w_a_p,
    ("A", "A"): _w_a_a,
    ("A", "V"): _w_a_v,
    ("V", "P"): _w_s_p,
    ("P", "V"): _w_p_v,
    ("V", "A"): _w_v_a,
}


# -- Excluding classes -----------------------------------------------------------------


def excluding_maximal(h: Chart) -> ClassId:
    """A class from the catalogue that does not contain the given chart.

    Defined for charts of infinite rank that are not partial identities:
    every chart that moves a point is thrown out of the set-stabiliser
    class anchored at that point with the top threshold.
    """
    if stats(h).rank.finite:
        raise ParameterError(
            "finite-rank charts lie in every class; nothing excludes them"
        )
    if is_partial_identity(h):
        raise ParameterError(
            "partial identities lie in every class; nothing excludes them"
        )
    x = _moved_point(h)
    c = ClassId("P", "plain", mu=ALEPH1, gamma=from_finite([x]))
    if in_class(c, h):
        raise InternalError("internal error: the excluding class failed to exclude")
    return c


def _moved_point(h: Chart) -> int:
    candidates = [x for x, y in h.pairs if x != y]
    for piece in h.pieces:
        if piece.src.first != piece.dst.first:
            candidates.append(piece.src.first)
        elif piece.src.step != piece.dst.step:
            candidates.append(piece.src.value(1))
    return min(candidates)


# -- Text format -------------------------------------------------------------------------


_FAMILY_TOKENS = {
    (family, variant): family + suffix
    for family in FAMILIES
    for variant, suffix in zip(VARIANTS, ("", "inv", "meet"))
}
_TOKEN_FAMILY = {v: k for k, v in _FAMILY_TOKENS.items()}
_FAMILY_KEYS = {"S": {"mu"}, "P": {"gamma", "mu"}, "V": {"uf", "mu"}, "A": {"blocks"}}


def render_class(c: ClassId) -> str:
    token = _FAMILY_TOKENS[(c.family, c.variant)]
    if c.family == "S":
        return f"{token}[mu={render_card(c.mu)}]"
    if c.family == "P":
        return f"{token}[gamma={{{render_ints(c.gamma.low)}}};mu={render_card(c.mu)}]"
    if c.family == "V":
        uf_text = render_uf(c.uf)[3:]  # strip the 'uf ' prefix
        if uf_text == "tower []":
            uf_text = "tower"
        return f"{token}[uf={uf_text};mu={render_card(c.mu)}]"
    if c.partition == mod_partition(c.partition.n):
        return f"{token}[blocks={c.partition.n}]"
    return f"{token}[{render_partition(c.partition)}]"


def parse_class(text: str) -> ClassId:
    t = text.strip()
    if "[" not in t or not t.endswith("]"):
        raise ParseError(f"class literal needs brackets: {text!r}")
    token, _, body = t.partition("[")
    body = body[:-1].strip()
    token = token.strip()
    if token not in _TOKEN_FAMILY:
        raise ParseError(
            f"unknown class token {token!r}; expected one of {sorted(_TOKEN_FAMILY)}"
        )
    family, variant = _TOKEN_FAMILY[token]
    fields = {}
    if family == "A" and body.startswith("part "):
        # A partition literal carries its own "=" signs.
        fields["part-literal"] = body
    elif body:
        for chunk in body.split(";"):
            k, eq, v = (t.strip() for t in chunk.partition("="))
            if not eq:
                raise ParseError(f"bad parameter chunk {chunk!r} in {text!r}")
            if k not in _FAMILY_KEYS[family]:
                raise ParseError(f"family {family} does not take parameter {k!r}: {text!r}")
            if k in fields:
                raise ParseError(f"parameter {k!r} given twice: {text!r}")
            fields[k] = v
    try:
        if family == "S":
            return ClassId(family, variant, mu=parse_card(_need(fields, "mu", text)))
        if family == "P":
            gam = _need(fields, "gamma", text)
            if not (gam.startswith("{") and gam.endswith("}")):
                raise ParseError(f"gamma needs braces: {text!r}")
            inner = gam[1:-1].strip()
            try:
                pts = [int(s) for s in inner.split(",")] if inner else []
            except ValueError as exc:
                raise ParseError(f"bad integer in gamma: {text!r}") from exc
            if not pts:
                raise ParseError(f"gamma must be non-empty: {text!r}")
            return ClassId(
                family,
                variant,
                mu=parse_card(_need(fields, "mu", text)),
                gamma=from_finite(pts),
            )
        if family == "V":
            uf_text = _need(fields, "uf", text)
            uf = parse_uf("uf " + ("tower []" if uf_text == "tower" else uf_text))
            return ClassId(
                family, variant, mu=parse_card(_need(fields, "mu", text)), uf=uf
            )
        if "blocks" in fields:
            if not fields["blocks"].isdigit():
                raise ParseError(f"blocks must be an integer: {text!r}")
            return ClassId(family, variant, partition=mod_partition(int(fields["blocks"])))
        if "part-literal" in fields:
            return ClassId(
                family, variant, partition=parse_partition(fields["part-literal"])
            )
        raise ParseError(f"block class needs blocks=<n> or a partition literal: {text!r}")
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def _need(fields: dict, key: str, text: str) -> str:
    if key not in fields:
        raise ParseError(f"missing parameter {key!r} in {text!r}")
    return fields[key]
