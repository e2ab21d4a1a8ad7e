"""Partial bijections of the naturals: construction, algebra, factorisation."""

import copy
import pickle
import random
import time
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ixm.chart as chart_module
from ixm.cardinal import ALEPH0, ZERO, fin
from ixm.chart import (
    EMPTY_CHART,
    IDENTITY_CHART,
    Chart,
    Piece,
    apply_chart,
    bijection_between,
    chart_union,
    compose,
    dom_set,
    extend_to_bijection,
    identity_on,
    im_set,
    image_of_set,
    invert,
    is_partial_identity,
    is_permutation,
    is_total,
    make_chart,
    parse_chart,
    preimage_of_set,
    render_chart,
    restrict,
    sandwich_factorize,
    stats,
    transposition,
)
import ixm.epset as epset_module
from ixm.epset import (
    EMPTY,
    MAX_BITS,
    NATURALS,
    Bits,
    Prog,
    from_finite,
    from_prog,
    make_epset,
    progs_intersect,
    residue_class,
    union_all,
)
from ixm.errors import (
    InjectivityError,
    InternalError,
    ParameterError,
    ParseError,
    ResourceGuardError,
)
from ixm.classes import DOUBLE, SHIFT, ClassId
from ixm.finite_model import LabelledSet, SearchResult
from ixm.laws import ConditionReport, SuiteReport
from ixm.partition_action import (
    Word,
    block_evader,
    block_shuffle,
    defect_spreader,
    mod_partition,
    padding_perm,
    rho_of,
)
from ixm.sampling import (
    MAX_FIRST,
    make_rng,
    random_chart,
    random_epset,
    random_mixed,
    random_partition,
    random_permutation,
    random_total,
)
from ixm.ultrafilter import Principal, make_tower

EVENS = residue_class(0, 2)
ODDS = residue_class(1, 2)
MULT3 = residue_class(0, 3)
MULT6 = residue_class(0, 6)

DOUBLE = make_chart((), (Piece(Prog(0, 1), Prog(0, 2)),))  # x -> 2x
SHIFT = make_chart((), (Piece(Prog(0, 1), Prog(1, 1)),))  # x -> x + 1
ID_EVENS = identity_on(EVENS)


def members(s, hi=120):
    return {x for x in range(hi) if x in s}


def graph(c, hi=120):
    """Pointwise graph of a chart on a window, via apply only."""
    return {(x, apply_chart(c, x)) for x in range(hi) if apply_chart(c, x) is not None}


class TestMakeChart:
    def test_equality_is_extensional(self):
        # The identity split into two interleaved half-classes must come out
        # structurally equal to the one-piece identity.
        split = make_chart(
            (), (Piece(Prog(0, 2), Prog(0, 2)), Piece(Prog(1, 2), Prog(1, 2)))
        )
        assert split == IDENTITY_CHART

    def test_pairs_absorbed_into_piece(self):
        alias = make_chart(
            [(0, 0), (2, 2)], (Piece(Prog(4, 2), Prog(4, 2)),)
        )
        assert alias == ID_EVENS

    def test_duplicate_source_rejected(self):
        with pytest.raises(InjectivityError):
            make_chart([(0, 1), (0, 2)], ())

    def test_duplicate_target_rejected(self):
        with pytest.raises(InjectivityError):
            make_chart([(0, 1), (2, 1)], ())

    def test_pair_colliding_with_piece_rejected(self):
        with pytest.raises(InjectivityError):
            make_chart([(0, 5)], (Piece(Prog(0, 1), Prog(0, 2)),))

    def test_overlapping_piece_images_rejected(self):
        with pytest.raises(InjectivityError):
            make_chart(
                (), (Piece(Prog(0, 2), Prog(0, 1)), Piece(Prog(1, 2), Prog(0, 2)))
            )

    def test_negative_point_rejected(self):
        with pytest.raises(ParameterError):
            make_chart([(-1, 0)], ())

    def test_clash_in_canonical_form_is_an_internal_error(self, monkeypatch):
        # The input is injective; only a broken canonicalisation can make
        # the canonical pieces overlap, and that is a fault of ixm.
        real = chart_module._canonicalize

        def overlapping(pair_map, pieces):
            pairs, canonical = real(pair_map, pieces)
            return pairs, canonical + canonical[:1]

        monkeypatch.setattr(chart_module, "_canonicalize", overlapping)
        with pytest.raises(InternalError, match="not injective: piece sources overlap at 0") as caught:
            make_chart((), (Piece(Prog(0, 2), Prog(0, 2)),))
        assert not isinstance(caught.value, InjectivityError)
        # An injectivity fault of the input is still the caller's.
        with pytest.raises(InjectivityError):
            make_chart([(0, 1), (2, 1)], ())


class TestApply:
    def test_piece_maps_by_index(self):
        p = Piece(Prog(3, 4), Prog(1, 5))
        assert p.apply(3) == 1 and p.apply(7) == 6 and p.apply(11) == 11

    def test_apply_chart(self):
        c = make_chart([(0, 9)], (Piece(Prog(1, 2), Prog(2, 2)),))
        assert apply_chart(c, 0) == 9
        assert apply_chart(c, 1) == 2 and apply_chart(c, 3) == 4
        assert apply_chart(c, 2) is None

    def test_empty_and_identity(self):
        assert apply_chart(EMPTY_CHART, 5) is None
        assert apply_chart(IDENTITY_CHART, 5) == 5

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_a_pointwise_oracle(self, seed):
        c = random_mixed(make_rng(seed))
        pairs = dict(c.pairs)
        for x in range(300):
            want = pairs.get(x)
            if want is None:
                want = next((pc.apply(x) for pc in c.pieces if x in pc.src), None)
            assert apply_chart(c, x) == want, (render_chart(c), x)


class TestCompose:
    def test_doubling_twice_quadruples(self):
        quad = make_chart((), (Piece(Prog(0, 1), Prog(0, 4)),))
        assert compose(DOUBLE, DOUBLE) == quad

    def test_disjoint_ranges_compose_to_empty(self):
        assert compose(DOUBLE, identity_on(ODDS)) == EMPTY_CHART

    def test_pair_chaining(self):
        f = make_chart([(0, 3)], ())
        g = make_chart([(3, 1)], ())
        assert compose(f, g) == make_chart([(0, 1)], ())
        # Left-to-right: the other order never connects.
        assert compose(g, f) == EMPTY_CHART

    def test_identity_is_neutral(self):
        rng = make_rng(2)
        for _ in range(50):
            c = random_chart(rng)
            assert compose(c, IDENTITY_CHART) == c
            assert compose(IDENTITY_CHART, c) == c

    def test_associative_pointwise(self):
        rng = make_rng(9)
        for _ in range(100):
            a, b, c = (random_chart(rng) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_matches_pointwise_oracle(self):
        rng = make_rng(17)
        for _ in range(150):
            a, b = random_chart(rng), random_chart(rng)
            ab = compose(a, b)
            for x in range(60):
                y = apply_chart(a, x)
                want = None if y is None else apply_chart(b, y)
                assert apply_chart(ab, x) == want


class TestInvert:
    def test_doubling(self):
        assert invert(DOUBLE) == make_chart((), (Piece(Prog(0, 2), Prog(0, 1)),))

    def test_partial_identity_is_self_inverse(self):
        assert invert(ID_EVENS) == ID_EVENS

    def test_pairs(self):
        c = make_chart([(0, 1), (1, 2)], ())
        assert invert(c) == make_chart([(1, 0), (2, 1)], ())

    def test_involutive_and_cancelling(self):
        rng = make_rng(4)
        for _ in range(100):
            c = random_chart(rng)
            assert invert(invert(c)) == c
            assert compose(c, invert(c)) == identity_on(dom_set(c))
            assert compose(invert(c), c) == identity_on(im_set(c))


class TestStats:
    def test_doubling(self):
        s = stats(DOUBLE)
        assert s.rank == ALEPH0
        assert s.collapse == fin(0)
        assert s.defect == ALEPH0
        assert s.im == EVENS

    def test_identity(self):
        s = stats(IDENTITY_CHART)
        assert s.rank == ALEPH0 and s.collapse == ZERO and s.defect == ZERO

    def test_shift(self):
        s = stats(SHIFT)
        assert s.collapse == fin(0) and s.defect == fin(1)

    def test_single_statistics(self):
        assert stats(DOUBLE).rank == ALEPH0
        assert stats(SHIFT).collapse == ZERO
        assert stats(SHIFT).defect == fin(1)

    def test_image_cache_hit_equals_miss(self):
        assert image_of_set.cache_info().maxsize == 65536
        rng = make_rng(43)
        # Each chart meets several sets, so a key that drops either half shows.
        charts = [random_chart(rng) for _ in range(20)]
        cases = [(f, s) for f in charts for s in (random_epset(rng) for _ in range(3))]
        image_of_set.cache_clear()
        misses = [image_of_set(f, s) for f, s in cases]
        hits = [image_of_set(f, s) for f, s in cases]
        assert image_of_set.cache_info().hits >= len(cases)
        assert hits == misses == [_image_oracle(f, s) for f, s in cases]

    def test_affine_piece_with_a_fixed_point_is_a_permutation(self):
        # 2t -> 4t fixes exactly 0 and sends 2 to 4.
        half = make_chart((), (Piece(Prog(0, 2), Prog(0, 4)),))
        f = chart_union(
            half,
            bijection_between(ODDS, NATURALS.difference(residue_class(0, 4))),
        )
        assert is_permutation(f)
        assert apply_chart(f, 0) == 0 and apply_chart(f, 2) == 4

    def test_predicates(self):
        assert is_permutation(IDENTITY_CHART)
        assert not is_permutation(DOUBLE)
        assert is_total(DOUBLE) and is_total(SHIFT)
        assert not is_total(ID_EVENS)
        assert is_partial_identity(ID_EVENS) and is_partial_identity(EMPTY_CHART)
        assert not is_partial_identity(SHIFT)


class TestSetImages:
    def test_doubling_sends_mult3_to_mult6(self):
        assert image_of_set(DOUBLE, MULT3) == MULT6

    def test_disjoint_carrier_gives_empty(self):
        assert image_of_set(ID_EVENS, ODDS) == EMPTY

    def test_empty_set_stays_empty(self):
        rng = make_rng(13)
        for _ in range(20):
            assert image_of_set(random_chart(rng), EMPTY) == EMPTY

    def test_image_matches_inverse_oracle(self):
        rng = make_rng(29)
        for _ in range(150):
            f, s = random_chart(rng), random_epset(rng)
            img = image_of_set(f, s)
            finv = invert(f)
            for y in range(80):
                x = apply_chart(finv, y)
                assert (y in img) == (x is not None and x in s)

    def test_preimage_matches_forward_oracle(self):
        rng = make_rng(37)
        for _ in range(150):
            f, s = random_chart(rng), random_epset(rng)
            pre = preimage_of_set(f, s)
            for x in range(80):
                y = apply_chart(f, x)
                assert (x in pre) == (y is not None and y in s)

    def test_restrict(self):
        r = restrict(DOUBLE, MULT3)
        assert dom_set(r) == MULT3 and im_set(r) == MULT6
        rng = make_rng(41)
        for _ in range(100):
            f, s = random_chart(rng), random_epset(rng)
            r = restrict(f, s)
            assert dom_set(r) == dom_set(f).intersect(s)
            for x in range(60):
                want = apply_chart(f, x) if x in s else None
                assert apply_chart(r, x) == want


def _image_oracle(f, s):
    """Reference image: intersect s with each piece source, decompose the
    hit into progressions and a finite part, and map each one separately."""
    parts = [from_finite(y for x, y in f.pairs if x in s)]
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


def _preimage_oracle(f, s):
    return _image_oracle(invert(f), s)


def _bits(rng, width, kind):
    """An empty, sparse (a few points) or dense (about half) subset of range(width)."""
    if kind == "empty" or width == 0:
        return []
    if kind == "sparse":
        return rng.sample(range(width), min(width, 6))
    return Bits(rng.getrandbits(width))


@st.composite
def wide_sets(draw):
    """Thresholds up to 10**5, periods up to 840, and low parts and
    residue sets that are empty, sparse or dense."""
    n = draw(st.one_of(st.integers(0, 100), st.integers(100, 10**5)))
    m = draw(st.one_of(st.integers(1, 12), st.integers(12, 840)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = st.sampled_from(["empty", "sparse", "dense"])
    return make_epset(n, m, _bits(rng, m, draw(kinds)), _bits(rng, n, draw(kinds)))


@st.composite
def wide_charts(draw):
    """Up to three pieces with steps up to 840 and starts up to 10**5, on
    distinct classes mod a source and a destination modulus, plus pairs
    off the pieces."""
    ms, md = draw(st.integers(1, 280)), draw(st.integers(1, 280))
    count = draw(st.integers(1, min(3, ms, md)))
    srcs = draw(st.lists(st.integers(0, ms - 1), min_size=count, max_size=count, unique=True))
    dsts = draw(st.lists(st.integers(0, md - 1), min_size=count, max_size=count, unique=True))
    pieces = []
    for r, e in zip(srcs, dsts):
        src = Prog(r + ms * draw(st.integers(0, 10**5 // ms)), ms * draw(st.integers(1, 3)))
        dst = Prog(e + md * draw(st.integers(0, 10**5 // md)), md * draw(st.integers(1, 3)))
        pieces.append(Piece(src, dst))
    pairs = {}
    for x, y in draw(st.lists(st.tuples(st.integers(0, 10**5), st.integers(0, 10**5)), max_size=4)):
        if all(x not in pc.src and y not in pc.dst for pc in pieces) and y not in pairs.values():
            pairs.setdefault(x, y)
    try:
        return make_chart(pairs.items(), pieces)
    except ResourceGuardError:  # a rule group with too many classes
        assume(False)


def _answers_as_oracle(fn, oracle, f, s):
    """fn answers whatever the oracle answers, and with the same set.  Where
    the oracle is refused, fn may still answer (its guard sees the image's
    own threshold), so there is nothing to compare."""
    try:
        want = oracle(f, s)
    except ResourceGuardError:
        return
    assert fn(f, s) == want


class TestSetImagesAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(wide_charts(), wide_sets())
    def test_image_equals_oracle(self, f, s):
        _answers_as_oracle(image_of_set, _image_oracle, f, s)

    @settings(max_examples=100, deadline=None)
    @given(wide_charts(), wide_sets())
    def test_preimage_equals_oracle(self, f, s):
        _answers_as_oracle(preimage_of_set, _preimage_oracle, f, s)

    def test_random_charts_equal_oracle(self):
        rng = make_rng(71)
        for _ in range(300):
            f, s = random_chart(rng), random_epset(rng)
            assert image_of_set(f, s) == _image_oracle(f, s)
            assert preimage_of_set(f, s) == _preimage_oracle(f, s)


def _image_periods(f, s):
    """The image periods of f's pieces on s, one per piece whose image is
    not empty, as the image kernel groups them (a finite part counts as 1)."""
    parts = [epset_module.affine_image(s, pc.src, pc.dst) for pc in f.pieces]
    return [part.period if part.tail is not None else 1 for part in parts if part is not None]


def _merge_sets(rng):
    return [NATURALS, EVENS, ODDS, MULT3, EMPTY, from_finite(range(0, 90, 7))] + [
        random_epset(rng) for _ in range(40)
    ]


# Three pieces onto 0 mod 4, 2 mod 8 and 1 mod 6 from 1,000 on, and pairs
# from below the pieces' sources, landing below and past the pieces' images.
_MIXED_PERIODS = make_chart(
    ((0, 3), (4, 7), (5, 99_999), (8, 6_003), (11, 40_001)),
    (
        Piece(Prog(30, 3), Prog(1_000, 4)),
        Piece(Prog(31, 3), Prog(1_002, 8)),
        Piece(Prog(32, 3), Prog(1_003, 6)),
    ),
)
# One piece onto 0 mod 5 from 500, and pairs on both sides of its image.
_ONE_PIECE_AND_PAIRS = make_chart(
    ((0, 2), (1, 50_001), (3, 7_003)), (Piece(Prog(10, 2), Prog(500, 5)),)
)


class TestSetImageMerges:
    """The image kernel merges the parts that share an image period before
    one canonical form; each chart here drives one merge path, checked
    against the piece-by-piece oracle for images and preimages."""

    CHARTS = {
        "bijection_with_many_residues": bijection_between(
            make_epset(0, 12, (0, 1, 3, 5, 7, 8), ()),
            make_epset(5, 12, (2, 4, 6, 9, 10, 11), (1, 3)),
        ),
        "block_shuffle": block_shuffle(mod_partition(4), (2, 3, 1, 0)),
        "mixed_periods_and_pairs": _MIXED_PERIODS,
        "one_piece_and_pairs": _ONE_PIECE_AND_PAIRS,
        "pairs_only": make_chart(((0, 7), (3, 1), (9, 12_000)), ()),
        "empty": EMPTY_CHART,
    }

    @pytest.mark.parametrize("name", CHARTS)
    def test_images_and_preimages_equal_the_oracle(self, name):
        f = self.CHARTS[name]
        for s in _merge_sets(make_rng(83)):
            assert image_of_set(f, s) == _image_oracle(f, s), (name, s)
            assert preimage_of_set(f, s) == _preimage_oracle(f, s), (name, s)

    def test_the_charts_reach_each_merge_path(self):
        one = _image_periods(self.CHARTS["bijection_with_many_residues"], NATURALS)
        assert len(one) >= 3 and len(set(one)) == 1
        shuffle = _image_periods(self.CHARTS["block_shuffle"], NATURALS)
        assert len(shuffle) >= 3 and len(set(shuffle)) == 1
        assert sorted(_image_periods(_MIXED_PERIODS, NATURALS)) == [4, 6, 8]
        assert _image_periods(_ONE_PIECE_AND_PAIRS, NATURALS) == [5]
        # Pairs land below and past every piece's image threshold.
        for f in (_MIXED_PERIODS, _ONE_PIECE_AND_PAIRS):
            tops = [image_of_set(f, from_prog(pc.src)).threshold for pc in f.pieces]
            ys = [y for _, y in f.pairs]
            assert min(ys) < min(tops) and max(ys) > max(tops)

    def test_an_empty_image(self):
        f = make_chart(((1, 4), (3, 9)), (Piece(Prog(10, 2), Prog(7, 3)),))
        assert image_of_set(f, ODDS.difference(from_finite([1, 3]))) == EMPTY
        assert image_of_set(f, from_finite([0, 2, 5])) == EMPTY
        assert preimage_of_set(f, from_finite([0, 5, 8])) == EMPTY
        assert image_of_set(EMPTY_CHART, NATURALS) == EMPTY


class TestSetImageCost:
    SHIFT5 = make_chart((), (Piece(Prog(0, 1), Prog(5, 1)),))  # x -> x + 5
    THIRD = make_chart((), (Piece(Prog(0, 3), Prog(0, 1)),))  # 3x -> x

    def test_sparse_set_near_the_mask_limit_is_cheap(self):
        # An O(threshold) loop takes far longer than a second here.
        n = MAX_BITS - 10
        s = make_epset(n, 7, {3}, {0, 12_345, n - 300, n - 1})
        start = time.perf_counter()
        img = image_of_set(self.SHIFT5, s)
        pre = preimage_of_set(self.SHIFT5, img)
        third = image_of_set(self.THIRD, s)
        assert time.perf_counter() - start < 1.0
        assert img == make_epset(n + 5, 7, {1}, {5, 12_350, n - 295, n + 4})
        assert pre == s
        # 3i >= n lies in s iff 3i = 3 (mod 7), that is i = 1 (mod 7).
        assert third == make_epset(-(-n // 3), 7, {1}, {0, 4_115, (n - 300) // 3})

    def test_wide_image_period_is_refused_before_allocating(self, monkeypatch):
        # x -> 8x sends 1 mod 2**22 onto 8 mod 2**25, wider than MAX_BITS.
        widths = []
        real_mask = epset_module._mask
        monkeypatch.setattr(
            epset_module, "_mask", lambda xs, width: widths.append(width) or real_mask(xs, width)
        )
        times8 = make_chart((), (Piece(Prog(0, 1), Prog(0, 8)),))
        with pytest.raises(ResourceGuardError):
            image_of_set(times8, residue_class(1, 2**22))
        assert max(widths) <= MAX_BITS
        with pytest.raises(ResourceGuardError):
            _image_oracle(times8, residue_class(1, 2**22))

    def test_answers_where_the_oracle_answers(self):
        # The image's threshold and period are those of the set's points
        # on the source, not of the whole set: here the whole set needs a
        # threshold of MAX_BITS and a period of 2**22 (source index k * ds
        # would reach 2**25), but its points on the evens do not.
        evens_x2 = make_chart((), (Piece(Prog(0, 2), Prog(0, 4)),))  # 2i -> 4i
        all_but_one = NATURALS.difference(from_finite([MAX_BITS - 1]))
        assert all_but_one.threshold == MAX_BITS
        assert image_of_set(evens_x2, all_but_one) == residue_class(0, 4)
        assert _image_oracle(evens_x2, all_but_one) == residue_class(0, 4)
        evens_x8 = make_chart((), (Piece(Prog(0, 2), Prog(0, 16)),))  # 2i -> 16i
        s = residue_class(0, 2**20).union(residue_class(1, 2**22))
        assert s.period == 2**22
        assert image_of_set(evens_x8, s) == residue_class(0, 2**23)
        assert _image_oracle(evens_x8, s) == residue_class(0, 2**23)
        assert preimage_of_set(evens_x8, residue_class(0, 2**23)) == residue_class(0, 2**20)


class TestTransposition:
    def test_matches_the_union_of_swap_and_identity(self):
        for u in range(40):
            for v in range(40):
                if u != v:
                    rest = identity_on(NATURALS.difference(from_finite([u, v])))
                    want = chart_union(rest, make_chart(((u, v), (v, u)), ()))
                    assert transposition(u, v) == want

    def test_guard_message_is_the_mask_limit(self):
        msg = "threshold 16777217 or period 1 exceeds the 16777216-bit mask limit"
        with pytest.raises(ResourceGuardError, match=msg):
            transposition(0, 2**24)
        with pytest.raises(ParameterError):
            transposition(3, 3)


def _random_permutation_by_transpositions(rng):
    """The sampler as it was: one `compose` with a `transposition` per swap.
    `random_permutation` draws the same numbers and composes once."""
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(1, 4)
        pi = list(range(n))
        rng.shuffle(pi)
        base = make_chart((), (Piece(Prog(i, n), Prog(pi[i], n)) for i in range(n)))
    elif kind == 1:
        n = rng.randint(2, 5)
        i, j = rng.sample(range(n), 2)
        pi = list(range(n))
        pi[i], pi[j] = j, i
        base = make_chart((), (Piece(Prog(k, n), Prog(pi[k], n)) for k in range(n)))
    elif kind == 2:
        base = make_chart(
            (),
            (
                Piece(Prog(0, 4), Prog(1, 2)),
                Piece(Prog(2, 4), Prog(2, 4)),
                Piece(Prog(1, 2), Prog(0, 4)),
            ),
        )
    else:
        base = IDENTITY_CHART
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(MAX_FIRST), 2)
        base = compose(base, transposition(u, v))
    return base


class TestRandomPermutation:
    def test_equals_the_transposition_chain(self):
        for seed in range(300):
            got, want = random.Random(seed), random.Random(seed)
            assert random_permutation(got) == _random_permutation_by_transpositions(want), seed
            assert got.getstate() == want.getstate(), seed


class TestPieceOrder:
    def test_pieces_sort_as_their_ints(self):
        rng = make_rng(47)
        pieces = [
            Piece(Prog(rng.randrange(6), rng.randrange(1, 4)), Prog(rng.randrange(6), rng.randrange(1, 4)))
            for _ in range(300)
        ]
        ints = sorted((pc.src.first, pc.src.step, pc.dst.first, pc.dst.step) for pc in pieces)
        assert [(s.first, s.step, d.first, d.step) for s, d in sorted(pieces)] == ints


def _field_tuples() -> list:
    """One value of each NamedTuple value type outside `epset`."""
    c = make_chart([(0, 5)], [Piece(Prog(1, 2), Prog(2, 2))])
    p = mod_partition(3)
    p.residue_groups  # cached in the instance __dict__, which copies carry
    return [
        fin(3),
        c,
        stats(c),
        ClassId("V", "meet", mu=ALEPH0, uf=make_tower([(3, 2, 4)])),
        Principal(4),
        make_tower([(2, 1, 1), (3, 2, 4)]),
        p,
        rho_of(p, c),
        Word((("gen", c),), c),
        LabelledSet("ideal", frozenset({(0, None)})),
        SearchResult(2, True, [frozenset({(0, 1)})], []),
        SuiteReport("chart-laws", 0, 1, 1, (), 0, 3),
        ConditionReport(2, (("closed", True, ""),)),
    ]


class TestValueTypes:
    """Value types are NamedTuples of their fields, as `Prog` and `EPSet` are."""

    def test_hash_is_the_field_tuples(self):
        for v in _field_tuples():
            if type(v) is not SearchResult:  # it holds lists
                assert v == tuple(v) and hash(v) == hash(tuple(v)), type(v)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_by_their_fields(self, clone):
        for v in _field_tuples():
            t = clone(v)
            assert t == v and type(t) is type(v), type(v)
            if type(v) is Chart:
                assert t.pair_map == dict(t.pairs) == {0: 5}


class TestChartUnion:
    def test_disjoint_union(self):
        c = chart_union(ID_EVENS, make_chart([(1, 3), (3, 1)], ()))
        assert apply_chart(c, 0) == 0 and apply_chart(c, 1) == 3

    def test_conflicting_sources_rejected(self):
        with pytest.raises(InjectivityError):
            chart_union(DOUBLE, SHIFT)

    def test_conflicting_targets_rejected(self):
        with pytest.raises(InjectivityError):
            chart_union(make_chart([(0, 5)], ()), make_chart([(1, 5)], ()))


class TestBijectionBetween:
    def test_evens_to_odds(self):
        b = bijection_between(EVENS, ODDS)
        assert b == make_chart((), (Piece(Prog(0, 2), Prog(1, 2)),))
        s = stats(b)
        assert s.dom == EVENS and s.im == ODDS

    def test_finite_blocks(self):
        b = bijection_between(from_finite([1, 2, 3]), from_finite([7, 8, 9]))
        assert b == make_chart([(1, 7), (2, 8), (3, 9)], ())

    def test_everything_to_evens(self):
        b = bijection_between(NATURALS, EVENS)
        s = stats(b)
        assert s.dom == NATURALS and s.im == EVENS

    def test_cardinality_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            bijection_between(from_finite([0]), EVENS)
        with pytest.raises(ParameterError):
            bijection_between(from_finite([0, 1]), from_finite([5]))

    def test_random_carriers(self):
        rng = make_rng(53)
        built = 0
        while built < 120:
            a, b = random_epset(rng), random_epset(rng)
            if a.card() != b.card():
                continue
            built += 1
            c = bijection_between(a, b)
            assert dom_set(c) == a and im_set(c) == b


class TestExtend:
    def test_empty_to_full_permutation(self):
        q = extend_to_bijection(EMPTY_CHART, NATURALS, NATURALS)
        s = stats(q)
        assert s.dom == NATURALS and s.im == NATURALS

    def test_partial_shift_inside_evens(self):
        p = make_chart((), (Piece(Prog(0, 4), Prog(2, 4)),))  # 4t -> 4t+2
        q = extend_to_bijection(p, EVENS, EVENS)
        assert restrict(q, residue_class(0, 4)) == p
        s = stats(q)
        assert s.dom == EVENS and s.im == EVENS

    def test_forced_singleton(self):
        p = make_chart([(0, 0)], ())
        assert extend_to_bijection(p, from_finite([0]), from_finite([0])) == p

    def test_extension_preserves_given_values(self):
        rng = make_rng(61)
        for _ in range(60):
            y = random_epset(rng)
            if y.card() != ALEPH0:
                continue
            half = y.split(2)[0]
            p = bijection_between(half, y.difference(half))
            q = extend_to_bijection(p, y, y)
            assert restrict(q, half) == p
            assert dom_set(q) == y and im_set(q) == y

    def test_domain_outside_carrier_rejected(self):
        with pytest.raises(ParameterError):
            extend_to_bijection(make_chart([(1, 1)], ()), EVENS, EVENS)

    def test_leftover_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            extend_to_bijection(
                EMPTY_CHART, from_finite([0, 1]), from_finite([4])
            )


class TestSandwich:
    # f maps everything into a moiety of the carrier, g maps another moiety
    # of the carrier back onto everything; the middle factor is a
    # permutation fixing everything off the carrier.
    F = make_chart((), (Piece(Prog(0, 1), Prog(0, 4)),))  # x -> 4x
    G = invert(make_chart((), (Piece(Prog(0, 1), Prog(2, 4)),)))  # 4x+2 -> x

    def _check(self, h):
        p = sandwich_factorize(h, self.F, self.G, EVENS)
        assert is_permutation(p)
        assert restrict(p, ODDS) == identity_on(ODDS)
        assert compose(compose(self.F, p), self.G) == h
        return p

    def test_identity_target(self):
        self._check(IDENTITY_CHART)

    def test_doubling_target(self):
        self._check(DOUBLE)

    def test_empty_target(self):
        self._check(EMPTY_CHART)

    def test_random_targets(self):
        rng = make_rng(71)
        for _ in range(40):
            self._check(random_mixed(rng))

    def test_bad_carrier_rejected(self):
        with pytest.raises(ParameterError):
            sandwich_factorize(IDENTITY_CHART, self.F, self.G, NATURALS)

    def test_partial_f_rejected(self):
        with pytest.raises(ParameterError):
            sandwich_factorize(
                IDENTITY_CHART, restrict(self.F, EVENS), self.G, EVENS
            )

    def test_non_surjective_g_rejected(self):
        with pytest.raises(ParameterError):
            sandwich_factorize(
                IDENTITY_CHART, self.F, restrict(self.G, residue_class(2, 8)), EVENS
            )

    def test_failed_postcondition_is_an_internal_error(self, monkeypatch):
        # A broken union drops the middle factor's moves on the carrier, so
        # valid inputs yield a wrong factor: a fault of ixm, not of its input.
        monkeypatch.setattr(chart_module, "chart_union", lambda *charts: charts[-1])
        with pytest.raises(InternalError) as caught:
            sandwich_factorize(IDENTITY_CHART, self.F, self.G, EVENS)
        assert not isinstance(caught.value, ParameterError)


class TestText:
    def test_render_known_chart(self):
        c = make_chart([(0, 9)], (Piece(Prog(1, 2), Prog(2, 2)),))
        assert render_chart(c) == (
            "chart { pair 0 -> 9; piece (1 mod 2 from 0) -> (0 mod 2 from 1); }"
        )

    def test_render_constants(self):
        assert render_chart(EMPTY_CHART) == "chart { }"
        assert parse_chart(render_chart(IDENTITY_CHART)) == IDENTITY_CHART

    def test_round_trip(self):
        rng = make_rng(83)
        for _ in range(200):
            c = random_chart(rng)
            assert parse_chart(render_chart(c)) == c

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "chart {",
            "chart { pair 0 -> ; }",
            "chart { pair -1 -> 0; }",
            "chart { piece (2 mod 2 from 0) -> (0 mod 2 from 0); }",
            "chart { pear 0 -> 1; }",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises((ParseError, ParameterError)):
            parse_chart(bad)

    def test_parse_rejects_non_injective(self):
        # A literal that is not a partial bijection is a parse error, like
        # any other malformed literal; the builder's error is its cause.
        for text in ("chart { pair 0 -> 1; pair 0 -> 2; }", "chart { pair 0 -> 1; pair 2 -> 1 }"):
            with pytest.raises(ParseError) as caught:
                parse_chart(text)
            assert isinstance(caught.value.__cause__, InjectivityError)


# -- Canonical form against a pointwise model --------------------------------
#
# A model sends x to k*x + g on each class c mod m from the class's own start
# on, where g < k is the class's rule group, and sends a few points below the
# starts to k*x + b for some b < k; distinct (x, g) give distinct values, so
# the map is injective.  Group 0 owns some classes mod a proper divisor p of
# m, each with its own base and every class mod m with its own offset, so
# its pieces merge into coarser canonical pieces and demote their early
# points; group 1 starts far away.  Each model has two presentations: one
# piece per class mod m, and one that joins classes into the coarsest
# progression they fill, splits it into interleaved sub-progressions (whose
# steps need not be multiples of the canonical period) and gives each one's
# points before its start as pairs.


def _rule_piece(first: int, step: int, k: int, g: int) -> Piece:
    return Piece(Prog(first, step), Prog(k * first + g, k * step))


@st.composite
def chart_models(draw):
    m = draw(st.sampled_from([8, 12]))
    k = draw(st.integers(2, 4))
    p = draw(st.sampled_from([p for p in range(2, m) if m % p == 0]))
    own = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p - 1))
    near = {r: draw(st.integers(0, 60)) for r in sorted(own)}
    far = draw(st.integers(100, 400))
    c1 = draw(st.sampled_from([c for c in range(m) if c % p not in own]))
    base = [0, far] + [draw(st.sampled_from([0, far])) for _ in range(2, k)]
    group, start = {}, {}
    for c in range(m):
        if c % p in own:
            g, b = 0, near[c % p]
        else:
            g = 1 if c == c1 else draw(st.sampled_from([None, *range(1, k)]))
            if g is None:
                continue
            b = base[g]
        group[c] = g
        start[c] = c + m * (b + draw(st.integers(0, 25)))
    pairs = {}
    for x in draw(st.lists(st.integers(0, m * (far + 26)), max_size=6)):
        if x % m not in start or x < start[x % m]:
            pairs[x] = k * x + draw(st.integers(0, k - 1))

    plain = [_rule_piece(start[c], m, k, g) for c, g in group.items()]

    other_pairs = dict(pairs)
    other = []
    used = set()
    for c in sorted(group):
        if c in used:
            continue
        g = group[c]
        s = min(
            s
            for s in range(1, m + 1)
            if m % s == 0 and all(group.get(c2) == g and c2 not in used for c2 in range(c % s, m, s))
        )
        used.update(range(c % s, m, s))
        parts = draw(st.integers(1, 3))
        step = s * parts
        for r in range(c % s, step, s):
            # Start past every class the sub-progression meets, plus a head.
            touched = range(r % gcd(step, m), m, gcd(step, m))
            first = max(start[c2] for c2 in touched)
            first += (r - first) % step + step * draw(st.integers(0, 2))
            other_pairs.update((x, k * x + g) for x in range(r, first, step) if x >= start[x % m])
            other.append(_rule_piece(first, step, k, g))

    def model(x: int) -> int | None:
        c = x % m
        if c in start and x >= start[c]:
            return k * x + group[c]
        return pairs.get(x)

    steps = [pc.src.step for pc in plain + other]
    window = max(start.values()) + 2 * lcm(*steps)
    return (list(pairs.items()), plain), (list(other_pairs.items()), other), model, window


def _swapped(pairs, pieces):
    return [(y, x) for x, y in pairs], [Piece(pc.dst, pc.src) for pc in pieces]


def _ident(first: int, step: int) -> Piece:
    return Piece(Prog(first, step), Prog(first, step))


class TestCanonicalize:
    @settings(max_examples=80, deadline=None)
    @given(chart_models())
    def test_canonical_form_is_faithful_and_presentation_free(self, drawn):
        (pairs, plain), (other_pairs, other), model, window = drawn
        c = make_chart(pairs, plain)
        assert make_chart(other_pairs, other) == c
        assert all(apply_chart(c, x) == model(x) for x in range(window))
        assert make_chart(c.pairs, c.pieces) == c

    @settings(max_examples=80, deadline=None)
    @given(chart_models())
    def test_inverse_presentations_have_fractional_slopes(self, drawn):
        # Swapping each presentation gives pieces of slope 1/k, so the rule
        # groups are keyed by fractional slopes and intercepts.
        (pairs, plain), (other_pairs, other), model, window = drawn
        inv = make_chart(*_swapped(pairs, plain))
        assert make_chart(*_swapped(other_pairs, other)) == inv
        assert invert(make_chart(pairs, plain)) == inv
        # Every point below k*window has its preimage, if any, below window.
        k = plain[0].dst.step // plain[0].src.step
        back = {model(x): x for x in range(window) if model(x) is not None}
        assert all(apply_chart(inv, y) == back.get(y) for y in range(k * window))

    def test_slope_two_thirds_merges_and_demotes(self):
        # x -> 2x/3 on the multiples of 3, given as two classes mod 6 with 3
        # left out: the canonical piece has step 3 and starts at 6, and 0
        # becomes a pair.
        c = make_chart(
            (), (Piece(Prog(0, 6), Prog(0, 4)), Piece(Prog(9, 6), Prog(6, 4)))
        )
        assert c.pieces == (Piece(Prog(6, 3), Prog(4, 2)),)
        assert c.pairs == frozenset({(0, 0)})
        assert invert(c).pieces == (Piece(Prog(4, 2), Prog(6, 3)),)

    def test_merged_group_demotes_its_early_points(self):
        c = make_chart(
            (), (Piece(Prog(0, 2), Prog(0, 2)), Piece(Prog(103, 2), Prog(103, 2)))
        )
        assert c.pieces == (Piece(Prog(102, 1), Prog(102, 1)),)
        assert c.pairs == frozenset((x, x) for x in range(0, 102, 2))
        assert c.pair_map == dict(c.pairs)

    def test_piece_across_canonical_classes_demotes_in_each(self):
        # The sources are the evens and 1 mod 4, so the canonical period is 4.
        # Each step-6 piece meets both even classes mod 4, and 2 mod 4 starts
        # at 26 (10 and 22 are missing) while 0 mod 4 starts at 0.
        c = make_chart(
            [(x, x) for x in (0, 1, 2, 4, 5, 16, 28)],
            [_ident(6, 6), _ident(8, 6), _ident(34, 6), _ident(9, 4)],
        )
        assert c.pieces == (_ident(0, 4), _ident(1, 4), _ident(26, 4))
        assert c.pairs == frozenset((x, x) for x in (2, 6, 14, 18))

    def test_least_period_of_the_classes(self):
        # {0, 2, 4} mod 6 is invariant under a shift by 2, so it is one piece.
        c = make_chart((), [_ident(4, 6), _ident(0, 6), _ident(2, 6)])
        assert c.pieces == (_ident(0, 2),)
        assert c.pairs == frozenset()
        assert make_chart((), [_ident(r, 30) for r in range(30)]) == IDENTITY_CHART
        # {0, 1, 3} mod 6 has no shorter period, so it stays three pieces.
        c = make_chart((), [_ident(0, 6), _ident(1, 6), _ident(3, 6)])
        assert c.pieces == (_ident(0, 6), _ident(1, 6), _ident(3, 6))

    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(Prog, st.integers(0, 80), st.integers(1, 30)),
        st.builds(Prog, st.integers(0, 80), st.integers(1, 30)),
    )
    def test_pieces_clash_exactly_where_their_progressions_meet(self, p, q):
        # The destinations are even and odd, so only the sources can clash;
        # swapped, only the destinations can.
        pieces = [
            Piece(p, Prog(2 * p.first, 2 * p.step)),
            Piece(q, Prog(2 * q.first + 1, 2 * q.step)),
        ]
        meet = progs_intersect(p, q)
        for where, given_pieces in (
            ("sources", pieces),
            ("destinations", _swapped((), pieces)[1]),
        ):
            if meet is None:
                make_chart((), given_pieces)
            else:
                with pytest.raises(InjectivityError, match=f"^piece {where} overlap at {meet.first}$"):
                    make_chart((), given_pieces)


# -- The canonicaliser against the general one it replaced --------------------


def _canonicalize_oracle(pair_map, pieces):
    """The canonicaliser before its single-piece path: every group takes the
    general path, and a new piece's covered pairs are found by testing every
    pair and demoted point against every new piece."""
    if not pieces:
        return dict(pair_map), []
    ints = [src + dst for src, dst in pieces]

    def lookup(x):
        y = pair_map.get(x)
        if y is not None:
            return y
        for sf, ss, df, ds in ints:
            if x >= sf and (x - sf) % ss == 0:
                return df + (x - sf) // ss * ds
        return None

    groups = {}
    for pc in ints:
        sf, ss, df, ds = pc
        g = gcd(ss, ds)
        a, b = ds // g, ss // g
        groups.setdefault((a, b, df * b - a * sf), []).append(pc)

    new_pieces = []
    early = {}
    demoted = 0
    for (a, b, _), grp in groups.items():
        span = lcm(*(ss for _, ss, _, _ in grp))
        classes = sum(span // ss for _, ss, _, _ in grp)
        if classes > chart_module.MAX_GROUP_CLASSES:
            raise ResourceGuardError("too many classes")
        owner_first = {c % span: sf for sf, ss, _, _ in grp for c in range(sf, sf + span, ss)}
        period = span if len(grp) == 1 else chart_module._least_period(list(owner_first), span)
        step_out, rest = divmod(a * period, b)
        assert not rest
        tops = {}
        for c, first in owner_first.items():
            tops[c % period] = max(tops.get(c % period, 0), first)
        starts = {}
        for r, top in tops.items():
            v = r + -(-(top - r) // period) * period
            y = lookup(v)
            while v - period >= 0 and y - step_out >= 0 and lookup(v - period) == y - step_out:
                v -= period
                y -= step_out
            starts[r] = v
            new_pieces.append(Piece(Prog(v, period), Prog(y, step_out)))
        for pc in grp:
            sf, ss, _, _ = pc
            stride = lcm(ss, period)
            runs = [range(x0, starts[x0 % period], stride) for x0 in range(sf, sf + stride, ss)]
            demoted += sum(map(len, runs))
            if demoted > chart_module.MAX_DEMOTED:
                raise ResourceGuardError("too many demoted points")
            early[pc] = sorted(x for run in runs for x in run)

    new_pieces.sort()

    def covered(x):
        return any(x >= sf and (x - sf) % ss == 0 for (sf, ss), _ in new_pieces)

    out_pairs = {x: y for x, y in pair_map.items() if not covered(x)}
    for pc in ints:
        sf, ss, df, ds = pc
        for x in early[pc]:
            if not covered(x):
                out_pairs[x] = df + (x - sf) // ss * ds
    return out_pairs, new_pieces


@st.composite
def presentations(draw):
    """A valid (pairs, pieces) input, canonical or not.

    Every point x goes to k*x + h for a tag h < k, so distinct points never
    share an image.  Each used class c mod m carries one tag, its rule
    group, and is cut into 1 to 3 interleaved pieces whose starts may lag
    behind the class's start; pieces of one tag thus extend each other
    downward and merge, and with k > 1 some groups hold one piece.  Pairs
    off the pieces take their class's tag (extending a piece downward) or
    any tag.  Half the draws are inverted, for slopes 1/k, and the pieces
    come in any order.
    """
    k = draw(st.integers(1, 3))
    m = draw(st.sampled_from([1, 2, 3, 4, 6]))
    tags, pieces = {}, []
    for c in range(m):
        tag = draw(st.sampled_from([None, *range(k)]))
        if tag is None:
            continue
        tags[c] = tag
        start = c + m * draw(st.integers(0, 6))
        parts = draw(st.integers(1, 3))
        for i in range(parts):
            first = start + i * m + m * parts * draw(st.integers(0, 2))
            pieces.append(_rule_piece(first, m * parts, k, tag))
    # Some points just below each piece's start, then some anywhere.
    below = [pc.src.first - pc.src.step * j for pc in pieces for j in range(1, draw(st.integers(1, 3)))]
    pairs = {}
    for x in below + draw(st.lists(st.integers(0, 16 * m), max_size=10)):
        if x < 0 or x in pairs or any(x in pc.src for pc in pieces):
            continue
        follows = x % m in tags and draw(st.booleans())
        pairs[x] = k * x + (tags[x % m] if follows else draw(st.integers(0, k - 1)))
    pairs = list(pairs.items())
    pieces = draw(st.permutations(pieces))
    return _swapped(pairs, pieces) if draw(st.booleans()) else (pairs, pieces)


def _assert_same_canonical_form(got, pair_map, pieces):
    got_pairs, got_pieces = got
    want_pairs, want_pieces = _canonicalize_oracle(pair_map, pieces)
    assert list(got_pairs.items()) == list(want_pairs.items())  # the same order, too
    assert got_pieces == want_pieces
    assert all(type(pc) is Piece for pc in got_pieces)


class TestCanonicalizeAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(presentations())
    def test_equals_the_general_canonicaliser(self, drawn):
        pairs, pieces = drawn
        pair_map = dict(pairs)
        chart_module._validate(frozenset(pair_map.items()), pieces)
        _assert_same_canonical_form(chart_module._canonicalize(pair_map, pieces), pair_map, pieces)

    @settings(max_examples=80, deadline=None)
    @given(chart_models())
    def test_equals_the_general_canonicaliser_on_models(self, drawn):
        for pairs, pieces in (*drawn[:2], *(_swapped(*p) for p in drawn[:2])):
            pair_map = dict(pairs)
            _assert_same_canonical_form(chart_module._canonicalize(pair_map, pieces), pair_map, pieces)

    def test_equals_the_general_canonicaliser_on_library_inputs(self, monkeypatch):
        real = chart_module._canonicalize
        seen = []

        def checked(pair_map, pieces):
            got = real(pair_map, pieces)
            _assert_same_canonical_form(got, pair_map, pieces)
            seen.append(1)
            return got

        monkeypatch.setattr(chart_module, "_canonicalize", checked)
        rng = make_rng(71)
        for _ in range(150):
            f, g = random_mixed(rng), random_mixed(rng)
            compose(f, g)
            invert(f)
        assert len(seen) >= 300

    def test_postcondition_runs_only_when_the_form_changes(self, monkeypatch):
        real = chart_module._validate
        calls = []

        def counting(pairs, pieces):
            calls.append(1)
            return real(pairs, pieces)

        monkeypatch.setattr(chart_module, "_validate", counting)

        def validations(pairs, pieces):
            calls.clear()
            make_chart(pairs, pieces)
            return len(calls)

        canonical = make_chart(
            [(0, 7), (2, 3)], (Piece(Prog(1, 2), Prog(2, 2)), Piece(Prog(4, 4), Prog(5, 4)))
        )
        assert len(canonical.pieces) == 3 and len(canonical.pairs) == 2
        assert validations(canonical.pairs, canonical.pieces) == 1
        assert validations(canonical.pairs, canonical.pieces[::-1]) == 1
        assert validations((), DOUBLE.pieces) == 1
        assert validations((), ()) == 1
        # Merged pieces with no pair, an absorbed pair, demoted points.
        assert validations((), (_ident(0, 2), _ident(1, 2))) == 2
        assert validations([(0, 0)], (_ident(1, 1),)) == 2
        assert validations((), (_ident(0, 2), _ident(103, 2))) == 2


# -- Builders whose output is injective by construction ---------------------


def _built_by_construction(f, g):
    """Outputs of every builder that skips `make_chart`'s input check, on
    charts f and g and the sets they define."""
    outs = [compose(f, g), compose(g, f), compose(f, invert(g)), compose(invert(f), f), invert(f)]
    sets = [dom_set(f), im_set(g), dom_set(f).complement(), EVENS.difference(im_set(f))]
    sets += [from_finite(x for x, _ in f.pairs), from_finite(y for _, y in g.pairs)]
    outs += [identity_on(s) for s in sets]
    outs += [bijection_between(a, b) for a in sets for b in sets if a.card() == b.card()]
    for p in (f, g, compose(f, g)):
        for src, dst in ((NATURALS, NATURALS), (dom_set(p).union(EVENS), im_set(p).union(ODDS))):
            if src.difference(dom_set(p)).card() == dst.difference(im_set(p)).card():
                outs.append(extend_to_bijection(p, src, dst))
    for s in sets:
        rest = s.complement()
        if s.card() == rest.card():
            outs.append(chart_module._disjoint_union(bijection_between(s, rest), bijection_between(rest, s)))
    return outs


class TestInjectiveByConstruction:
    """`compose`, `invert`, `identity_on`, `bijection_between`,
    `extend_to_bijection` and `_disjoint_union` (which unites the maps between
    blocks of `block_shuffle`, `padding_perm`, `defect_spreader` and
    `_image_aligner`) skip `make_chart`'s injectivity check; here their
    output must pass it and be the chart that `make_chart` builds."""

    @staticmethod
    def check(f, g):
        for out in _built_by_construction(f, g):
            chart_module._validate(out.pairs, list(out.pieces))
            assert make_chart(out.pairs, out.pieces) == out

    @settings(max_examples=30, deadline=None)
    @given(chart_models(), chart_models())
    def test_output_passes_the_input_check(self, one, two):
        (pairs, plain), _, _, _ = one
        _, (other_pairs, other), _, _ = two
        self.check(make_chart(pairs, plain), make_chart(*_swapped(other_pairs, other)))

    def test_output_on_random_charts(self):
        rng = make_rng(83)
        for _ in range(120):
            self.check(random_mixed(rng), random_mixed(rng))

    def test_disjoint_union_of_restrictions_is_the_chart(self):
        rng = make_rng(87)
        for _ in range(60):
            f, s = random_mixed(rng), random_epset(rng)
            parts = (restrict(f, s), restrict(f, s.complement()), EMPTY_CHART)
            out = chart_module._disjoint_union(*parts)
            chart_module._validate(out.pairs, list(out.pieces))
            assert out == f == chart_union(*parts)

    def test_block_maps(self):
        # block_evader's "stab" letters hold _image_aligner's output and the
        # shuffles and paddings of the relation word.
        rng = make_rng(91)
        outs = []
        for _ in range(30):
            p = random_partition(rng)
            outs.append(padding_perm(p, random_mixed(rng), random_mixed(rng)))
            outs.append(block_shuffle(p, rng.sample(range(p.n), p.n)))
        for n in (2, 3):
            g = invert(bijection_between(residue_class(0, n), NATURALS))
            word = block_evader(mod_partition(n), DOUBLE, g, invert(g))
            outs += [a for label, a in word.letters if label == "stab"]
        for out in outs:
            chart_module._validate(out.pairs, list(out.pieces))
            assert make_chart(out.pairs, out.pieces) == out

    def test_defect_spreader_stabilisers(self):
        # Each round's stabiliser is a disjoint union of maps between blocks.
        rng = make_rng(89)
        letters = set()
        for i in range(60):
            f = compose(random_total(rng), SHIFT if i % 3 == 0 else DOUBLE)
            p = random_partition(rng)
            if stats(f).defect != ZERO:
                word = defect_spreader(p, f)
                letters.update(
                    a for label, a in word.letters if label == "stab" and len(a.pieces) <= 300
                )
        assert len(letters) >= 10
        for a in letters:
            chart_module._validate(a.pairs, list(a.pieces))
            assert make_chart(a.pairs, a.pieces) == a
