"""Eventually periodic subsets of the naturals: canonical form and algebra."""

import copy
import functools
import itertools
import pickle
import random
import time
from math import lcm
from operator import and_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ixm.cardinal import ALEPH0, fin
from ixm.epset import (
    _MASK_OR_WIDTH,
    _RENDER_DENSITY,
    EMPTY,
    MAX_BITS,
    MAX_TRIAL_DIVISOR,
    NATURALS,
    Bits,
    EPSet,
    Prog,
    _mask,
    _primes,
    from_finite,
    from_prog,
    make_epset,
    parse_epset,
    prog_from_parts,
    prog_part,
    progs_intersect,
    render_epset,
    render_ints,
    render_prog,
    residue_class,
    union_all,
    union_parts,
)
from ixm.errors import ParameterError, ParseError, ResourceGuardError
from ixm.sampling import make_rng, random_epset

EVENS = residue_class(0, 2)
ODDS = residue_class(1, 2)
MULT3 = residue_class(0, 3)
MULT6 = residue_class(0, 6)


def members(s: EPSet, hi: int = 120) -> set:
    """Membership oracle on a window, independent of the set algebra."""
    return {x for x in range(hi) if x in s}


def _walk_intersect(fa, sa, fb, sb):
    """The first common point, found by walking a for one joint period."""
    step = lcm(sa, sb)
    x = fa + -(-(max(fa, fb) - fa) // sa) * sa
    first = next((y for y in range(x, x + step, sa) if (y - fb) % sb == 0), None)
    return None if first is None else Prog(first, step)


class TestProg:
    def test_contains_and_value(self):
        p = Prog(3, 4)
        assert 3 in p and 7 in p and 11 in p
        assert 4 not in p and 1 not in p
        assert p.value(2) == 11
        assert p.index(11) == 2

    def test_index_off_progression(self):
        with pytest.raises(ParameterError):
            Prog(0, 2).index(3)

    def test_split_partitions(self):
        p = Prog(1, 3)
        parts = p.split(3)
        seen = [x for x in range(1, 100) if x in p]
        covered = sorted(x for q in parts for x in range(100) if x in q)
        assert covered == seen
        assert all(q.step == 9 for q in parts)

    def test_validation(self):
        with pytest.raises(ParameterError, match="progression step must be positive, got 0"):
            Prog(0, 0)
        with pytest.raises(ParameterError, match="progression start must be >= 0, got -1"):
            Prog(-1, 2)

    def test_is_a_named_tuple(self):
        p = Prog(0, 2)
        assert p == (0, 2) and hash(p) == hash((0, 2))
        assert p._fields == ("first", "step")
        assert sorted([Prog(1, 2), Prog(0, 3), Prog(0, 2)]) == [(0, 2), (0, 3), (1, 2)]

    def test_epset_is_a_tuple_of_its_fields(self):
        s = make_epset(5, 6, (1, 3), (0, 2))
        fields = (s.threshold, s.period, s.residues, s.low)
        assert s == fields and hash(s) == hash(fields)
        assert s._fields == ("threshold", "period", "residues", "low")
        assert s[0] == s.threshold and s[3] == s.low

    # EMPTY and the finite set come first: iterating an EPSet lists its
    # members, so copying by iteration fails on them before it would walk
    # the infinite set forever.
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_epset_copies_and_pickles_by_its_fields(self, clone):
        for s in (EMPTY, from_finite([1, 2]), make_epset(5, 6, (1, 3), (0, 2))):
            t = clone(s)
            assert t == s and type(t) is EPSet
            assert type(t.residues) is Bits and type(t.low) is Bits

    def test_render_and_parts_round_trip(self):
        p = Prog(first=2, step=2)
        assert render_prog(p) == "(0 mod 2 from 1)"
        assert prog_from_parts(0, 2, 1) == p

    def test_intersect_is_crt(self):
        a, b = Prog(0, 2), Prog(0, 3)
        c = progs_intersect(a, b)
        assert c == Prog(0, 6)
        assert progs_intersect(Prog(0, 2), Prog(1, 2)) is None

    def test_intersect_matches_pointwise(self):
        rng = make_rng(11)
        for _ in range(200):
            a = Prog(rng.randrange(10), rng.randrange(1, 9))
            b = Prog(rng.randrange(10), rng.randrange(1, 9))
            c = progs_intersect(a, b)
            window = {x for x in range(200) if x in a and x in b}
            if c is None:
                assert window == set()
            else:
                assert {x for x in range(200) if x in c} == window

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 60), st.integers(0, 200), st.integers(1, 60))
    def test_intersect_matches_a_walk(self, fa, sa, fb, sb):
        assert progs_intersect(Prog(fa, sa), Prog(fb, sb)) == _walk_intersect(fa, sa, fb, sb)

    def test_intersect_matches_a_walk_on_a_small_grid(self):
        for fa, sa, fb, sb in itertools.product(range(13), range(1, 7), range(13), range(1, 7)):
            assert progs_intersect(Prog(fa, sa), Prog(fb, sb)) == _walk_intersect(fa, sa, fb, sb)

    def test_intersect_of_huge_coprime_steps_is_immediate(self):
        start = time.perf_counter()
        c = progs_intersect(Prog(5, 1000000007), Prog(7, 1000000009))
        assert time.perf_counter() - start < 0.1
        assert c.step == 1000000007 * 1000000009
        assert c.first in Prog(5, 1000000007) and c.first in Prog(7, 1000000009)
        assert c.first < c.step


class TestCanonicalForm:
    def test_equality_is_extensional(self):
        # The same set described with a doubled period and a shifted
        # threshold must come out structurally identical.
        a = make_epset(0, 2, (0,), ())
        b = make_epset(6, 4, (0, 2), {0, 2, 4})
        assert a == b
        assert a.period == 2 and a.threshold == 0

    def test_low_part_absorbed_into_tail(self):
        s = make_epset(5, 3, (0,), {0, 3})
        assert s == make_epset(0, 3, (0,), ())

    def test_threshold_is_tight(self):
        # 6 agrees with the tail pattern so it folds into the tail; the last
        # disagreement is the missing 3, pinning the threshold at 4.
        s = make_epset(9, 3, (0,), {1, 6})
        assert s.threshold == 4
        assert set(s.low) == {1}
        assert members(s) == {1} | set(range(6, 120, 3))

    def test_finite_sets_have_period_one(self):
        s = make_epset(10, 6, (), {2, 9})
        assert s.period == 1 and set(s.residues) == set()
        assert s.card() == fin(2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            make_epset(0, 0, (), ())
        with pytest.raises(ParameterError):
            make_epset(-1, 1, (), ())
        with pytest.raises(ParameterError):
            make_epset(3, 2, (), {5})  # low point at or past the threshold


class TestBooleanOps:
    def test_union_of_complementary_classes(self):
        assert EVENS.union(ODDS) == NATURALS

    def test_intersection_is_crt(self):
        assert EVENS.intersect(MULT3) == MULT6

    def test_complement_of_everything(self):
        assert NATURALS.complement() == EMPTY
        assert EMPTY.complement() == NATURALS

    def test_difference(self):
        assert NATURALS.difference(ODDS) == EVENS

    def test_ops_match_pointwise_oracle(self):
        rng = make_rng(23)
        for _ in range(300):
            a, b = random_epset(rng), random_epset(rng)
            hi = 3 * a.period * b.period + max(a.threshold, b.threshold) + 10
            ma, mb = members(a, hi), members(b, hi)
            assert members(a.union(b), hi) == ma | mb
            assert members(a.intersect(b), hi) == ma & mb
            assert members(a.difference(b), hi) == ma - mb
            assert members(a.complement(), hi) == set(range(hi)) - ma

    def test_subset(self):
        assert MULT6.is_subset(EVENS)
        assert not EVENS.is_subset(MULT6)
        assert EMPTY.is_subset(EMPTY)
        assert from_finite([4]).is_subset(EVENS)


class TestCardinality:
    def test_empty(self):
        assert EMPTY.card() == fin(0)

    def test_residue_class_is_infinite(self):
        assert EVENS.card() == ALEPH0

    def test_finite_prefix(self):
        assert make_epset(3, 1, (), {0, 1, 2}).card() == fin(3)


class TestDecompose:
    def test_single_class(self):
        progs, low = EVENS.decompose()
        assert progs == [Prog(0, 2)] and low == []

    def test_shifted_full_class(self):
        progs, low = NATURALS.difference(from_finite([0])).decompose()
        assert progs == [Prog(1, 1)] and low == []

    def test_mixed_set(self):
        s = from_finite([1]).union(make_epset(6, 3, (0,), ()))
        progs, low = s.decompose()
        assert progs == [Prog(6, 3)] and low == [1]
        # Cross-check the decomposition pointwise on a window.
        rebuilt = {x for x in range(100) if any(x in p for p in progs)} | set(low)
        assert rebuilt == members(s, 100)

    def test_decompose_rebuilds_everything(self):
        rng = make_rng(5)
        for _ in range(100):
            s = random_epset(rng)
            progs, low = s.decompose()
            hi = 2 * s.period + s.threshold + 20
            rebuilt = {x for x in range(hi) if any(x in p for p in progs)} | set(low)
            assert rebuilt == members(s, hi)


class TestMoiety:
    def test_half_of_everything(self):
        assert EVENS.is_moiety()

    def test_everything_is_not(self):
        assert not NATURALS.is_moiety()

    def test_finite_is_not(self):
        assert not from_finite([5]).is_moiety()

    def test_cofinite_is_not(self):
        assert not NATURALS.difference(from_finite([0, 1])).is_moiety()


class TestSplit:
    def test_split_partitions_the_set(self):
        rng = make_rng(31)
        for _ in range(60):
            s = random_epset(rng)
            if s.card() != ALEPH0:
                continue
            parts = s.split(3)
            assert len(parts) == 3
            assert all(p.card() == ALEPH0 for p in parts)
            assert union_all(parts) == s
            for i, p in enumerate(parts):
                for q in parts[i + 1:]:
                    assert p.intersect(q).is_empty()

    def test_split_one_is_identity(self):
        assert EVENS.split(1) == [EVENS]

    def test_split_finite_rejected(self):
        with pytest.raises(ParameterError):
            from_finite([1, 2]).split(2)
        with pytest.raises(ParameterError):
            EVENS.split(0)


class TestAccessors:
    def test_take_first(self):
        assert members(EVENS.take_first(3), 100) == {0, 2, 4}
        with pytest.raises(ParameterError):
            from_finite([1]).take_first(2)

    def test_min(self):
        assert EVENS.min() == 0
        assert make_epset(4, 3, (1,), {2}).min() == 2
        with pytest.raises(ParameterError):
            EMPTY.min()

    def test_iter_ascending(self):
        it = iter(ODDS)
        assert [next(it) for _ in range(4)] == [1, 3, 5, 7]

    def test_iter_lists_the_members_in_order(self):
        rng = make_rng(29)
        for _ in range(200):
            s = random_epset(rng)
            hi = s.threshold + 3 * s.period
            want = [x for x in range(hi) if x in s]
            assert list(itertools.takewhile(lambda x: x < hi, s)) == want

    def test_members_of_a_sparse_wide_set_are_found_quickly(self):
        # One residue of 2**21, past the threshold 0: a walk that tests every
        # integer would take about 1,048,575 steps to reach the first member.
        s = parse_epset("ep N=0 m=2097152 R={1048575} L={}")
        start = time.perf_counter()
        assert s.min() == 1048575
        assert s.take_first(3) == from_finite([1048575, 3145727, 5242879])
        assert time.perf_counter() - start < 0.2

    def test_first_members_of_a_dense_wide_set_cost_no_pass_over_the_period(self):
        s = parse_epset("ep N=0 m=16777216 R={0,1,2} L={}").complement()
        start = time.perf_counter()
        assert s.min() == 3
        assert s.take_first(3) == from_finite([3, 4, 5])
        assert time.perf_counter() - start < 0.2

    def test_membership_protocol(self):
        assert 4 in EVENS and 5 not in EVENS


class TestUnionAll:
    def test_empty_family(self):
        assert union_all([]) == EMPTY
        assert union_all([EMPTY, EMPTY]) == EMPTY

    def test_matches_fold_pointwise(self):
        rng = make_rng(47)
        for _ in range(40):
            fam = [random_epset(rng) for _ in range(rng.randrange(1, 8))]
            got = union_all(fam)
            hi = max(s.threshold for s in fam) + 4 * got.period + 10
            want = set()
            for s in fam:
                want |= members(s, hi)
            assert members(got, hi) == want

    def test_split_family_recombines(self):
        # Pieces of a single class re-tile it exactly, keeping the period small.
        parts = [from_prog(p) for p in Prog(0, 2).split(5)]
        got = union_all(parts)
        assert got == EVENS
        assert got.period == 2


class TestText:
    def test_render_form(self):
        s = make_epset(4, 3, (0, 2), {1})
        assert render_epset(s) == "ep N=4 m=3 R={0,2} L={1}"

    def test_round_trip(self):
        rng = make_rng(3)
        for _ in range(200):
            s = random_epset(rng)
            assert parse_epset(render_epset(s)) == s

    def test_parse_normalises(self):
        assert parse_epset("ep N=6 m=4 R={0,2} L={0,2,4}") == EVENS

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "ep",
            "ep N=1 m=0 R={} L={}",
            "ep N=1 m=2 R={2} L={}",
            "ep N=1 m=2 R={0} L={3}",
            "set N=1 m=2 R={0} L={}",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises((ParseError, ParameterError)):
            parse_epset(bad)

    @pytest.mark.parametrize(
        "bad, field",
        [
            ("ep N=0 m=2 R={1} L={} X=7", "'X'"),
            ("ep N=0 N=4 m=2 R={1} L={}", "'N' given twice"),
            ("ep N=0 m=2 R={1} L={} L={}", "'L' given twice"),
        ],
    )
    def test_parse_names_unknown_and_repeated_fields(self, bad, field):
        with pytest.raises(ParseError, match=field):
            parse_epset(bad)


# -- Properties against a pointwise reference -------------------------------
#
# A description (N, m, R, L) is read pointwise: x is a member iff x is in L
# when x < N, and x mod m is in R otherwise.  Thresholds reach 500 and
# periods 200, so masks cross many 64-bit words.  R repeats a word of some
# divisor of m, and L follows the tail pattern from a random cut on, so
# that canonical form often shrinks both the period and the threshold.


@st.composite
def descriptions(draw, periods=st.integers(1, 200)):
    m = draw(periods)
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    word = draw(st.integers(0, 2**d - 1))
    res = [r for r in range(m) if word >> (r % d) & 1]
    n = draw(st.integers(0, 500))
    cut = draw(st.integers(0, n))
    noise = draw(st.integers(0, 2**cut - 1))
    low = [x for x in range(n) if (word >> (x % d) & 1) != (noise >> x & 1)]
    return n, m, res, low


def described(desc, hi: int) -> set:
    n, m, res, low = desc
    res, low = set(res), set(low)
    return {x for x in range(hi) if (x in low if x < n else x % m in res)}


DIVISORS_OF_720 = st.sampled_from([d for d in range(1, 201) if 720 % d == 0])


def window(*descs) -> int:
    return max(d[0] for d in descs) + lcm(*(d[1] for d in descs))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(descriptions())
    def test_canonical_form_is_minimal_and_faithful(self, desc):
        s = make_epset(*desc)
        assert members(s, window(desc)) == described(desc, window(desc))
        # No smaller period repeats the tail, and the point just below the
        # threshold disagrees with the tail pattern.
        tail = set(s.residues)
        for d in range(1, s.period):
            if s.period % d == 0:
                assert any((r + d) % s.period not in tail for r in tail)
        if s.threshold:
            x = s.threshold - 1
            assert (x in s.low) != (x % s.period in s.residues)

    @settings(max_examples=60, deadline=None)
    @given(descriptions(), descriptions())
    def test_boolean_ops_match_pointwise(self, da, db):
        a, b = make_epset(*da), make_epset(*db)
        hi = window(da, db)
        ma, mb = described(da, hi), described(db, hi)
        assert members(a.union(b), hi) == ma | mb
        assert members(a.intersect(b), hi) == ma & mb
        assert members(a.difference(b), hi) == ma - mb
        assert members(a.complement(), hi) == set(range(hi)) - ma
        assert a.is_subset(b) == (ma <= mb)
        assert a.card() == (ALEPH0 if da[2] else fin(len(ma)))
        # The kernel lifts one operand only and the complement flips masks
        # without canonicalising: every result must still be canonical.
        for r in (a.union(b), a.intersect(b), a.difference(b), a.complement()):
            assert r == make_epset(r.threshold, r.period, r.residues, r.low)

    # Periods divide 720, so the fold's joint period stays small.
    @settings(max_examples=30, deadline=None)
    @given(st.lists(descriptions(DIVISORS_OF_720), min_size=1, max_size=5))
    def test_union_all_is_a_fold_of_union(self, descs):
        fam = [make_epset(*d) for d in descs]
        got = union_all(fam)
        assert got == functools.reduce(EPSet.union, fam, EMPTY)
        hi = window(*descs)
        assert members(got, hi) == set().union(*(described(d, hi) for d in descs))

    @settings(max_examples=60, deadline=None)
    @given(descriptions())
    def test_text_round_trip(self, desc):
        s = make_epset(*desc)
        assert parse_epset(render_epset(s)) == s


def least_rotation(word: int, m: int) -> int:
    """The least p dividing m whose rotation maps the m-bit word to itself."""
    text = format(word, f"0{m}b")
    return next(p for p in range(1, m + 1) if m % p == 0 and text[p:] + text[:p] == text)


@st.composite
def repeated_words(draw):
    """An m-bit word repeating a word of m / q**k bits, for a prime q of m:
    empty, full, dense or sparse, so that its residue count is coprime to m
    as often as it shares factors with it."""
    m = draw(st.sampled_from([720, 840, 2310, 4096]))
    q = draw(st.sampled_from([q for q in (2, 3, 5, 7, 11) if m % q == 0]))
    d = m
    for _ in range(draw(st.integers(0, 12))):
        if d % q == 0:
            d //= q
    word = draw(
        st.one_of(
            st.just(0),
            st.just((1 << d) - 1),
            st.integers(0, (1 << d) - 1),
            st.sets(st.integers(0, d - 1), max_size=6).map(lambda rs: sum(1 << r for r in rs)),
        )
    )
    full = 0
    for i in range(0, m, d):
        full |= word << i
    return m, full


# Starts reach past the steps, so a progression may have one point or many
# below the threshold of its step's group.
PROGS = st.builds(Prog, st.integers(0, 400), st.sampled_from([1, 2, 3, 4, 6, 12, 35]))


class TestPeriodSearch:
    @settings(max_examples=300, deadline=None)
    @given(repeated_words())
    def test_period_is_the_least_rotation(self, mw):
        m, word = mw
        s = make_epset(0, m, [r for r in range(m) if word >> r & 1], ())
        p = least_rotation(word, m)
        assert s.period == p
        assert s.residues == word & ((1 << p) - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3000), st.integers(1, 3000))
    def test_single_residue_sets_are_built_canonical(self, first, step):
        assert from_prog(Prog(first, step)) == make_epset(first, step, (first % step,), ())
        assert residue_class(first, step) == make_epset(0, step, (first,), ())

    def test_single_residue_guard(self):
        with pytest.raises(ResourceGuardError):
            from_prog(Prog(MAX_BITS + 1, 2))
        with pytest.raises(ParameterError):
            residue_class(0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 200), min_size=1, max_size=20))
    def test_finite_sets_are_built_canonical(self, pts):
        s = from_finite(pts)
        assert s == make_epset(max(pts) + 1, 1, (), pts)
        assert members(s, max(pts) + 3) == pts

    @settings(max_examples=10, deadline=None)
    @given(st.sets(st.integers(MAX_BITS - 100, MAX_BITS - 1), min_size=1, max_size=5))
    def test_finite_sets_at_the_cap(self, pts):
        s = from_finite(pts)
        assert s == make_epset(max(pts) + 1, 1, (), pts)
        assert {x for x in range(MAX_BITS - 101, MAX_BITS + 2) if x in s} == pts

    def test_finite_set_guards(self):
        assert from_finite([]) == EMPTY
        with pytest.raises(ResourceGuardError):
            from_finite([0, MAX_BITS])
        for bad in ([-1], [-5, -2], [-1, 3]):
            with pytest.raises(ParameterError):
                from_finite(bad)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(PROGS, max_size=8), st.lists(st.integers(0, 500), max_size=6))
    def test_union_parts_of_progressions_and_points(self, progs, points):
        want = union_all([from_prog(p) for p in progs] + [from_finite(points)])
        assert union_parts(map(prog_part, progs), points) == want


def _brute_primes(g: int) -> tuple[int, ...]:
    out, q = [], 2
    while q * q <= g:
        if g % q == 0:
            out.append(q)
            while g % q == 0:
                g //= q
        q += 1
    return tuple(out + [g] * (g > 1))


class TestPrimes:
    def test_exact_up_to_the_mask_limit(self):
        rng = random.Random(7)
        gs = [*range(1, 3000), *range(MAX_BITS - 300, MAX_BITS + 1)]
        gs += [rng.randrange(1, MAX_BITS + 1) for _ in range(300)]
        # Primes near 2**24 and twice one near 2**23, 4093 * 4099 (primes
        # either side of 2**12), and 2**24.
        gs += [16777213, 16777199, 4093 * 4099, 2 * 8388593, MAX_BITS]
        for g in gs:
            assert _primes(g) == _brute_primes(g), g
        assert _primes(16777213) == (16777213,)
        assert _primes(4093 * 4099) == (4093, 4099)

    def test_bounded_by_the_trial_divisor(self):
        big = 16777213 * 16777199
        start = time.perf_counter()
        assert _primes.__wrapped__(big) == ()
        assert time.perf_counter() - start < 1.0
        assert _primes(12 * big) == (2, 3)
        # Exact up to the bound's square; beyond it a cofactor without a
        # prime factor up to the bound is dropped.
        assert _primes(999983**2) == (999983,)
        assert _primes(2 * (MAX_TRIAL_DIVISOR + 3) ** 2) == (2,)


# Two 10**5-bit masks with the top bit set: one with about half its bits set,
# one with three.
_WIDE_DENSE = random.Random(5).getrandbits(10**5) | 1 << (10**5 - 1)
_WIDE_SPARSE = 1 | 1 << 50_000 | 1 << (10**5 - 1)


class TestBits:
    def test_wide_mask_is_a_set(self):
        pts = [0, 1, 63, 64, 65, 4095, 10_000, 12_345, 20_000]
        b = Bits(sum(1 << x for x in pts))
        assert list(b) == pts and sorted(b) == pts
        assert len(b) == len(pts) and max(b) == 20_000
        assert all(x in b for x in pts)
        assert not any(x in b for x in (-1, 2, 62, 66, 19_999, 20_001, 10**9))

    def test_dense_wide_mask(self):
        b = Bits((1 << 30_000) - 1)
        assert len(b) == 30_000 and list(b) == list(range(30_000))

    # Iteration walks every bit position in C when at least one bit in ten
    # is set and jumps between set bits otherwise: 1 << 9 is the sparsest
    # mask on the walking side, 1 << 10 the densest single bit past it.
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**3000 - 1)
        | st.sets(st.integers(0, 3000), max_size=12).map(lambda pts: sum(1 << x for x in pts))
    )
    @example(0)
    @example(1 << 7)
    @example(1 << 8)
    @example(1 << 9)
    @example(1 << 10)
    @example(1 << 99_999)
    @example((1 << 100_000) - 1)
    @example(_WIDE_DENSE)
    @example(_WIDE_SPARSE)
    def test_iteration_lists_the_set_bits(self, x):
        assert list(Bits(x)) == [i for i in range(x.bit_length()) if x >> i & 1]

    @pytest.mark.parametrize("mask", [_WIDE_DENSE, _WIDE_SPARSE], ids=["dense", "sparse"])
    def test_wide_low_part_round_trips(self, mask):
        low = [x for x, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]
        s = make_epset(10**5, 6, (1, 4), low)
        assert s.threshold == 10**5
        assert parse_epset(render_epset(s)) == s

    def test_fields_are_masks(self):
        s = make_epset(9, 3, (0,), {1, 6})
        assert isinstance(s.residues, Bits) and isinstance(s.low, Bits)
        assert s.residues == 0b1 and s.low == 0b10


class TestMask:
    """`_mask` ORs single bits up to _MASK_OR_WIDTH and fills a bytearray past it."""

    @pytest.mark.parametrize("width", [_MASK_OR_WIDTH, _MASK_OR_WIDTH + 1])
    def test_both_paths_build_the_mask(self, width):
        rng = random.Random(width)
        for xs in (
            [],
            [0],
            [width - 1],
            [5, 5, 9, 0],
            rng.sample(range(width), 7),
            rng.sample(range(width), width // 2),
            range(width),
        ):
            assert _mask(xs, width) == sum(1 << x for x in set(xs))
            assert _mask(iter(xs), width) == _mask(list(xs), width)

    @pytest.mark.parametrize("width", [1, _MASK_OR_WIDTH, _MASK_OR_WIDTH + 1, 5_000])
    @pytest.mark.parametrize("offset", [-1, 0, 64])
    def test_a_point_out_of_range_raises_on_both_paths(self, width, offset):
        bad = -1 if offset < 0 else width + offset
        with pytest.raises(ParameterError, match=r"low part entries must lie in \[0, threshold\)"):
            _mask([0, bad], width)


def _mask_of(members) -> int:
    buf = bytearray(max(members, default=0) // 8 + 1)
    for x in members:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


def _at_the_cutoff(count: int) -> list[int]:
    """`count` members, one per _RENDER_DENSITY positions, top bit last:
    exactly the sparsest mask that the tables render."""
    return list(range(_RENDER_DENSITY - 1, count * _RENDER_DENSITY, _RENDER_DENSITY))


def _every_seventh_and(*pts: int) -> list[int]:
    return sorted(set(range(0, max(pts), 7)) | set(pts))


# Dense masks (at least one bit in _RENDER_DENSITY set) are rendered from the
# tables block of 1,000 positions by block; these cross block edges, decimal
# lengths of the block heads, empty blocks and the density cutoff.
_RENDER_EXAMPLES = {
    "top bit 999": range(1000),
    "top bit 1000": range(1001),
    "top bit 1001": _every_seventh_and(1001),
    **{f"10**{k} - 1": _every_seventh_and(10**k - 1) for k in range(3, 7)},
    **{f"10**{k} + 1": _every_seventh_and(10**k - 1, 10**k + 1) for k in range(3, 7)},
    "empty block 0": range(1000, 3000),
    "empty middle block": [*range(0, 1000, 3), *range(2000, 3000, 3)],
    "only above 10**6": range(10**6, 1_200_000, 2),
    "only above 10**7": [*range(10**7, 10_600_000), 10_999_999, 11_000_000],
    "at the cutoff": _at_the_cutoff(100),
    "one bit below the cutoff": _at_the_cutoff(100)[1:],
    "one bit above the cutoff": [0, *_at_the_cutoff(100)],
    "sparse, top bit MAX_BITS - 1": [0, 999, 1000, 123_456, MAX_BITS - 1],
}


class TestRenderInts:
    # A mask of up to 5,000 bits, dense or sparse, moved up by an offset
    # that may leave block 0 empty or give the heads four or five digits.
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([0, 0, 0, 1000, 999_000, 10**6, 10**7]),
        st.integers(0, 2**5000 - 1)
        | st.builds(and_, st.integers(0, 2**5000 - 1), st.integers(0, 2**5000 - 1))
        | st.sets(st.integers(0, 5000), max_size=40).map(_mask_of),
    )
    @example(0, 0)
    @example(1000, (1 << 1000) - 1)
    @example(0, (1 << 3000) - 1 ^ ((1 << 1000) - 1) << 1000)
    @example(0, 1 << 3000 | 1)
    def test_matches_str_join(self, offset, x):
        members = [offset + i for i in range(x.bit_length()) if x >> i & 1]
        assert render_ints(Bits(x << offset)) == ",".join(map(str, members))

    def test_matches_str_join_on_edges(self):
        def dense(members):
            bits = _mask_of(members)
            return _RENDER_DENSITY * bits.bit_count() >= bits.bit_length()

        ex = _RENDER_EXAMPLES
        assert dense(ex["at the cutoff"]) and dense(ex["one bit above the cutoff"])
        assert not dense(ex["one bit below the cutoff"])
        assert dense(ex["only above 10**6"]) and dense(ex["only above 10**7"])
        assert not dense(ex["sparse, top bit MAX_BITS - 1"])
        for name, members in ex.items():
            assert render_ints(Bits(_mask_of(members))) == ",".join(map(str, members)), name

    def test_dense_mask_at_the_cap(self):
        # Bit 15 of every 16 but block 1: a million members, top bit MAX_BITS - 1.
        every_16th = int.from_bytes(b"\x00\x80" * (MAX_BITS // 16), "little")
        bits = Bits(every_16th & ~(((1 << 1000) - 1) << 1000))
        assert bits.bit_length() == MAX_BITS
        members = (x for x in range(15, MAX_BITS, 16) if not 1000 <= x < 2000)
        assert render_ints(bits) == ",".join(map(str, members))


class TestSizeGuard:
    def test_threshold_beyond_the_cap(self):
        with pytest.raises(ResourceGuardError):
            from_finite([MAX_BITS])
        with pytest.raises(ResourceGuardError):
            parse_epset(f"ep N={MAX_BITS + 1} m=1 R={{}} L={{}}")

    def test_period_beyond_the_cap(self):
        with pytest.raises(ResourceGuardError):
            residue_class(0, MAX_BITS + 1)

    def test_joint_period_beyond_the_cap(self):
        # Both periods are small; their lcm 25,005,000 is not.
        a, b = residue_class(0, 5000), residue_class(0, 5001)
        with pytest.raises(ResourceGuardError):
            a.union(b)
        with pytest.raises(ResourceGuardError):
            union_all([a, b])

    def test_at_the_cap(self):
        s = from_finite([MAX_BITS - 1])
        assert s.threshold == MAX_BITS and s.card() == fin(1)
