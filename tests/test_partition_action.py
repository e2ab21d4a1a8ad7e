"""Finite partitions of the naturals, block relations and the block relation
that a chart induces."""

import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ixm
from ixm.cardinal import ALEPH0
from ixm.chart import IDENTITY_CHART, Piece, image_of_set, make_chart
from ixm.epset import NATURALS, Prog, from_finite, make_epset, render_epset, residue_class
from ixm.errors import ParameterError, ParseError, ResourceGuardError
from ixm.partition_action import (
    MAX_BLOCKS,
    BinRel,
    all_relations,
    canonical_rel,
    full_relation_word,
    make_partition,
    mod_partition,
    parse_partition,
    parse_rel,
    perm_rel,
    rel_compose,
    rel_dom_full,
    rel_from_pairs,
    rel_full,
    rel_identity,
    rel_im_full,
    rel_is_perm,
    render_partition,
    render_rel,
    rho_of,
)
from ixm.sampling import random_mixed, random_partition

SRC = str(Path(ixm.__file__).resolve().parent.parent)
DOUBLE = make_chart((), (Piece(Prog(0, 1), Prog(0, 2)),))


def _rho_by_images(p, f):
    """The block relation by its definition: the image of each block, then
    an infinite intersection with each block."""
    return rel_from_pairs(p.n, [
        (i, j)
        for i, b in enumerate(p.blocks)
        for j, c in enumerate(p.blocks)
        if image_of_set(f, b).intersect(c).card() == ALEPH0
    ])


@st.composite
def residue_block_partitions(draw):
    """Blocks that own whole residue classes mod m from a threshold on, in
    no particular order, and random points below it."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(2, min(m, 6)))
    owner = [r % n for r in draw(st.permutations(range(m)))]
    threshold = draw(st.integers(1, 14))
    low = draw(st.lists(st.integers(0, n - 1), min_size=threshold, max_size=threshold))
    return make_partition(
        make_epset(
            threshold,
            m,
            [r for r in range(m) if owner[r] == i],
            [x for x in range(threshold) if low[x] == i],
        )
        for i in range(n)
    )


@st.composite
def split_partitions(draw):
    """Blocks of different periods: a few times, a block is split into its
    parts in the residue classes mod q."""
    blocks = [NATURALS]
    for _ in range(draw(st.integers(1, 3))):
        b = blocks.pop(draw(st.integers(0, len(blocks) - 1)))
        q = draw(st.integers(2, 4))
        parts = (b.intersect(residue_class(r, q)) for r in range(q))
        blocks += [part for part in parts if not part.is_empty()]
    return make_partition(draw(st.permutations(blocks)))


def partitions():
    return st.one_of(
        st.builds(random_partition, st.randoms(use_true_random=False)),
        st.builds(mod_partition, st.integers(2, 6)),
        residue_block_partitions(),
        split_partitions(),
    )


def relations():
    return st.integers(1, 5).flatmap(
        lambda n: st.builds(
            rel_from_pairs,
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        )
    )


@st.composite
def _near_partitions(draw):
    """Two to four moieties that partition the naturals: a threshold below
    7, a period below 25, and each residue and low point in one block.  Up
    to two residues or low points are then put in a second block too, so
    about a third of the lists meet, in their tails or below them."""
    k, m, n = draw(st.integers(2, 4)), draw(st.integers(4, 24)), draw(st.integers(0, 6))
    owner = draw(st.permutations([*range(k), *draw(st.lists(st.integers(0, k - 1),
                                                            min_size=m - k, max_size=m - k))]))
    res = [{r for r in range(m) if owner[r] == j} for j in range(k)]
    low = [set() for _ in range(k)]
    for x in range(n):
        low[draw(st.integers(0, k - 1))].add(x)
    for in_tail, i, j in draw(st.lists(st.tuples(st.booleans(), st.integers(0, 23),
                                                 st.integers(0, 3)), max_size=2)):
        if in_tail and len(res[j % k]) < m - 1:  # a block of every residue is no moiety
            res[j % k].add(i % m)
        elif not in_tail and n:
            low[j % k].add(i % n)
    return [make_epset(n, m, res[j], low[j]) for j in range(k)]


class TestRho:
    @settings(max_examples=150, deadline=None)
    @given(partitions(), st.randoms(use_true_random=False))
    def test_residues_match_the_images_of_the_blocks(self, p, rng):
        f = random_mixed(rng)
        assert rho_of(p, f) == _rho_by_images(p, f)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_fixes_every_block(self, n):
        assert rho_of(mod_partition(n), IDENTITY_CHART) == rel_identity(n)
        backwards = make_partition(residue_class(i, n) for i in reversed(range(n)))
        assert rho_of(backwards, IDENTITY_CHART) == rel_identity(n)

    def test_doubling_sends_both_classes_to_the_evens(self):
        assert rho_of(mod_partition(2), DOUBLE) == rel_from_pairs(2, [(0, 0), (1, 0)])

    def test_finitely_many_points_do_not_count(self):
        # Only the piece on the evens is infinite; the pair 1 -> 0 is not.
        f = make_chart([(1, 0)], (Piece(Prog(0, 2), Prog(1, 2)),))
        assert rho_of(mod_partition(2), f) == rel_from_pairs(2, [(0, 1)])


class TestText:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_modular_partition_round_trip(self, n):
        text = f"part mod {n}"
        assert render_partition(parse_partition(text)) == text
        assert parse_partition(text) == mod_partition(n)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_partition_round_trip(self, rng):
        p = random_partition(rng)
        assert parse_partition(render_partition(p)) == p

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_residue_classes_in_order_are_the_modular_partition(self, n):
        p = make_partition(residue_class(i, n) for i in range(n))
        assert p == mod_partition(n) and hash(p) == hash(mod_partition(n))
        assert render_partition(p) == f"part mod {n}"

    def test_block_partition_round_trip(self):
        # Residue classes out of order are not the modular partition.
        p = make_partition([residue_class(1, 2), residue_class(0, 2)])
        text = render_partition(p)
        assert text.startswith("part blocks ")
        assert parse_partition(text) == p

    @settings(max_examples=100, deadline=None)
    @given(relations())
    def test_relation_round_trip(self, r):
        text = render_rel(r)
        assert parse_rel(text) == r
        assert render_rel(parse_rel(text)) == text

    def test_relation_text(self):
        assert render_rel(rel_from_pairs(3, [(2, 0), (0, 1)])) == "rel n=3 {(0,1),(2,0)}"
        assert parse_rel("rel n=2 {}") == rel_from_pairs(2, [])

    def test_block_counts_past_the_guard_are_refused(self):
        n = MAX_BLOCKS
        assert mod_partition(n).n == make_partition(residue_class(i, n) for i in range(n)).n == n
        assert rel_from_pairs(n, [(n - 1, 0)]).n == n
        with pytest.raises(ResourceGuardError, match=f"at most {n} blocks, got {n + 1}"):
            mod_partition(n + 1)
        with pytest.raises(ResourceGuardError):
            make_partition(residue_class(i, n + 1) for i in range(n + 1))
        with pytest.raises(ResourceGuardError):
            rel_from_pairs(n + 1, [])
        for text in (f"part mod {n + 1}", "part blocks " + " | ".join(
            f"ep N=0 m={n + 1} R={{{i}}} L={{}}" for i in range(n + 1)
        )):
            with pytest.raises(ResourceGuardError):
                parse_partition(text)
        with pytest.raises(ResourceGuardError):
            parse_rel(f"rel n={n + 1} {{}}")

    def test_blocks_whose_pairs_reach_past_the_mask_limit_parse(self):
        # 3 mod 4, and the other classes mod 4 each cut by 0 mod a prime power
        # and their rest by 0 mod 5 or 3: pairs of pieces reach period
        # 625,117,500, past 2**24, but each class's pieces unite back to period 4.
        blocks = [residue_class(3, 4)]
        for r, q, k in ((2, 343, 5), (1, 625, 3), (0, 729, 5)):
            cut = residue_class(r, 4).intersect(residue_class(0, q))
            rest = residue_class(r, 4).difference(cut)
            blocks += [cut, rest.intersect(residue_class(0, k)), rest.difference(residue_class(0, k))]
        blocks[1:] = sorted(blocks[1:], key=lambda b: b.period)  # 1372, 2500, 2916, 6860, ...
        p = parse_partition("part blocks " + " | ".join(render_epset(b) for b in blocks))
        assert p.blocks == tuple(blocks)

    @pytest.mark.parametrize(
        "blocks, message",
        [
            # The odds with 0 share one point with the evens.
            ([residue_class(0, 2), residue_class(1, 2).union(from_finite([0]))], "blocks overlap"),
            ([residue_class(0, 2), residue_class(0, 4), residue_class(1, 2)], "blocks overlap"),
            # Overlap is reported before a missing cover.
            ([residue_class(0, 4), residue_class(0, 8), residue_class(1, 4)], "blocks overlap"),
            ([residue_class(0, 4), residue_class(2, 4), residue_class(1, 4)], "do not cover"),
            ([residue_class(0, 2).difference(from_finite([4])), residue_class(1, 2)], "do not cover"),
            # The union would have period 31,505,922, past the mask limit: the
            # overlap is found pairwise, before any union is formed.
            (
                [residue_class(0, 2), residue_class(0, 4), residue_class(2401, 4802),
                 residue_class(6561, 13122)],
                "blocks overlap",
            ),
        ],
    )
    def test_blocks_that_are_not_a_partition_are_refused(self, blocks, message):
        with pytest.raises(ParameterError, match=message):
            make_partition(blocks)

    @settings(max_examples=200, deadline=None)
    @given(_near_partitions())
    def test_overlap_is_refused_iff_two_blocks_meet(self, blocks):
        meet = any(not a.intersect(b).is_empty() for a, b in combinations(blocks, 2))
        try:
            make_partition(blocks)
        except ParameterError as exc:
            assert (str(exc) == "blocks overlap") == meet
        else:
            assert not meet

    @pytest.mark.parametrize(
        "text",
        ["mod 2", "part mod 1", "part mod x", "part blocks ep N=0 m=2 R={0} L={}", "part twist"],
    )
    def test_bad_partition_rejected(self, text):
        with pytest.raises(ParseError):
            parse_partition(text)

    @pytest.mark.parametrize(
        "text",
        ["n=2 {}", "rel {}", "rel n=0 {}", "rel n=2 (0,1)", "rel n=2 {(0,2)}", "rel n=2 {(0,x)}"],
    )
    def test_bad_relation_rejected(self, text):
        with pytest.raises(ParseError):
            parse_rel(text)


def reference_word(n, rho, sigma):
    """The same breadth-first search on ``BinRel`` values through
    ``rel_compose``, one product at a time."""
    gens = [("g", rho), ("h", sigma)]
    gens += [(("perm", pi), perm_rel(pi)) for pi in permutations(range(n))]
    target = rel_full(n)
    seen = {}
    for label, r in gens:
        seen.setdefault(r, (label,))
    frontier = dict(seen)
    while frontier and target not in seen:
        fresh = {}
        for r, word in frontier.items():
            for label, gen in gens:
                nxt = rel_compose(r, gen)
                if nxt not in seen and nxt not in fresh:
                    fresh[nxt] = word + (label,)
        seen.update(fresh)
        frontier = fresh
    return seen.get(target)


def first_of_each_class(rels):
    firsts = {}
    for r in rels:
        firsts.setdefault(canonical_rel(r), r)
    return list(firsts.values())


def value_of(word, n, rho, sigma):
    gens = {"g": rho, "h": sigma}
    acc = rel_identity(n)
    for label in word:
        acc = rel_compose(acc, gens[label] if label in gens else perm_rel(label[1]))
    return acc


def canonical_rel_oracle(r):
    """The least row tuple over every column and every row relabelling."""
    perms = list(permutations(range(r.n)))
    row_orders = [itemgetter(*tau) for tau in perms]
    best = None
    for pi in perms:
        cols = [sum(1 << pi[j] for j in range(r.n) if row >> j & 1) for row in r.rows]
        least = min(order(cols) for order in row_orders)
        if best is None or least < best:
            best = least
    return best


class TestCanonicalRel:
    def test_matches_every_relabelling(self):
        rng = random.Random(61)
        rels = all_relations(3)
        rels += [BinRel(n, tuple(rng.randrange(1 << n) for _ in range(n))) for n in (4, 5) for _ in range(300)]
        for r in rels:
            assert canonical_rel(r).rows == canonical_rel_oracle(r), r


class TestRelationWordSearch:
    def test_every_pair_on_two_points(self):
        rels = all_relations(2)
        found = 0
        for rho, sigma in product(rels, rels):
            word = full_relation_word(2, rho, sigma)
            assert word == reference_word(2, rho, sigma), (rho, sigma)
            if word is not None:
                found += 1
                assert value_of(word, 2, rho, sigma) == rel_full(2)
        assert 0 < found < len(rels) ** 2

    def test_every_canonical_pair_on_three_points(self):
        rels = all_relations(3)
        rhos = first_of_each_class(r for r in rels if rel_dom_full(r) and not rel_is_perm(r))
        sigmas = first_of_each_class(r for r in rels if rel_im_full(r) and not rel_is_perm(r))
        for rho, sigma in product(rhos, sigmas):
            word = full_relation_word(3, rho, sigma)
            assert word is not None and word == reference_word(3, rho, sigma), (rho, sigma)
            assert value_of(word, 3, rho, sigma) == rel_full(3)

    def test_relations_on_other_sizes_are_refused(self):
        with pytest.raises(ParameterError):
            full_relation_word(3, rel_full(2), rel_full(3))
        with pytest.raises(ParameterError):
            full_relation_word(2, rel_full(2), rel_identity(3))


# The 11-piece chart that `laws --suite spreader --seed 51000` draws as case 12
# (printed by `render_chart`).  Spreading it over the residues mod 4 builds a
# chart of 4,560 pieces.
SPREAD_CASE = (
    "chart { piece (0 mod 11 from 0) -> (5 mod 24 from 0); piece (1 mod 11 from 0) -> (4 mod 6 from 0); "
    "piece (2 mod 11 from 0) -> (9 mod 24 from 0); piece (3 mod 11 from 0) -> (7 mod 12 from 0); "
    "piece (4 mod 11 from 0) -> (13 mod 24 from 0); piece (5 mod 11 from 0) -> (0 mod 6 from 1); "
    "piece (6 mod 11 from 0) -> (17 mod 24 from 0); piece (7 mod 11 from 0) -> (11 mod 12 from 0); "
    "piece (8 mod 11 from 0) -> (21 mod 24 from 0); piece (9 mod 11 from 0) -> (2 mod 6 from 1); "
    "piece (10 mod 11 from 0) -> (1 mod 24 from 1); }"
)


# The total chart of defect 7 that `laws --suite all --seed 1047 --cases 25`
# draws as spreader case 18.  Over the residues mod 4, a word that doubled
# (w*a*w) for each short block outgrew the mask limit; f^4*a*w grows linearly.
FINITE_DEFECT_SPREAD_CASE = (
    "chart { pair 0 -> 1; pair 1 -> 4; piece (2 mod 4 from 0) -> (0 mod 2 from 3); "
    "piece (1 mod 2 from 1) -> (1 mod 4 from 4); piece (0 mod 4 from 1) -> (3 mod 4 from 2); }"
)


class TestDefectSpreader:
    def test_a_finite_defect_spread_stays_within_the_mask_limit(self):
        # In a subprocess, so that a slow spread fails the test instead of
        # hanging the run.
        code = (
            "import sys\n"
            "from ixm.cardinal import fin\n"
            "from ixm.chart import im_set, is_total, parse_chart\n"
            "from ixm.epset import NATURALS\n"
            "from ixm.partition_action import defect_spreader, mod_partition\n"
            "p = mod_partition(4)\n"
            "out = defect_spreader(p, parse_chart(sys.argv[1]))\n"
            "assert out.replay() == out.chart\n"
            "assert is_total(out.chart)\n"
            "missing = NATURALS.difference(im_set(out.chart))\n"
            "assert all(missing.intersect(b).card() >= fin(7) for b in p.blocks)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", code, FINITE_DEFECT_SPREAD_CASE],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 0, done.stderr

    def test_a_large_spread_finishes_in_time(self):
        # In a subprocess, so that a slow spread fails the test instead of
        # hanging the run.
        code = (
            "import sys\n"
            "from ixm.cardinal import ALEPH0\n"
            "from ixm.chart import im_set, parse_chart\n"
            "from ixm.epset import NATURALS\n"
            "from ixm.partition_action import defect_spreader, mod_partition\n"
            "p = mod_partition(4)\n"
            "out = defect_spreader(p, parse_chart(sys.argv[1]))\n"
            "assert out.replay() == out.chart\n"
            "missing = NATURALS.difference(im_set(out.chart))\n"
            "assert all(missing.intersect(b).card() == ALEPH0 for b in p.blocks)\n"
            "print(len(out.chart.pieces))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", code, SPREAD_CASE], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= 4_560
