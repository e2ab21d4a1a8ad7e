"""Brute-force universe of partial injections on a finite ground set."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ixm
from ixm import finite_model
from ixm.errors import InternalError, ParameterError, ResourceGuardError
from ixm.finite_model import (
    _set_key,
    all_fcharts,
    completeness_search,
    fchart_closure,
    fchart_collapse,
    fchart_compose,
    fchart_defect,
    fchart_dom,
    fchart_im,
    fchart_invert,
    fchart_rank,
    identity_fchart,
    injective_mutt_membership,
    is_closed,
    is_fchart,
    is_inverse_closed,
    is_maximal,
    is_transversal,
    low_rank_ideal,
    maximal_subgroups,
    minimal_extension,
    mutt_products,
    parse_fchart,
    partial_identities,
    predicted_finite_maximals,
    render_fchart,
    strict_ideal,
    sym_group,
)
from ixm.sampling import make_rng, random_fchart, random_nonempty_fchart

SRC = str(Path(ixm.__file__).resolve().parent.parent)


def compose(u, v):
    """Pointwise product u*v (u first), independent of the library's kernel."""
    return tuple(v[e] if e is not None else None for e in u)


def naive_closure(gens):
    """Multiply every element by every other until nothing new appears."""
    elements = set(gens)
    while True:
        fresh = {compose(a, b) for a in elements for b in elements} - elements
        if not fresh:
            return elements
        elements |= fresh


def close_over(base, gens, stop=None):
    """``finite_model._close`` from the closed ``base`` by ``gens``, with the
    padded maps and rows prepared as ``is_maximal`` prepares them."""
    elements = set(base)
    new = [g for g in dict.fromkeys(gens) if g not in elements]
    multipliers = [*elements, *new]
    elements.update(new)
    padded = [g + (None,) for g in multipliers]
    rows = [finite_model._row(g) for g in multipliers]
    return finite_model._close(elements, new, padded, rows, len(multipliers) - len(new), stop)


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 3))
    return draw(st.lists(st.sampled_from(all_fcharts(n)), min_size=1, max_size=4))


def sizes(families):
    return sorted(len(f.elements) for f in families)


class TestElementArithmetic:
    def test_compose_left_to_right(self):
        u = (1, None, 0)
        v = (2, 1, 0)
        assert fchart_compose(u, v) == (1, None, 2)

    def test_invert(self):
        assert fchart_invert((1, None, 0)) == (2, 0, None)
        assert fchart_invert((None, None)) == (None, None)

    def test_dom_im_rank(self):
        u = (2, None, 0)
        assert fchart_dom(u) == {0, 2}
        assert fchart_im(u) == {0, 2}
        assert fchart_rank(u) == 2
        assert fchart_collapse(u) == 1
        assert fchart_defect(u) == 1

    def test_is_fchart(self):
        assert is_fchart((1, None, 0))
        assert not is_fchart((1, 1, None))  # repeated image point
        assert not is_fchart((3, None, None))  # out of range
        assert not is_fchart([1, None])  # wrong container

    def test_compose_invert_gives_partial_identity(self):
        rng = make_rng(3)
        for _ in range(200):
            u = random_fchart(rng, 4)
            p = fchart_compose(u, fchart_invert(u))
            assert p == tuple(
                x if x in fchart_dom(u) else None for x in range(4)
            )


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 7), (3, 34), (4, 209)])
    def test_universe_sizes(self, n, count):
        # |I_n| = sum over k of C(n,k)^2 k!
        assert len(all_fcharts(n)) == count
        assert len(set(all_fcharts(n))) == count
        assert all(is_fchart(u) and len(u) == n for u in all_fcharts(n))

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            all_fcharts(8)

    def test_sym_group(self):
        assert len(sym_group(3)) == 6
        assert identity_fchart(3) in sym_group(3)

    def test_ideals(self):
        assert low_rank_ideal(3, 1) == {
            u for u in all_fcharts(3) if fchart_rank(u) <= 1
        }
        assert strict_ideal(3) == set(all_fcharts(3)) - set(sym_group(3))

    def test_partial_identities(self):
        ids = partial_identities(3)
        assert len(ids) == 8
        assert all(fchart_compose(e, e) == e for e in ids)
        assert identity_fchart(3) in ids and (None, None, None) in ids

    def test_strict_ideal_is_an_ideal(self):
        # Exhaustive: products with a rank-deficient factor stay deficient.
        for n in (2, 3):
            ideal = strict_ideal(n)
            for f in all_fcharts(n):
                for g in ideal:
                    assert fchart_compose(f, g) in ideal
                    assert fchart_compose(g, f) in ideal


class TestRowKernel:
    """``_row(u)`` applied to ``v + (None,)`` must be the product u*v."""

    @staticmethod
    def agrees(pairs):
        return all(finite_model._row(u)(v + (None,)) == compose(u, v) for u, v in pairs)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_every_pair_of_partial_maps(self, n):
        universe = all_fcharts(n)
        assert self.agrees(itertools.product(universe, universe))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair_of_total_maps(self, n):
        universe = list(itertools.product(range(n), repeat=n))
        assert self.agrees(itertools.product(universe, universe))

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_random_pairs(self, n):
        rng = make_rng(n)
        charts = [(random_fchart(rng, n), random_fchart(rng, n)) for _ in range(300)]
        maps = [
            tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(2))
            for _ in range(300)
        ]
        assert self.agrees(charts) and self.agrees(maps)

    def test_one_point_rows_are_tuples(self):
        # A one-index itemgetter would return the item itself.
        assert finite_model._row((0,))((None, None)) == (None,)
        assert finite_model._row((None,))((0, None)) == (None,)
        assert finite_model._row(())((None,)) == ()

    @pytest.mark.parametrize("n", [0, 1])
    def test_closures_on_tiny_ground_sets(self, n):
        universe = set(all_fcharts(n))
        for u in universe:
            assert fchart_closure([u]) == naive_closure([u])
        assert is_closed(universe)
        assert fchart_closure(universe) == universe


class TestClosure:
    def test_identity_alone(self):
        e = identity_fchart(3)
        assert fchart_closure([e]) == {e}

    def test_symmetric_group_from_two_generators(self):
        swap = (1, 0, 2)
        cycle = (1, 2, 0)
        assert fchart_closure([swap, cycle]) == set(sym_group(3))

    def test_permutations_plus_corank_one_generate_everything(self):
        gens = list(sym_group(3)) + [(1, 0, None)]
        assert len(fchart_closure(gens)) == 34

    def test_the_closure_bound_counts_elements_times_points(self, monkeypatch):
        gens = [(1, 0, 2), (1, 2, 0)]
        monkeypatch.setattr(finite_model, "MAX_CLOSURE_CELLS", 6 * 3)
        assert fchart_closure(gens) == set(sym_group(3))
        monkeypatch.setattr(finite_model, "MAX_CLOSURE_CELLS", 6 * 3 - 1)
        with pytest.raises(ResourceGuardError, match="closure passes 17 entries"):
            fchart_closure(gens)

    def test_the_largest_listed_monoid_closes_and_s9_is_refused(self):
        # I_7 has 130,922 elements on 7 points; S_9 has 362,880 on 9.
        gens = [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0), (None, 1, 2, 3, 4, 5, 6)]
        assert len(fchart_closure(gens)) == len(all_fcharts(7)) == 130922
        with pytest.raises(ResourceGuardError):
            fchart_closure([(1, 0, *range(2, 9)), (*range(1, 9), 0)])

    def test_benchmark_generators_give_the_whole_monoid(self):
        # A 4-cycle, an adjacent transposition and a rank-3 partial identity.
        gens = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 1, 2, None)]
        assert fchart_closure(gens) == set(all_fcharts(4))

    @settings(max_examples=150, deadline=None)
    @given(generator_sets())
    def test_matches_naive_fixed_point(self, gens):
        assert fchart_closure(gens) == naive_closure(gens)

    @settings(max_examples=100, deadline=None)
    @given(generator_sets(), st.data())
    def test_closed_base_and_early_stop(self, gens, data):
        base = fchart_closure(gens)
        x = data.draw(st.sampled_from(all_fcharts(len(gens[0]))))
        want = naive_closure(base | {x})
        assert close_over(base, [x]) == want
        assert close_over(base, [x], stop=len(want)) == want
        # One element past the base is reached before any product is formed.
        part = close_over(base, [x], stop=len(base) + 1)
        assert part == base | {x}

    @settings(max_examples=60, deadline=None)
    @given(generator_sets(), st.data())
    def test_each_product_is_formed_once(self, gens, data):
        # In the first round two generators multiply on one side only; from
        # then on every new element meets every generator on both sides.
        base = fchart_closure(data.draw(st.lists(st.sampled_from(gens), max_size=2)))
        calls = 0
        row = finite_model._row

        def counting_row(u):
            product = row(u)

            def counted(pv):
                nonlocal calls
                calls += 1
                return product(pv)

            return counted

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finite_model, "_row", counting_row)
            got = close_over(base, gens)
        assert got == naive_closure(set(gens) | base)
        k = len(set(gens) - base)
        b = len(base)
        assert calls == k * (k + 2 * b) + 2 * (k + b) * (len(got) - k - b)

    @pytest.mark.parametrize(
        "gens, sizes",
        [
            ([(0, 1), (0, 1, 2)], "2 and 3"),
            ([(0,), (1, 0)], "1 and 2"),
        ],
    )
    def test_maps_on_different_ground_sets_are_refused(self, gens, sizes):
        with pytest.raises(ParameterError, match=sizes):
            fchart_closure(gens)

    def test_is_closed(self):
        assert is_closed(sym_group(3))
        assert not is_closed([(1, 0, 2), (1, 2, 0)])

    @settings(max_examples=150, deadline=None)
    @given(generator_sets())
    def test_is_closed_matches_pointwise_products(self, elements):
        want = all(compose(a, b) in elements for a in elements for b in elements)
        assert is_closed(elements) == want
        assert is_closed(naive_closure(elements))

    def test_is_closed_on_large_sets(self):
        # Sets of 100 or more maps on 4 points, with and without the identity,
        # against every pointwise product.
        rng = make_rng(31)
        universe = all_fcharts(4)
        e = identity_fchart(4)
        sets = [strict_ideal(4), *(f.elements for f in predicted_finite_maximals(4))]
        sets += [
            c for c in (fchart_closure(rng.sample(universe, 3)) for _ in range(8)) if len(c) >= 100
        ]
        sets += [m - {rng.choice(sorted(m, key=render_fchart))} for m in list(sets)]
        sets += [frozenset(rng.sample(universe, rng.randint(100, 200))) for _ in range(4)]
        verdicts = []
        for s in [s | {e} for s in sets] + [s - {e} for s in sets]:
            assert len(s) >= 100
            want = all(compose(a, b) in s for a in s for b in s)
            assert is_closed(s) == want
            verdicts.append(want)
        assert 5 <= sum(verdicts) <= len(verdicts) - 5

    def test_all_partial_injections_on_six_points_close_in_time(self):
        # Every member as a generator would form 13,327^2 products; the span
        # keeps only the generators it needs.  In a subprocess, so that a slow
        # closure fails the test instead of holding up the run.
        code = (
            "from ixm.finite_model import all_fcharts, fchart_closure\n"
            "print(len(fchart_closure(all_fcharts(6))))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == len(all_fcharts(6)) == 13327

    def test_is_inverse_closed(self):
        assert is_inverse_closed(sym_group(4))
        assert not is_inverse_closed([(1, None, None)])


class TestMinimalExtension:
    def test_forced_singleton_image(self):
        assert minimal_extension((1, None)) == (1, 1)

    def test_total_map_is_its_own_extension(self):
        rng = make_rng(7)
        for _ in range(100):
            u = random_fchart(rng, 4)
            if fchart_rank(u) == 4:
                assert minimal_extension(u) == u

    def test_forced_constant(self):
        assert minimal_extension((None, 0, None)) == (0, 0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            minimal_extension((None, None))

    def test_statistics_preserved_and_domain_is_transversal(self):
        rng = make_rng(11)
        for _ in range(300):
            u = random_nonempty_fchart(rng, 5)
            v = minimal_extension(u)
            assert len(set(v)) == fchart_rank(u)
            assert set(v) == fchart_im(u)
            assert all(v[x] == u[x] for x in fchart_dom(u))
            assert is_transversal(v, fchart_dom(u))


class TestMuttProducts:
    def test_identity_with_full_transversal(self):
        e = identity_fchart(3)
        assert mutt_products([e], {e: frozenset({0, 1, 2})}, 3) == {e}

    def test_image_outside_transversal_blocks_chaining(self):
        v = (0, 0)
        # {1} is a transversal of v but does not contain im(v) = {0}.
        assert mutt_products([v], {v: frozenset({1})}, 3) == {v}

    def test_non_transversal_rejected(self):
        v = (0, 0)
        with pytest.raises(ParameterError):
            mutt_products([v], {v: frozenset({0, 1})}, 2)

    def test_matches_word_enumeration(self):
        # Independent oracle: enumerate all words up to the length bound and
        # apply the chained image-in-transversal constraint directly.
        rng = make_rng(13)
        for _ in range(30):
            vs = []
            assignment = {}
            while len(vs) < 3:
                u = random_nonempty_fchart(rng, 4)
                v = minimal_extension(u)
                if v in assignment:
                    continue
                vs.append(v)
                assignment[v] = frozenset(fchart_dom(u))
            maxlen = 3
            want = set()
            for k in range(1, maxlen + 1):
                for word in itertools.product(vs, repeat=k):
                    prod = word[0]
                    ok = True
                    for nxt in word[1:]:
                        if not set(prod) <= assignment[nxt]:
                            ok = False
                            break
                        prod = tuple(nxt[e] for e in prod)
                    if ok:
                        want.add(prod)
            assert mutt_products(vs, assignment, maxlen) == want


class TestInjectiveMuttMembership:
    def test_identity(self):
        ok, bad = injective_mutt_membership([identity_fchart(3)])
        assert ok and not bad

    def test_full_symmetric_group(self):
        ok, bad = injective_mutt_membership(list(sym_group(3)))
        assert ok and not bad

    def test_random_families(self):
        rng = make_rng(17)
        for _ in range(40):
            us = {random_nonempty_fchart(rng, 4) for _ in range(rng.randint(1, 4))}
            ok, bad = injective_mutt_membership(us, maxlen=3)
            assert ok, bad

    def test_rejects_empty_or_rankless(self):
        with pytest.raises(ParameterError):
            injective_mutt_membership([])
        with pytest.raises(ParameterError):
            injective_mutt_membership([(None, None)])


class TestMaximality:
    def test_permutations_plus_corank2_is_maximal(self):
        m = set(sym_group(3)) | low_rank_ideal(3, 1)
        assert is_maximal(m, 3)

    def test_small_group_plus_empty_is_not_maximal(self):
        m = set(sym_group(3)) | {(None, None, None)}
        assert not is_maximal(m, 3)

    def test_unclosed_candidate_rejected(self):
        m = set(all_fcharts(3)) - {identity_fchart(3)}
        with pytest.raises(ParameterError):
            is_maximal(m, 3)

    def test_whole_monoid_rejected(self):
        with pytest.raises(ParameterError):
            is_maximal(set(all_fcharts(2)), 2)

    def test_foreign_elements_rejected(self):
        with pytest.raises(ParameterError):
            is_maximal({(0, 1, 2, 3)}, 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_one_closure_per_missing_element(self, n):
        universe = frozenset(all_fcharts(n))
        sym = frozenset(sym_group(n))
        empty = (None,) * n
        predicted = [f.elements for f in predicted_finite_maximals(n)]
        # Closed sets that are maximal only for n = 2, if at all.
        others = [
            strict_ideal(n) | {identity_fchart(n)},
            sym | {empty},
            low_rank_ideal(n, n - 2),
        ]
        verdicts = []
        for m in predicted + others:
            assert is_closed(m)
            want = all(fchart_closure([*m, x]) == universe for x in universe - m)
            assert is_maximal(m, n) == want
            verdicts.append(want)
        assert all(verdicts[: len(predicted)])
        assert not all(verdicts[len(predicted):])

    @staticmethod
    def closes_to_everything(m, n):
        universe = frozenset(all_fcharts(n))
        return all(fchart_closure([*m, x]) == universe for x in universe - m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_subgroup_with_the_non_permutations(self, n):
        perms = sym_group(n)
        subgroups = {frozenset(naive_closure({g, h})) for g, h in itertools.combinations(perms, 2)}
        subgroups |= {frozenset(naive_closure({g})) for g in perms}
        subgroups.discard(frozenset(perms))
        verdicts = []
        for k in subgroups:
            m = k | strict_ideal(n)
            want = self.closes_to_everything(m, n)
            assert is_maximal(m, n) == want
            verdicts.append(want)
        assert len(subgroups) == {2: 1, 3: 5, 4: 29}[n]
        assert sum(verdicts) == len(maximal_subgroups(n))

    def test_a_maximal_subgroup_with_three_double_cosets(self):
        # S_2 x S_3 in S_5 has three double cosets, so one of its two outside
        # orbits is reached only through products with x twice or more.
        n = 5
        k = naive_closure({(1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 3, 4, 2)})
        m = k | strict_ideal(n)
        assert len(k) == 12 and is_maximal(m, n)
        assert self.closes_to_everything(m, n)

    @pytest.mark.parametrize(
        "m, n",
        [({(None,)}, 1), ({(0,)}, 1)]
        + [(low_rank_ideal(n, k), n) for n in (2, 3, 4) for k in range(n)]
        + [(low_rank_ideal(n, k) | {identity_fchart(n)}, n) for n in (2, 3, 4) for k in range(n)],
    )
    def test_candidates_with_few_or_no_units(self, m, n):
        # With no unit but the identity, or none at all, every missing
        # element is closed on its own.
        assert is_maximal(m, n) == self.closes_to_everything(m, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_closure_per_double_orbit_of_the_units(self, n, monkeypatch):
        close = finite_model._close
        closed = []

        def counting(elements, frontier, *rest):
            closed.append(frontier[0])
            return close(elements, frontier, *rest)

        monkeypatch.setattr(finite_model, "_close", counting)
        perms = sym_group(n)
        for fam in predicted_finite_maximals(n):
            m = fam.elements
            units = [u for u in perms if u in m]
            closed.clear()
            assert is_maximal(m, n)
            outside = [x for x in closed if x not in m]
            orbits = {
                frozenset(compose(compose(s, x), t) for s in units for t in units)
                for x in all_fcharts(n)
                if x not in m
            }
            assert len(outside) == len(orbits), fam.label
            assert all(sum(x in o for x in outside) == 1 for o in orbits), fam.label


class TestPredictions:
    def test_count_n2(self):
        fams = predicted_finite_maximals(2)
        assert len(fams) == 2
        assert {frozenset(f.elements) for f in fams} == {
            frozenset({(0, 1), (1, 0), (None, None)}),
            frozenset(all_fcharts(2)) - {(1, 0)},
        }

    def test_count_n3(self):
        # One corank family plus one per maximal subgroup (alternating group
        # and the three two-element groups).
        assert len(maximal_subgroups(3)) == 4
        assert len(predicted_finite_maximals(3)) == 5

    def test_count_n4(self):
        # Maximal subgroups of the degree-4 symmetric group: the alternating
        # group, three dihedral groups of order 8, four point stabilisers.
        groups = maximal_subgroups(4)
        assert sorted(len(g) for g in groups) == [6, 6, 6, 6, 8, 8, 8, 12]
        assert len(predicted_finite_maximals(4)) == 9

    @pytest.mark.parametrize(
        "n,orders", [(3, [2, 2, 2, 3]), (4, [6, 6, 6, 6, 8, 8, 8, 12])]
    )
    def test_maximal_subgroup_orders(self, n, orders):
        groups = maximal_subgroups(n)
        assert sorted(len(g) for g in groups) == orders
        assert all(is_closed(g) for g in groups)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_maximal_subgroups_close_each_unordered_pair_once(self, n, monkeypatch):
        perms = sym_group(n)
        closed = []

        def counting(gens):
            closed.append(frozenset(gens))
            return fchart_closure(gens)

        monkeypatch.setattr(finite_model, "fchart_closure", counting)
        groups = maximal_subgroups(n)
        assert len(closed) == len(set(closed)) == len(perms) * (len(perms) + 1) // 2
        # The same groups as closing every ordered pair and every singleton.
        subgroups = {frozenset(naive_closure({g, h})) for g in perms for h in perms}
        subgroups.add(frozenset({identity_fchart(n)}))
        proper = [s for s in subgroups if len(s) < len(perms)]
        want = [s for s in proper if not any(s < t for t in proper)]
        assert groups == sorted(want, key=lambda s: (-len(s), sorted(s)))

    def test_all_predictions_are_maximal(self):
        for n in (2, 3):
            for fam in predicted_finite_maximals(n):
                assert is_maximal(fam.elements, n), fam.label
                assert is_inverse_closed(fam.elements), fam.label

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            predicted_finite_maximals(1)
        with pytest.raises(ParameterError):
            predicted_finite_maximals(5)
        with pytest.raises(ResourceGuardError):
            maximal_subgroups(5)


class TestCompletenessSearch:
    def test_exhaustive_n2(self):
        res = completeness_search(2)
        assert res.complete
        predicted = {f.elements for f in predicted_finite_maximals(2)}
        assert {frozenset(m) for m in res.maximal} == predicted
        # On a finite ground set the inverse-closed maximal families
        # coincide with the plain ones.
        assert {frozenset(m) for m in res.maximal_inverse} == predicted

    def test_search_n3(self):
        res = completeness_search(3)
        assert res.complete
        predicted = {f.elements for f in predicted_finite_maximals(3)}
        assert {frozenset(m) for m in res.maximal} == predicted

    def test_search_n4(self):
        res = completeness_search(4)
        assert res.complete and not res.note
        predicted = {f.elements for f in predicted_finite_maximals(4)}
        assert len(res.maximal) == 9
        assert set(res.maximal) == predicted

    def test_reduction_matches_powerset_oracle_n2(self):
        res = completeness_search(2)
        maximal, maximal_inverse = _complete_by_powerset(2)
        assert res.maximal == maximal
        assert res.maximal_inverse == maximal_inverse

    def test_unproven_candidate_is_an_internal_error(self, monkeypatch):
        # Below the group of units the closure of the other ranks is the
        # only candidate; if it were not maximal, the reduction would be
        # incomplete, and that is a fault of ixm.
        monkeypatch.setattr(finite_model, "is_maximal", lambda m, n: False)
        with pytest.raises(InternalError):
            completeness_search(3)

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            completeness_search(5)
        for n in (0, 1):
            with pytest.raises(ParameterError):
                completeness_search(n)


def _complete_by_powerset(n):
    """Reference oracle: every subset of the monoid, kept when closed.

    Returns the maximal proper closed subsets and the maximal proper closed
    inverse-closed subsets, each sorted as ``completeness_search`` sorts
    them.  There are 2**|I_n| subsets, so this is for n = 2 only."""
    universe = list(all_fcharts(n))
    size = len(universe)

    def subset(mask):
        return frozenset(universe[i] for i in range(size) if mask >> i & 1)

    def maximal(masks):
        return sorted(
            (subset(m) for m in masks if not any(m != o and m & o == m for o in masks)),
            key=_set_key,
        )

    proper = []
    for mask in range((1 << size) - 1):
        s = subset(mask)
        if all(compose(a, b) in s for a in s for b in s):
            proper.append(mask)
    inverse = [m for m in proper if is_inverse_closed(subset(m))]
    return maximal(proper), maximal(inverse)


class TestInverseIntersection:
    def test_intersection_with_inverses_is_largest_inverse_part(self):
        # For sampled closed families M, the two-sided intersection is a
        # composition- and inverse-closed subsemigroup containing every
        # inverse-closed subsemigroup of M.
        rng = make_rng(23)
        universe = all_fcharts(3)
        for _ in range(25):
            gens = [rng.choice(universe) for _ in range(rng.randint(1, 3))]
            m = fchart_closure(gens)
            w = m & {fchart_invert(u) for u in m}
            if w:
                assert is_closed(w)
                assert is_inverse_closed(w)
            for _ in range(10):
                sub = [u for u in m if rng.random() < 0.3]
                v = fchart_closure(sub + [fchart_invert(u) for u in sub]) if sub else set()
                if v and v <= m:
                    assert v <= w


class TestText:
    def test_render(self):
        assert render_fchart((1, None, 0)) == "[1,_,0]"
        assert render_fchart((None,)) == "[_]"

    def test_round_trip(self):
        rng = make_rng(29)
        for _ in range(100):
            u = random_fchart(rng, 5)
            assert parse_fchart(render_fchart(u)) == u

    def test_parse_rejects(self):
        from ixm.errors import ParseError

        for bad in ["", "[", "1,2", "[1,1]", "[2]", "[x]"]:
            with pytest.raises((ParseError, ParameterError)):
                parse_fchart(bad)
