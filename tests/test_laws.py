"""Every law suite at a small case count, pinned by its content hash.

The hash covers the suite name, seed, case count, number of checks executed
and every failure message, so a change that alters what any suite checks or
finds fails here.  Regenerate a pin only when a suite itself is changed on
purpose, and say why in CHANGES.md.
"""

import hashlib
from functools import partial

import pytest

from ixm import laws
from ixm.cardinal import ALEPH0, fin
from ixm.chart import (
    IDENTITY_CHART,
    bijection_between,
    compose,
    identity_on,
    invert,
    is_permutation,
    restrict,
    transposition,
)
from ixm.classes import DOUBLE, VARIANTS, in_class, render_class
from ixm.epset import NATURALS, from_finite, residue_class
from ixm.errors import ParameterError, ResourceGuardError
from ixm.finite_model import all_fcharts, fchart_collapse, fchart_defect, fchart_rank, sym_group
from ixm.laws import _FAIL_CAP, _Ctx, _lemma_checks, _pair_tag, run_suite, suite_names
from ixm.partition_action import (
    Word,
    _letter,
    all_relations,
    block_evader,
    block_shuffle,
    canonical_rel,
    mod_partition,
    rel_dom_full,
    rel_im_full,
    rel_is_perm,
    rho_of,
)
from ixm.sampling import make_rng
from ixm.ultrafilter import stabilises_filter

CASES = 25

PINS = {
    "chart-laws": "67bd709581c3",
    "closure-A": "48c1171ff82b",
    "closure-P": "7c8eae1c6e9d",
    "closure-S": "06c720a94d30",
    "closure-V": "2a548ead9ded",
    "duality": "40b629003362",
    "epset-laws": "a49b76c76932",
    "evader": "01fd613124dc",
    "excluding": "0271eff0dc68",
    "finite-classify": "a97293c6c265",
    "finite-classify-n2": "74582bd5c877",
    "finite-classify-n3": "e0ae3d1f64d7",
    "ideal-inverse": "375a6b803925",
    "lemma21": "6a9c4f6ec567",
    "lemma21-fin": "2648063a5c00",
    "meet": "6781755615e4",
    "minext": "874e2bbd9c24",
    "mutt-inj": "6d693d35b6fd",
    "nxn-n2": "03bd0fc6e7f0",
    "nxn-n3": "6fa9469282c1",
    "padding": "4b358c62f565",
    "rho-laws": "0cbdcbea4848",
    "sandwich": "294051312a70",
    "spreader": "12c65369c721",
    "ultra-axioms": "9fddb0ec71b1",
    "ultra-stab": "401ac6469e07",
    "v-forms": "842c52de0b56",
    "witnesses": "cea604249e03",
}


def test_every_suite_is_pinned():
    assert sorted(PINS) == suite_names()


@pytest.mark.parametrize("name", sorted(PINS))
def test_suite_hash(name):
    report = run_suite(name, seed=0, cases=CASES)
    assert report.ok, report.failures
    assert report.content_hash == PINS[name]


def test_the_witness_pairs_are_pinned():
    # The `witnesses` hash alone would miss a mistyped pair that still passes.
    def joined(pairs):
        return "\n".join(f"{render_class(a)} | {render_class(b)}" for a, b in pairs)

    separated, refused = laws._witness_pairs()
    digest = hashlib.sha256(f"{joined(separated)}\n--\n{joined(refused)}".encode()).hexdigest()
    assert (len(separated), len(refused)) == (73, 22)
    assert digest == "e4e8efb0f3b9c13aadadefde9d89146e0ee1a369ecbb643b7de315fd0536f29e"


def test_the_ultra_stab_keeper_moves_points_yet_fixes_an_accepted_class(monkeypatch):
    calls = []

    def recorded(uf, f):
        calls.append((uf, f))
        return stabilises_filter(uf, f)

    monkeypatch.setattr(laws, "stabilises_filter", recorded)
    cases = 10
    assert run_suite("ultra-stab", seed=0, cases=cases).ok
    # Each case asks about its random chart, then about its keeper.
    assert len(calls) == 2 * cases
    for uf, keeper in calls[1::2]:
        fixed = residue_class(uf.residue_at(2), 2)
        assert is_permutation(keeper) and keeper != IDENTITY_CHART
        assert restrict(keeper, fixed) == identity_on(fixed)


def test_chart_laws_see_a_wrong_point_past_every_other_threshold(monkeypatch):
    # An image with one point too many, far past the thresholds of the set,
    # the domain and the image: the window must reach it.
    real = laws.image_of_set
    monkeypatch.setattr(laws, "image_of_set", lambda f, s: real(f, s).union(from_finite([700])))
    assert run_suite("chart-laws", seed=3, cases=200).failures


# -- The membership memo ------------------------------------------------------


def test_the_member_memo_answers_as_in_class(monkeypatch):
    monkeypatch.setattr(laws, "_MEMBER_CACHE", {})
    for f in laws._master_pool(make_rng(0)):
        for c in laws._CATALOG:
            assert laws._in(c, f) == in_class(c, f), (render_class(c), f)


def test_the_three_variants_of_a_class_share_one_memo_entry(monkeypatch):
    monkeypatch.setattr(laws, "_MEMBER_CACHE", {})
    plains = [c for c in laws._CATALOG if c.variant == "plain"]
    for f in laws._master_pool(make_rng(0)):
        for c in plains:
            before = len(laws._MEMBER_CACHE)
            for variant in VARIANTS:
                laws._in(c._replace(variant=variant), f)
            assert len(laws._MEMBER_CACHE) == before + 1, (render_class(c), f)


# -- Lemma 2.1 failure messages ------------------------------------------------
# The lemma suites word a failure only when a check fails.  These inputs fail
# on purpose; the expected strings are the ones the eagerly formatted
# messages read.  ``Deferred`` renders each message after all checks have run,
# so a message that read a loop variable late would name the wrong value.


class Deferred(_Ctx):
    def __init__(self):
        super().__init__()
        self.pending = []

    def check(self, cond, msg):
        self.executed += 1
        if not cond:
            if len(self.pending) < _FAIL_CAP:
                self.pending.append(msg)
            else:
                self.dropped += 1
        return bool(cond)

    def rendered(self):
        return [m() if callable(m) else str(m) for m in self.pending]


U, V = (0, None, None, None), (1, 2, None, None)
INT_TAG, INT_TAG_SWAPPED = "n=4 [0,_,_,_]*[1,2,_,_]", "n=4 [1,2,_,_]*[0,_,_,_]"
LEMMA_CASES = {
    "int-rank": (
        ((1, 3, 3), (2, 2, 2), (2, 2, 2), partial(_pair_tag, 4, U, V), (1, 2, 3, 4)),
        4,
        [
            f"{INT_TAG}: rank exceeds a factor",
            f"{INT_TAG}: collapse outside [c(f), c(f)+c(g)]",
            f"{INT_TAG}: defect lost the 3 bound",
        ],
    ),
    "int-mu": (
        ((4, 0, 0), (2, 2, 2), (3, 1, 1), partial(_pair_tag, 4, V, U), (1, 2, 3, 4)),
        6,
        [
            f"{INT_TAG_SWAPPED}: rank exceeds a factor",
            f"{INT_TAG_SWAPPED}: defect outside [d(g), d(f)+d(g)]",
            f"{INT_TAG_SWAPPED}: collapse not additive despite d(f)=0",
            f"{INT_TAG_SWAPPED}: collapse lost the 2 bound",
        ],
    ),
    "card-rank": (
        (
            (fin(2), ALEPH0, fin(0)),
            (ALEPH0, fin(0), fin(0)),
            (ALEPH0, ALEPH0, fin(0)),
            partial("case {}".format, 7),
            (fin(1), ALEPH0),
        ),
        5,
        ["case 7: rank exceeds a factor"],
    ),
    "card-mu": (
        (
            (ALEPH0, fin(0), fin(0)),
            (ALEPH0, ALEPH0, fin(0)),
            (ALEPH0, fin(1), fin(0)),
            partial("case {}".format, 12),
            (fin(1), ALEPH0),
        ),
        6,
        [
            "case 12: collapse not additive despite d(f)=0",
            "case 12: collapse lost the Card('aleph0') bound",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(LEMMA_CASES))
@pytest.mark.parametrize("ctx_type", [_Ctx, Deferred])
def test_lemma_failure_messages(case, ctx_type):
    args, executed, want = LEMMA_CASES[case]
    ctx = ctx_type()
    _lemma_checks(ctx, *args)
    got = ctx.rendered() if ctx_type is Deferred else ctx.failures
    assert (ctx.executed, got) == (executed, want)


def test_lemma21_fin_names_each_failing_pair(monkeypatch):
    # A product that is always the identity has rank n, more than any
    # rank-deficient factor, so the suite fails from the first pair on.
    monkeypatch.setattr(laws, "fchart_compose", lambda u, v: tuple(range(len(u))))
    ctx = Deferred()
    laws._suite_lemma21_fin(ctx, None, 0)
    got = ctx.rendered()
    assert (ctx.executed, len(got), ctx.dropped) == (183_017, 20, 170_721)
    assert got[:3] == [
        "n=3 [_,_,_]*[_,_,_]: rank exceeds a factor",
        "n=3 [_,_,_]*[_,_,_]: collapse outside [c(f), c(f)+c(g)]",
        "n=3 [_,_,_]*[_,_,_]: defect outside [d(g), d(f)+d(g)]",
    ]
    assert got[-1] == "n=3 [_,_,_]*[_,0,1]: rank exceeds a factor"


def eager_lemma21_fin(ctx):
    """Every check on every pair, as ``lemma21-fin`` words them."""
    for n in (3, 4):
        universe = all_fcharts(n)
        rcd = {u: (fchart_rank(u), fchart_collapse(u), fchart_defect(u)) for u in universe}
        for u in universe:
            for v in universe:
                h = laws.fchart_compose(u, v)
                tag = partial(_pair_tag, n, u, v)
                mus = tuple(range(1, n + 1))
                _lemma_checks(ctx, rcd[u], rcd[v], rcd[h], tag, mus)


def test_lemma21_fin_decides_each_key_once_yet_names_the_one_bad_pair(monkeypatch):
    # The product is wrong at one pair only, so its key is seen at no other
    # pair, while the true key of that pair passes at many others.
    true_product = laws.fchart_compose

    def wrong_once(u, v):
        return tuple(range(len(u))) if (u, v) == (U, V) else true_product(u, v)

    monkeypatch.setattr(laws, "fchart_compose", wrong_once)
    memo, eager = Deferred(), Deferred()
    laws._suite_lemma21_fin(memo, None, 0)
    eager_lemma21_fin(eager)
    got = memo.rendered()
    assert (memo.executed, got, memo.dropped) == (eager.executed, eager.rendered(), eager.dropped)
    assert got == [
        f"{INT_TAG}: rank exceeds a factor",
        f"{INT_TAG}: collapse outside [c(f), c(f)+c(g)]",
        f"{INT_TAG}: defect outside [d(g), d(f)+d(g)]",
        f"{INT_TAG}: defect lost the 3 bound",
    ]


def test_nxn_n3_checks_the_first_pair_of_each_class_pair(monkeypatch):
    rels = all_relations(3)
    rhos = [r for r in rels if rel_dom_full(r) and not rel_is_perm(r)]
    sigmas = [r for r in rels if rel_im_full(r) and not rel_is_perm(r)]
    canon = {r: canonical_rel(r) for r in rhos + sigmas}
    reps = {}
    for rho in rhos:
        for sigma in sigmas:
            reps.setdefault((canon[rho], canon[sigma]), (rho, sigma))
    checked = []

    def record(n, rho, sigma):
        checked.append((n, rho, sigma))
        return True

    monkeypatch.setattr(laws, "nxn_closure_check", record)
    laws._suite_nxn_n3(_Ctx(), make_rng(0), 0)
    assert checked == [(3, rho, sigma) for rho, sigma in reps.values()]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("group", ["ideal", "sym"])
def test_check_conditions_passes_where_predictions_exist(n, group):
    rep = laws.check_conditions(n, group_gens=sym_group(n) if group == "sym" else None)
    assert rep.n == n and rep.ok and len(rep.results) == 4


@pytest.mark.parametrize(
    "n, error",
    [(-1, ParameterError), (0, ParameterError), (1, ParameterError), (5, ParameterError),
     (6, ResourceGuardError), (12, ResourceGuardError)],
)
def test_check_conditions_refuses_before_building_the_reference(n, error, monkeypatch):
    def built(*args):
        raise AssertionError("built the reference semigroup before checking n")

    monkeypatch.setattr(laws, "strict_ideal", built)
    monkeypatch.setattr(laws, "fchart_closure", built)
    for gens in (None, [tuple(range(max(n, 0)))]):
        with pytest.raises(error, match="predictions exist only for ground sets 2 to 4"):
            laws.check_conditions(n, group_gens=gens)


# -- Guard refusals and the word checker ----------------------------------------


def test_attempt_records_a_guard_refusal_as_one_failure():
    def refuse():
        raise ResourceGuardError("period 2097152 exceeds the mask limit")

    ctx = _Ctx()
    assert ctx.attempt("case 18", refuse) is None
    assert ctx.executed == 1
    assert ctx.failures == ["case 18: resource guard: period 2097152 exceeds the mask limit"]


def _accepted(p, word, gens):
    """The two checks that the spreader and evader suites make of a word."""
    return word.replay() == word.chart and laws._word_ok(p, word, gens)


def test_the_word_checker_rejects_a_changed_word():
    p = mod_partition(2)
    g = invert(bijection_between(residue_class(0, 2), NATURALS))
    gens = {"gen": DOUBLE, "g": g, "h": invert(g)}
    word = block_evader(p, DOUBLE, g, invert(g))
    assert _accepted(p, word, gens)
    first, second, *rest = word.letters
    assert first[1] != second[1]
    assert not _accepted(p, Word((second, first, *rest), word.chart), gens)
    assert not _accepted(p, Word((first, *rest), word.chart), gens)
    # A permutation of the blocks up to two points: its block relation is a
    # permutation, yet it maps no block onto a block.
    outside = compose(block_shuffle(p, (1, 0)), transposition(0, 1))
    assert is_permutation(outside) and rel_is_perm(rho_of(p, outside))
    assert not _accepted(p, word + _letter("stab", outside), gens)
