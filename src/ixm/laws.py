"""Seeded law suites: randomised and exhaustive checks over the whole stack.

Every suite draws its samples from a deterministic generator, checks a
bundle of algebraic laws, and returns a report carrying the number of
checks executed, the failures (capped), and a content hash so that two
runs with the same seed can be compared byte-for-byte.

``run_suite`` executes one suite by name; ``suite_names`` lists them;
``check_conditions`` audits a finite candidate family against the
structural conditions that a classification must satisfy.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import product, repeat
from math import lcm
from operator import and_, or_

from .cardinal import ALEPH0, ALEPH1, Card, fin
from .chart import (
    Chart,
    EMPTY_CHART,
    IDENTITY_CHART,
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
    preimage_of_set,
    restrict,
    stats,
    transposition,
    sandwich_factorize,
    render_chart,
    parse_chart,
)
from .classes import (
    DOUBLE,
    HALVE,
    SHIFT,
    ClassId,
    class_sides,
    dual_class,
    excluding_maximal,
    in_class,
    in_class_v_alt,
    in_F_ideal,
    pick_side,
    render_class,
    separating_witness,
)
from .epset import (
    EMPTY,
    EPSet,
    NATURALS,
    Prog,
    from_finite,
    from_prog,
    parse_epset,
    progs_intersect,
    render_epset,
    residue_class,
)
from .errors import InternalError, ParameterError, ResourceGuardError, UnsupportedWitnessError
from .finite_model import (
    all_fcharts,
    completeness_search,
    fchart_collapse,
    fchart_compose,
    fchart_defect,
    fchart_dom,
    fchart_im,
    fchart_invert,
    fchart_rank,
    fchart_closure,
    ftrans_collapse,
    ftrans_defect,
    ftrans_rank,
    identity_fchart,
    injective_mutt_membership,
    is_closed,
    is_injective_ftrans,
    is_inverse_closed,
    is_maximal,
    is_transversal,
    minimal_extension,
    partial_identities,
    predicted_finite_maximals,
    render_fchart,
    strict_ideal,
)
from .partition_action import (
    BinRel,
    FinPartition,
    all_relations,
    almost_block_stabilises,
    block_evader,
    block_shuffle,
    block_stabilises,
    canonical_rel,
    defect_spreader,
    mod_partition,
    nxn_closure_check,
    padding_perm,
    perm_rel,
    rel_compose,
    rel_converse,
    rel_dom_full,
    rel_identity,
    rel_im_full,
    rel_is_perm,
    render_partition,
    rho_of,
)
from .sampling import (
    make_rng,
    random_epset,
    random_mixed,
    random_moiety,
    random_nonempty_fchart,
    random_partial_identity,
    random_partition,
    random_permutation,
    random_prog,
    random_total,
    random_tower,
    sample_in_class,
)
from .ultrafilter import (
    Principal,
    ZERO_TOWER,
    is_principal,
    make_tower,
    parse_uf,
    render_uf,
    stabilises_filter,
    uf_contains,
    uf_min,
)

_FAIL_CAP = 20


# -- Reports -----------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run."""

    name: str
    seed: int
    cases: int
    executed: int
    failures: tuple[str, ...]
    dropped_failures: int
    elapsed_ms: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures and not self.dropped_failures

    @property
    def content_hash(self) -> str:
        payload = "|".join(
            (
                self.name,
                str(self.seed),
                str(self.cases),
                str(self.executed),
                str(self.dropped_failures),
                "//".join(self.failures),
                self.note,
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def summary(self) -> str:
        verdict = "pass" if self.ok else "FAIL"
        extra = f"(+{self.dropped_failures} dropped)" if self.dropped_failures else ""
        return (
            f"{verdict} suite={self.name} seed={self.seed} cases={self.cases} "
            f"executed={self.executed} failures={len(self.failures)}{extra} "
            f"elapsed_ms={self.elapsed_ms} hash={self.content_hash}"
        )


class _Ctx:
    """Collects check results; failures beyond the cap are only counted."""

    def __init__(self):
        self.executed = 0
        self.failures: list[str] = []
        self.dropped = 0

    def check(self, cond: bool, msg) -> bool:
        self.executed += 1
        if not cond:
            if len(self.failures) < _FAIL_CAP:
                self.failures.append(msg() if callable(msg) else str(msg))
            else:
                self.dropped += 1
        return bool(cond)

    def equal(self, got, want, label: str) -> bool:
        return self.check(
            got == want, lambda: f"{label}: got {got!r}, want {want!r}"
        )

    def attempt(
        self, prefix: str, fn, *args, errors=(ParameterError, InternalError, ResourceGuardError)
    ):
        """fn(*args), or None after one failed check worded "prefix: error"
        if it raises one of ``errors``, by default a guard's refusal too."""
        try:
            return fn(*args)
        except errors as e:
            guard = "resource guard: " if isinstance(e, ResourceGuardError) else ""
            self.check(False, f"{prefix}: {guard}{e}")
            return None

    def refuses(self, msg: str, fn, *args) -> None:
        """One check that fn(*args) raises ParameterError; ``msg`` words its
        failure.  Any other exception propagates."""
        try:
            fn(*args)
            self.check(False, msg)
        except ParameterError:
            self.check(True, "rejected")


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise ParameterError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    fn, dflt = _SUITES[name]
    n = dflt if cases is None else cases
    if n < 0:
        raise ParameterError("cases must be non-negative")
    salt = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    rng = make_rng(seed ^ salt)
    ctx = _Ctx()
    t0 = time.perf_counter()
    note = fn(ctx, rng, n) or ""
    elapsed = int((time.perf_counter() - t0) * 1000)
    return SuiteReport(
        name=name,
        seed=seed,
        cases=n,
        executed=ctx.executed,
        failures=tuple(ctx.failures),
        dropped_failures=ctx.dropped,
        elapsed_ms=elapsed,
        note=note,
    )


# -- Shared fixtures ----------------------------------------------------------------

# `class_sides` pairs keyed by the class less its variant: one per variant triple.
_MEMBER_CACHE: dict = {}


def _in(c: ClassId, f: Chart) -> bool:
    key = (c.family, c.mu, c.gamma, c.uf, c.partition, f)
    sides = _MEMBER_CACHE.get(key)
    if sides is None:
        sides = class_sides(c, f)
        if len(_MEMBER_CACHE) < 400_000:
            _MEMBER_CACHE[key] = sides
    return pick_side(c.variant, sides)


EVENS = residue_class(0, 2)
ODDS = residue_class(1, 2)
GAMMA = from_finite([0, 2])
PARITY_SWAP = make_chart(
    (), (Piece(Prog(0, 2), Prog(1, 2)), Piece(Prog(1, 2), Prog(0, 2)))
)
PARITY_DOUBLE = make_chart(
    (), (Piece(Prog(0, 2), Prog(0, 4)), Piece(Prog(1, 2), Prog(3, 4)))
)
TOWER_2MOD4 = make_tower(((2, 2, 2),))
TOWER_1MOD2 = make_tower(((2, 1, 1),))


def _class_catalog() -> tuple[ClassId, ...]:
    out = []
    for variant in ("plain", "inverse", "meet"):
        for mu in (fin(1), ALEPH0):
            out.append(ClassId("S", variant, mu=mu))
        for mu in (ALEPH0, ALEPH1):
            out.append(ClassId("P", variant, mu=mu, gamma=GAMMA))
        for mu in (ALEPH0, ALEPH1):
            out.append(ClassId("V", variant, mu=mu, uf=ZERO_TOWER))
        for n in (2, 3):
            out.append(ClassId("A", variant, partition=mod_partition(n)))
    return tuple(out)


_CATALOG = _class_catalog()


def _stock_charts() -> list[Chart]:
    return [
        IDENTITY_CHART,
        EMPTY_CHART,
        DOUBLE,
        HALVE,
        SHIFT,
        invert(SHIFT),
        PARITY_SWAP,
        PARITY_DOUBLE,
        invert(PARITY_DOUBLE),
        block_shuffle(mod_partition(4), (0, 2, 1, 3)),
        identity_on(EVENS),
        identity_on(ODDS),
        identity_on(residue_class(0, 3)),
        transposition(0, 1),
        make_chart(((0, 1), (1, 0)), (Piece(Prog(2, 1), Prog(2, 1)),)),
        bijection_between(EVENS, NATURALS),
        invert(bijection_between(EVENS, NATURALS)),
        make_chart((), (Piece(Prog(1, 1), Prog(2, 2)),)),
        compose(DOUBLE, DOUBLE),
        chart_union(identity_on(GAMMA), bijection_between(
            NATURALS.difference(GAMMA), NATURALS.difference(GAMMA).split(2)[0]
        )),
    ]


def _master_pool(rng, extra: int = 40) -> list[Chart]:
    pool = list(_stock_charts())
    for c in _CATALOG:
        try:
            pool.append(sample_in_class(rng, c))
        except ParameterError:
            pass
    for _ in range(extra):
        pool.append(random_mixed(rng))
    seen = set()
    out = []
    for f in pool:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def _members(rng, c: ClassId, pool) -> list[Chart]:
    ms = [f for f in pool if _in(c, f)]
    tries = 0
    while len(ms) < 12 and tries < 200:
        tries += 1
        f = sample_in_class(rng, c)
        if f not in ms:
            ms.append(f)
    return ms


def _charts_agree(a: Chart, b: Chart) -> bool:
    for x in range(240):
        if apply_chart(a, x) != apply_chart(b, x):
            return False
    return dom_set(a) == dom_set(b)


def _finite_rank_chart(rng) -> Chart:
    n = rng.randrange(0, 6)
    xs = rng.sample(range(20), n)
    ys = rng.sample(range(20), n)
    return make_chart(tuple(zip(xs, ys)), ())


def _window(*sets: EPSet) -> int:
    """Points to check so that the sets agree everywhere once they agree
    below it: past the widest threshold by a common period, and never
    below three times the widest threshold or period, plus 24."""
    widest = max(max(s.threshold, s.period) for s in sets)
    settled = max(s.threshold for s in sets) + lcm(*(s.period for s in sets))
    return max(3 * widest, settled) + 24


# -- Composition statistics (threshold lemma) ----------------------------------------


def _lemma_checks(ctx, f, g, h, tag, mus):
    """Lemma 2.1 on one product h = f*g, each given as (rank, collapse,
    defect) in ints or in Cards, which share the native order and ``+``.
    ``tag`` is called only to word a failure."""
    (rf, cf, df), (rg, cg, dg), (rh, ch, dh) = f, g, h
    ctx.check(rh <= rf and rh <= rg, lambda: f"{tag()}: rank exceeds a factor")
    ctx.check(
        cf <= ch <= cf + cg,
        lambda: f"{tag()}: collapse outside [c(f), c(f)+c(g)]",
    )
    ctx.check(
        dg <= dh <= df + dg,
        lambda: f"{tag()}: defect outside [d(g), d(f)+d(g)]",
    )
    zero = fin(0) if isinstance(cf, Card) else 0
    if df == zero:
        ctx.check(
            ch == cf + cg, lambda: f"{tag()}: collapse not additive despite d(f)=0"
        )
    if cg == zero:
        ctx.check(
            dh == df + dg, lambda: f"{tag()}: defect not additive despite c(g)=0"
        )
    for mu in mus:
        if df < mu <= cg:
            ctx.check(
                ch >= mu,
                lambda mu=mu: f"{tag()}: collapse lost the {mu!r} bound",
            )
        if cg < mu <= df:
            ctx.check(
                dh >= mu,
                lambda mu=mu: f"{tag()}: defect lost the {mu!r} bound",
            )


def _suite_lemma21(ctx, rng, cases):
    mus = (fin(1), ALEPH0)
    for i in range(cases):
        f, g = random_mixed(rng), random_mixed(rng)
        h = compose(f, g)
        sf, sg, sh = stats(f), stats(g), stats(h)
        _lemma_checks(
            ctx,
            (sf.rank, sf.collapse, sf.defect),
            (sg.rank, sg.collapse, sg.defect),
            (sh.rank, sh.collapse, sh.defect),
            partial("case {}".format, i),
            mus,
        )
    return "thresholds fin:1 and aleph0"


def _pair_tag(n, u, v):
    return f"n={n} {render_fchart(u)}*{render_fchart(v)}"


def _suite_lemma21_fin(ctx, rng, cases):
    """Lemma 2.1 on every pair of partial injections on 3 and 4 points.

    Every check on a pair reads only the key (rcd[u], rcd[v], rcd[u*v]),
    and the 44,837 pairs hit 55 keys.  Each key is decided once, on a
    private context; a key whose checks all pass adds their number to
    ``executed`` for every pair that hits it, and a pair whose key fails is
    checked again on ``ctx`` under its own tag, so the failures and their
    order are those of checking every pair.
    """
    pairs = 0
    for n in (3, 4):
        universe = all_fcharts(n)
        mus = tuple(range(1, n + 1))
        rcd = {u: (fchart_rank(u), fchart_collapse(u), fchart_defect(u)) for u in universe}
        factors = [rcd[v] for v in universe]
        verdicts: dict = {}  # key -> checks executed if all pass, else None
        executed = 0
        for u in universe:
            fu = rcd[u]
            for v, fv, h in zip(universe, factors, map(fchart_compose, repeat(u), universe)):
                key = (fu, fv, rcd[h])
                if key not in verdicts:
                    probe = _Ctx()
                    _lemma_checks(probe, *key, partial(_pair_tag, n, u, v), mus)
                    verdicts[key] = None if probe.failures else probe.executed
                count = verdicts[key]
                if count is None:
                    _lemma_checks(ctx, *key, partial(_pair_tag, n, u, v), mus)
                else:
                    executed += count
        ctx.executed += executed
        pairs += len(universe) ** 2
    return f"exhaustive pairs={pairs} over ground sets of size 3 and 4"


# -- Eventually periodic sets ---------------------------------------------------------


def _suite_epset_laws(ctx, rng, cases):
    for i in range(cases):
        a, b = random_epset(rng), random_epset(rng)
        # Two eventually periodic sets agree everywhere once they agree below
        # the larger threshold plus one common period.
        hi = max(a.threshold, b.threshold) + lcm(a.period, b.period)
        table = (
            ("union", a.union(b), or_),
            ("intersection", a.intersect(b), and_),
            ("difference", a.difference(b), lambda p, q: p and not q),
            ("complement", a.complement(), lambda p, q: not p),
        )
        wrong = next(
            (
                f"case {i}: {op} wrong at {x}"
                for x, ina, inb in ((x, x in a, x in b) for x in range(hi))
                for op, got, rule in table
                if (x in got) != rule(ina, inb)
            ),
            None,
        )
        ctx.check(wrong is None, wrong)
        ctx.equal(
            a.is_subset(b),
            all((x not in a) or (x in b) for x in range(hi)),
            f"case {i}: is_subset disagrees with the window",
        )
        infinite_by_window = any(x in a for x in range(a.threshold, a.threshold + a.period))
        ctx.equal(a.card() == ALEPH0, infinite_by_window, f"case {i}: cardinality")
        ctx.equal(parse_epset(render_epset(a)), a, f"case {i}: text round-trip")
        if a.card() == ALEPH0:
            parts = a.split(rng.randrange(2, 5))
            u = EMPTY
            good = True
            for j, p in enumerate(parts):
                good = good and p.card() == ALEPH0
                good = good and p.intersect(u).is_empty()
                u = u.union(p)
            ctx.check(good and u == a, f"case {i}: split is not a partition")
            k = rng.randrange(1, 6)
            first = a.take_first(k)
            want = []
            for x in a:
                want.append(x)
                if len(want) == k:
                    break
            ctx.equal(sorted(first.low), want, f"case {i}: take_first")
            ctx.equal(a.min(), want[0], f"case {i}: min")
        p1, p2 = random_prog(rng), random_prog(rng)
        both = progs_intersect(p1, p2)
        s1, s2 = from_prog(p1), from_prog(p2)
        s12 = from_prog(both) if both is not None else EMPTY
        got = {x for x in range(400) if x in s12}
        want = {x for x in range(400) if x in s1 and x in s2}
        ctx.equal(got, want, f"case {i}: progression intersection")
    m = random_moiety(rng)
    ctx.check(m.is_moiety(), "random moiety is not a moiety")
    return ""


# -- Charts --------------------------------------------------------------------------


def _suite_chart_laws(ctx, rng, cases):
    for i in range(cases):
        f, g, h = random_mixed(rng), random_mixed(rng), random_mixed(rng)
        fg = compose(f, g)
        ctx.equal(
            compose(fg, h), compose(f, compose(g, h)), f"case {i}: associativity"
        )
        ctx.check(
            compose(IDENTITY_CHART, f) == f and compose(f, IDENTITY_CHART) == f,
            f"case {i}: identity law",
        )
        ctx.check(
            compose(EMPTY_CHART, f) == EMPTY_CHART
            and compose(f, EMPTY_CHART) == EMPTY_CHART,
            f"case {i}: empty chart is absorbing",
        )
        ctx.equal(compose(compose(f, invert(f)), f), f, f"case {i}: regularity")
        ctx.equal(invert(invert(f)), f, f"case {i}: double inverse")
        ctx.equal(
            invert(fg), compose(invert(g), invert(f)), f"case {i}: anti-automorphism"
        )
        ctx.equal(
            compose(f, invert(f)),
            identity_on(dom_set(f)),
            f"case {i}: idempotent of the domain",
        )
        for x in range(60):
            y = apply_chart(f, x)
            want = None if y is None else apply_chart(g, y)
            if apply_chart(fg, x) != want:
                ctx.check(False, f"case {i}: composite value wrong at {x}")
                break
        else:
            ctx.check(True, "pointwise composition")
        ctx.check(
            dom_set(fg).is_subset(dom_set(f)) and im_set(fg).is_subset(im_set(g)),
            f"case {i}: composite domain/image bounds",
        )
        a = random_epset(rng)
        for name, back, got in (
            ("image", invert(f), image_of_set(f, a)),
            ("preimage", f, preimage_of_set(f, a)),
        ):
            hi = _window(a, dom_set(f), im_set(f), got)
            ctx.check(
                all(
                    ((y := apply_chart(back, x)) is not None and y in a) == (x in got)
                    for x in range(hi)
                ),
                f"case {i}: {name} of a set",
            )
        r = restrict(f, a)
        ctx.equal(dom_set(r), dom_set(f).intersect(a), f"case {i}: restriction domain")
        ctx.check(
            all(apply_chart(r, x) == apply_chart(f, x) for x in range(200) if x in a),
            f"case {i}: restriction values",
        )
        st = stats(f)
        ctx.check(
            st.rank == dom_set(f).card()
            and st.collapse == dom_set(f).complement().card()
            and st.defect == im_set(f).complement().card(),
            f"case {i}: statistics tie to the domain and image",
        )
        ctx.equal(parse_chart(render_chart(f)), f, f"case {i}: text round-trip")
    q = random_permutation(rng)
    ctx.check(
        is_permutation(q) and compose(q, invert(q)) == IDENTITY_CHART,
        "random permutation fails the group law",
    )
    small = make_chart(((0, 1),), ())
    big = extend_to_bijection(small, EVENS, ODDS)
    ctx.check(
        dom_set(big) == EVENS
        and im_set(big) == ODDS
        and apply_chart(big, 0) == 1,
        "extension to a bijection misses its contract",
    )
    return ""


# -- Class closure under composition ---------------------------------------------------


def _closure_suite(family):
    def run(ctx, rng, cases):
        classes = [c for c in _CATALOG if c.family == family]
        pool = _master_pool(rng)
        members = {c: _members(rng, c, pool) for c in classes}
        for c in classes:
            ctx.check(_in(c, IDENTITY_CHART), lambda c=c: f"identity outside {render_class(c)}")
            ctx.check(
                _in(c, identity_on(EVENS)),
                lambda c=c: f"partial identity outside {render_class(c)}",
            )
            ctx.check(
                _in(c, make_chart(((0, 3), (5, 1)), ())),
                lambda c=c: f"finite-rank chart outside {render_class(c)}",
            )
        comp_memo: dict = {}
        for i in range(cases):
            c = classes[i % len(classes)]
            ms = members[c]
            f, g = rng.choice(ms), rng.choice(ms)
            key = (f, g)
            h = comp_memo.get(key)
            if h is None:
                h = compose(f, g)
                comp_memo[key] = h
            ctx.check(
                _in(c, h),
                lambda c=c, f=f, g=g: (
                    f"{render_class(c)} not closed: "
                    f"{render_chart(f)} * {render_chart(g)}"
                ),
            )
        return f"classes={len(classes)} pool={len(pool)}"

    return run


# -- Duality and meets -----------------------------------------------------------------


def _suite_duality(ctx, rng, cases):
    for i in range(cases):
        f = random_mixed(rng)
        fi = invert(f)
        for c in _CATALOG:
            ctx.equal(
                _in(c, f),
                _in(dual_class(c), fi),
                f"case {i}: {render_class(c)} breaks mirror duality",
            )
    return f"classes={len(_CATALOG)}"


def _suite_meet(ctx, rng, cases):
    meets = [c for c in _CATALOG if c.variant == "meet"]
    for i in range(cases):
        f = random_mixed(rng)
        c = meets[i % len(meets)]
        both = _in(replace(c, variant="plain"), f) and _in(
            replace(c, variant="inverse"), f
        )
        ctx.equal(_in(c, f), both, f"case {i}: {render_class(c)} is not the meet")
    return f"meet classes={len(meets)}"


# -- Separating witnesses ----------------------------------------------------------------


# Each catalogue class is named by family, variant initial and a digit: 1
# for mu = fin:1 or aleph1, 0 for aleph0, and an A class's block count, so
# `sp0` is S[mu=aleph0] and `am3` is Ameet[blocks=3].  `vt1` is the one class
# outside the catalogue, on TOWER_1MOD2.  "x>y" is the ordered pair (x, y),
# and the failures come in the order listed.
_SEPARATED = """
    sp0>sp1 sp1>sp0 si0>si1 si1>si0 sm0>sm1 sm1>sm0 sp1>si1 si1>sp1 sp0>si0 si0>sp0
    sp0>pp0 sp1>pp1 si0>pi0 si1>pi1 sm0>pm0 sp0>vp0 sp0>vp1 si0>vi0 sm0>vm0 sp1>vp1
    sp0>ap2 sp1>ap2 si0>ai2 sm0>am2 sp0>ap3
    pp0>sp0 pp1>sp1 pi0>si0 pm1>sm0 pp0>pp1 pp1>pp0 pi0>pi1 pm0>pm1
    pp0>vp0 pp1>vp1 pi1>vi1 pm1>vm1 pp0>ap2 pp1>ap3 pm1>am2
    vp1>sp0 vp1>sp1 vi1>si0 vi1>si1 vm1>sm0 vp1>pp1 vp0>pp0 vi0>pi0
    vp1>vp0 vp0>vp1 vi0>vi1 vt1>vp1 vp1>ap2 vp0>ap2 vi1>ai2 vm1>am2 vm1>pm1
    ap2>sp0 ap2>sp1 ai2>si0 am2>sm0 ap2>pp0 ap2>pp1 am2>pm0 ap2>vp0 ap2>vp1 am2>vm0
    ap2>ap3 ap3>ap2 ai2>ai3 ap2>ai2 ai2>ap2 am3>am2
"""
_REFUSED = """
    sm1>sp1 sm1>si1 sm0>sp0 sm0>si0 pm0>pp0 pm0>pi0 pm1>pp1 pm1>pi1
    vm0>vp0 vm0>vi0 vm1>vp1 vm1>vi1 am2>ap2 am2>ai2 am3>ap3 am3>ai3
    vp0>sp0 vi0>si0 vm0>sm0 sp0>sp0 pm1>pm1 ap2>ap2
"""


def _witness_pairs():
    """The pairs `witnesses` expects separated, then those it expects refused."""
    named = {
        f"{c.family.lower()}{c.variant[0]}"
        f"{c.partition.n if c.family == 'A' else int(c.mu != ALEPH0)}": c
        for c in _CATALOG
    }
    named["vt1"] = ClassId("V", "plain", mu=ALEPH1, uf=TOWER_1MOD2)

    def pairs(text):
        return [tuple(named[x] for x in pair.split(">")) for pair in text.split()]

    return pairs(_SEPARATED), pairs(_REFUSED)


def _suite_witnesses(ctx, rng, cases):
    expect_witness, expect_raise = _witness_pairs()
    distinct = set()
    for c1, c2 in expect_witness:
        distinct.add(c1)
        distinct.add(c2)
        tag = f"{render_class(c1)} vs {render_class(c2)}"
        w = ctx.attempt(
            tag, separating_witness, c1, c2,
            errors=(UnsupportedWitnessError, ParameterError, InternalError),
        )
        if w is None:
            continue
        ctx.check(in_class(c1, w) and not in_class(c2, w), f"{tag}: witness not separating")
    pool = _master_pool(rng, extra=60)
    for c1, c2 in expect_raise:
        tag = f"{render_class(c1)} vs {render_class(c2)}"
        try:
            w = ctx.attempt(tag, separating_witness, c1, c2)
        except UnsupportedWitnessError:
            ctx.check(True, "refused")
        else:
            if w is not None:
                ctx.check(False, f"{tag}: expected refusal, got {render_chart(w)}")
            continue
        leak = next(
            (f for f in pool if in_class(c1, f) and not in_class(c2, f)), None
        )
        ctx.check(
            leak is None,
            lambda c1=c1, c2=c2, leak=leak: (
                f"{render_class(c1)} claimed inside {render_class(c2)} but "
                f"{render_chart(leak)} separates them"
            ),
        )
    ctx.check(len(distinct) >= 12, "fewer than 12 distinct classes exercised")
    return f"pairs={len(expect_witness)} refusals={len(expect_raise)}"


# -- The two forms of the filter class ----------------------------------------------------


def _suite_v_forms(ctx, rng, cases):
    vclasses = [c for c in _CATALOG if c.family == "V"]
    vclasses.append(ClassId("V", "plain", mu=ALEPH1, uf=TOWER_1MOD2))
    vclasses.append(ClassId("V", "inverse", mu=ALEPH0, uf=TOWER_2MOD4))
    for i in range(cases):
        f = random_mixed(rng)
        for c in vclasses:
            ctx.equal(
                in_class(c, f),
                in_class_v_alt(c, f),
                f"case {i}: {render_class(c)} forms disagree on {render_chart(f)}",
            )
    return f"classes={len(vclasses)}"


# -- Ultrafilter oracles --------------------------------------------------------------


def _suite_ultra_axioms(ctx, rng, cases):
    for i in range(cases):
        if rng.random() < 0.3:
            uf = Principal(rng.randrange(50))
        else:
            uf = random_tower(rng)
        a, b = random_epset(rng), random_epset(rng)
        ina = uf_contains(uf, a)
        ctx.check(
            ina != uf_contains(uf, a.complement()),
            f"case {i}: not exactly one of a set and its complement",
        )
        if ina and uf_contains(uf, b):
            both = a.intersect(b)
            ctx.check(
                uf_contains(uf, both) and not both.is_empty(),
                f"case {i}: intersection of accepted sets rejected",
            )
        if ina:
            ctx.check(
                uf_contains(uf, a.union(b)),
                f"case {i}: superset of an accepted set rejected",
            )
        ctx.check(
            not uf_contains(uf, EMPTY) and uf_contains(uf, NATURALS),
            f"case {i}: empty/full membership wrong",
        )
        if is_principal(uf):
            ctx.equal(ina, uf.point in a, f"case {i}: principal membership")
            ctx.equal(uf_min(uf), fin(1), f"case {i}: principal minimum")
        else:
            ctx.equal(uf_min(uf), ALEPH0, f"case {i}: tower minimum")
            base = uf.base_modulus
            m = base * rng.randrange(1, 5)
            r = uf.residue_at(m)
            ctx.check(
                uf_contains(uf, residue_class(r, m)),
                f"case {i}: chosen residue class rejected",
            )
            ctx.equal(
                uf.residue_at(base * 2) % base,
                uf.residue_at(base),
                f"case {i}: residues do not nest",
            )
        ctx.equal(parse_uf(render_uf(uf)), uf, f"case {i}: oracle text round-trip")
    return ""


def _suite_ultra_stab(ctx, rng, cases):
    inner = 1000
    for i in range(cases):
        uf = random_tower(rng)
        f = random_mixed(rng)
        verdict, wit = stabilises_filter(uf, f)
        if verdict:
            bad = None
            for j in range(inner):
                s = random_epset(rng)
                if uf_contains(uf, s) != uf_contains(uf, image_of_set(f, s)):
                    bad = s
                    break
            ctx.check(
                bad is None,
                lambda f=f, bad=bad: (
                    f"claimed stabiliser {render_chart(f)} moves "
                    f"{render_epset(bad)} across the oracle"
                ),
            )
        else:
            ctx.check(
                wit is not None
                and uf_contains(uf, wit)
                and not uf_contains(uf, image_of_set(f, wit)),
                f"case {i}: refusal without a checkable witness",
            )
        # Fix the accepted parity class mod 4 pointwise and swap the other two.
        r = uf.residue_at(2)
        keeper = block_shuffle(
            mod_partition(4), tuple(x if x % 2 == r else (x + 2) % 4 for x in range(4))
        )
        ctx.check(
            stabilises_filter(uf, keeper)[0],
            f"case {i}: oracle-fixing permutation not accepted as a stabiliser",
        )
    return f"inner samples per verdict={inner}"


# -- The induced block relation --------------------------------------------------------


def _rel_subset(a: BinRel, b: BinRel) -> bool:
    return all(ra & ~rb == 0 for ra, rb in zip(a.rows, b.rows))


def _block_scramble(rng, p: FinPartition) -> Chart:
    parts = []
    for b in p.blocks:
        if rng.random() < 0.5:
            parts.append(identity_on(b))
        else:
            h0, h1 = b.split(2)
            parts.append(
                chart_union(bijection_between(h0, h1), bijection_between(h1, h0))
            )
    return chart_union(*parts)


def _suite_rho_laws(ctx, rng, cases):
    for i in range(cases):
        p = random_partition(rng)
        f, g = random_mixed(rng), random_mixed(rng)
        rf, rg = rho_of(p, f), rho_of(p, g)
        ctx.check(
            _rel_subset(rho_of(p, compose(f, g)), rel_compose(rf, rg)),
            f"case {i}: composite relation escapes the relational product",
        )
        ctx.equal(
            rho_of(p, invert(f)), rel_converse(rf), f"case {i}: converse law"
        )
        q = random_permutation(rng)
        rq = rho_of(p, q)
        ctx.check(rel_dom_full(rq) and rel_im_full(rq), f"case {i}: total charts fill the relation")
        a = _block_scramble(rng, p)
        ctx.check(
            block_stabilises(p, a) and _rel_subset(rho_of(p, a), rel_identity(p.n)),
            f"case {i}: within-block scramble leaves the diagonal",
        )
        pi = list(range(p.n))
        rng.shuffle(pi)
        shuf = block_shuffle(p, tuple(pi))
        ctx.equal(
            rho_of(p, shuf), perm_rel(tuple(pi)), f"case {i}: block shuffle relation"
        )
        moved = compose(shuf, transposition(0, 1))
        ctx.check(
            not is_permutation(moved) or almost_block_stabilises(p, moved),
            f"case {i}: finite disturbance breaks the almost-stabiliser",
        )
        ac = ClassId("A", "meet", partition=p)
        ctx.check(
            _in(ac, shuf), f"case {i}: block shuffle outside its own meet class"
        )
    return ""


def _suite_padding(ctx, rng, cases):
    exact = max(1, cases // 10)
    for i in range(exact):
        p = random_partition(rng)
        f, g = random_mixed(rng), random_mixed(rng)
        a = ctx.attempt(f"exact case {i}", padding_perm, p, f, g)
        if a is None:
            continue
        ctx.check(is_permutation(a), f"exact case {i}: padding is not a permutation")
        ctx.check(
            is_permutation(a) and block_stabilises(p, a),
            f"exact case {i}: padding moves a point across blocks",
        )
        ctx.equal(
            rho_of(p, compose(compose(f, a), g)),
            rel_compose(rho_of(p, f), rho_of(p, g)),
            f"exact case {i}: padded relation",
        )
    for i in range(cases - exact):
        p = random_partition(rng)
        f, g = random_mixed(rng), random_mixed(rng)
        a = _block_scramble(rng, p)
        ctx.check(
            _rel_subset(
                rho_of(p, compose(compose(f, a), g)),
                rel_compose(rho_of(p, f), rho_of(p, g)),
            ),
            f"subset case {i}: a block-preserving middle escapes the product",
        )
    return f"exact={exact} subset={cases - exact}"


# -- Factorising through a sandwich ------------------------------------------------------


def _suite_sandwich(ctx, rng, cases):
    y = EVENS
    f = make_chart((), (Piece(Prog(0, 1), Prog(0, 4)),))
    g = invert(bijection_between(NATURALS, residue_class(2, 4)))
    specials = [IDENTITY_CHART, EMPTY_CHART, DOUBLE]
    yc = y.complement()
    for i in range(cases):
        h = specials[i] if i < len(specials) else random_mixed(rng)
        p = ctx.attempt(f"case {i}", sandwich_factorize, h, f, g, y)
        if p is None:
            continue
        ctx.check(is_permutation(p), f"case {i}: middle factor is not a permutation")
        ctx.equal(
            restrict(p, yc),
            identity_on(yc),
            f"case {i}: middle factor moves points outside the carrier",
        )
        made = compose(compose(f, p), g)
        ctx.equal(made, h, f"case {i}: factorisation misses {render_chart(h)}")
        ctx.check(
            _charts_agree(made, h),
            f"case {i}: structural equality disagrees with pointwise agreement",
        )
    for bad_f, bad_g in (
        (DOUBLE, g),               # image of f is all of the evens, not a moiety of them
        (f, bijection_between(residue_class(2, 4), residue_class(2, 4))),
    ):
        ctx.refuses(
            "unsuitable sandwich accepted", sandwich_factorize, IDENTITY_CHART, bad_f, bad_g, y
        )
    return "carrier=evens"


# -- Spreading and evading ----------------------------------------------------------------


def _word_ok(p: FinPartition, word, gens: dict) -> bool:
    """Every letter of ``word`` is the chart ``gens`` gives for its label, or,
    labelled "stab", a permutation that maps each block of p onto a block."""
    return all(
        block_stabilises(p, c) if label == "stab" else label in gens and c == gens[label]
        for label, c in word.letters
    )


def _suite_spreader(ctx, rng, cases):
    for i in range(cases):
        p = random_partition(rng)
        base = random_total(rng)
        if i % 3 == 0:
            f = compose(base, SHIFT)
        else:
            f = compose(base, DOUBLE)
        delta = stats(f).defect
        if delta == fin(0):
            continue
        tag = f"case {i} ({render_partition(p)}, {render_chart(f)})"
        out = ctx.attempt(tag, defect_spreader, p, f)
        if out is None:
            continue
        ctx.equal(out.replay(), out.chart, f"case {i}: word replay")
        ctx.check(_word_ok(p, out, {"gen": f}), f"case {i}: word labels")
        missing = NATURALS.difference(im_set(out.chart))
        ctx.check(
            all(
                missing.intersect(b).card() >= delta
                for b in p.blocks
            ),
            f"case {i}: a block holds fewer than defect-many missing points",
        )
        ctx.check(is_total(out.chart), f"case {i}: spread chart lost totality")
    for bad in (HALVE, IDENTITY_CHART):
        ctx.refuses("unsuitable spread input accepted", defect_spreader, mod_partition(2), bad)
    return ""


def _suite_evader(ctx, rng, cases):
    bundles = []
    for n in (2, 3):
        p = mod_partition(n)
        sigma0 = residue_class(0, n)
        g = invert(bijection_between(sigma0, NATURALS))
        h = bijection_between(sigma0, NATURALS)
        bundles.append((p, DOUBLE, g, h))
        bundles.append((p, compose(DOUBLE, DOUBLE), g, h))
    for idx, (p, f, g, h) in enumerate(bundles):
        out = ctx.attempt(f"bundle {idx}", block_evader, p, f, g, h)
        if out is None:
            continue
        ctx.check(is_total(out.chart), f"bundle {idx}: result is not total")
        ctx.check(
            im_set(out.chart).is_subset(p.blocks[0]),
            f"bundle {idx}: image escapes the first block",
        )
        ctx.equal(out.replay(), out.chart, f"bundle {idx}: word replay")
        ctx.check(
            _word_ok(p, out, {"gen": f, "g": g, "h": h}), f"bundle {idx}: word labels"
        )
    p2, _, g, h = bundles[0]  # the parts mod 2
    for bad in (
        (p2, SHIFT, g, h),          # finite defect cannot be funnelled
        (p2, IDENTITY_CHART, g, h),
        (p2, DOUBLE, h, g),         # swapped roles have the wrong relation shape
        (p2, DOUBLE, PARITY_SWAP, h),
    ):
        ctx.refuses("unsuitable evader input accepted", block_evader, *bad)
    return f"bundles={len(bundles)}"


def _suite_nxn_n2(ctx, rng, cases):
    rels = all_relations(2)
    rhos = [r for r in rels if rel_dom_full(r) and not rel_is_perm(r)]
    sigmas = [r for r in rels if rel_im_full(r) and not rel_is_perm(r)]
    for rho in rhos:
        for sigma in sigmas:
            ctx.check(
                nxn_closure_check(2, rho, sigma),
                f"pair ({rho.rows}, {sigma.rows}) misses the full relation",
            )
    return f"pairs={len(rhos) * len(sigmas)}"


def _first_of_each_class(rels):
    """The first relation of each two-sided permutation orbit, in list order."""
    firsts = {}
    for r in rels:
        firsts.setdefault(canonical_rel(r), r)
    return list(firsts.values())


def _suite_nxn_n3(ctx, rng, cases):
    rels = all_relations(3)
    rhos = [r for r in rels if rel_dom_full(r) and not rel_is_perm(r)]
    sigmas = [r for r in rels if rel_im_full(r) and not rel_is_perm(r)]
    # The first pair of each class pair, in the order of the |rho| x |sigma|
    # loop, pairs the first rho of its class with the first sigma of its.
    reps = list(product(_first_of_each_class(rhos), _first_of_each_class(sigmas)))
    for rho, sigma in reps:
        ctx.check(
            nxn_closure_check(3, rho, sigma),
            f"canonical pair ({rho.rows}, {sigma.rows}) misses the full relation",
        )
    for i in range(cases):
        rho, sigma = rng.choice(rhos), rng.choice(sigmas)
        ctx.check(
            nxn_closure_check(3, rho, sigma),
            f"spot check {i}: pair ({rho.rows}, {sigma.rows})",
        )
    return (
        f"canonical pairs={len(reps)} of {len(rhos)}x{len(sigmas)} raw; "
        "words may insert arbitrary permutations, so the outcome only depends "
        "on the two-sided permutation orbit of each generator"
    )


# -- Finite ground set -------------------------------------------------------------------


def _suite_mutt_inj(ctx, rng, cases):
    for i in range(cases):
        k = rng.randrange(1, 4)
        us = {random_nonempty_fchart(rng, 4) for _ in range(k)}
        ok, bad = injective_mutt_membership(us, maxlen=3)
        ctx.check(
            ok,
            lambda us=us, bad=bad: (
                "injective chained product escapes the generated semigroup: "
                f"{sorted(map(render_fchart, us))} -> {bad[:2]}"
            ),
        )
    fixed = [
        {identity_fchart(3)},
        {(1, 0, None), (None, 2, 1)},
        set(all_fcharts(2)) - {(None, None)},
    ]
    for us in fixed:
        ok, bad = injective_mutt_membership(us, maxlen=3)
        ctx.check(
            ok,
            lambda us=us, bad=bad: (
                f"fixed family {sorted(map(render_fchart, us))} leaks {bad[:2]}"
            ),
        )
    return ""


def _suite_minext(ctx, rng, cases):
    for i in range(cases):
        n = rng.randrange(2, 6)
        u = random_nonempty_fchart(rng, n)
        v = minimal_extension(u)
        again = minimal_extension(u)
        ctx.equal(v, again, f"case {i}: extension is not deterministic")
        dom = fchart_dom(u)
        ctx.check(
            all(v[x] == u[x] for x in dom), f"case {i}: extension disagrees on the domain"
        )
        ctx.equal(set(v), set(fchart_im(u)), f"case {i}: extension image")
        ctx.check(
            ftrans_rank(v) == fchart_rank(u)
            and ftrans_collapse(v) == fchart_collapse(u)
            and ftrans_defect(v) == fchart_defect(u),
            f"case {i}: extension changes the statistics",
        )
        ctx.check(is_transversal(v, frozenset(dom)), f"case {i}: domain transversal")
        total = len(dom) == n
        ctx.equal(
            is_injective_ftrans(v), total, f"case {i}: injectivity mismatches totality"
        )
        if total:
            ctx.equal(tuple(v), tuple(u), f"case {i}: total chart altered")
    ctx.refuses("empty chart extended", minimal_extension, (None, None, None))
    return ""


def _suite_ideal_inverse(ctx, rng, cases):
    for n in (2, 3):
        universe = all_fcharts(n)
        ideal = strict_ideal(n)
        ctx.check(
            all(
                fchart_compose(a, b) in ideal
                for a in ideal
                for b in universe
            )
            and all(
                fchart_compose(b, a) in ideal
                for a in ideal
                for b in universe
            ),
            f"n={n}: the low-rank set is not absorbing",
        )
        ctx.check(
            is_inverse_closed(ideal), f"n={n}: the low-rank set is not inverse closed"
        )
        idem = frozenset(u for u in universe if fchart_compose(u, u) == u)
        ctx.equal(
            idem, partial_identities(n), f"n={n}: idempotents vs partial identities"
        )
    universe3 = all_fcharts(3)
    samples = [s.elements for s in predicted_finite_maximals(3)]
    for _ in range(cases):
        gens = {random_nonempty_fchart(rng, 3) for _ in range(rng.randrange(1, 4))}
        samples.append(fchart_closure(gens))
    for j, m in enumerate(samples):
        ctx.check(is_closed(m), f"sample {j}: not closed")
        inv_part = frozenset(u for u in m if fchart_invert(u) in m)
        if not inv_part:
            continue
        ctx.check(
            is_closed(inv_part) and is_inverse_closed(inv_part),
            f"sample {j}: the self-paired part is not an inverse subsemigroup",
        )
        ctx.check(
            all(u in inv_part for u in m if fchart_invert(u) in m),
            f"sample {j}: self-paired part misses an element",
        )
    return f"subsemigroups checked={len(samples)}"


def _suite_excluding(ctx, rng, cases):
    for i in range(cases):
        if rng.random() < 0.5:
            f = _finite_rank_chart(rng)
        else:
            f = random_partial_identity(rng)
        for c in _CATALOG:
            ctx.check(
                _in(c, f),
                lambda c=c, f=f: (
                    f"{render_chart(f)} should be in every class, "
                    f"missing from {render_class(c)}"
                ),
            )
    found = 0
    guard = 0
    while found < max(1, cases // 4) and guard < cases * 20:
        guard += 1
        h = random_mixed(rng)
        if in_F_ideal(h) or is_partial_identity(h):
            continue
        found += 1
        c = excluding_maximal(h)
        ctx.check(not in_class(c, h), f"excluder admits {render_chart(h)}")
        ctx.check(
            not in_class(replace(c, variant="meet"), h),
            f"meet excluder admits {render_chart(h)}",
        )
        ctx.check(
            in_class(c, IDENTITY_CHART)
            and in_class(c, identity_on(EVENS))
            and in_class(c, make_chart(((1, 4),), ())),
            "excluder rejects a chart that belongs to every class",
        )
    for bad in (IDENTITY_CHART, identity_on(EVENS), make_chart(((1, 4),), ())):
        ctx.refuses("excluder produced for a chart in every class", excluding_maximal, bad)
    return f"excluded charts={found}"


def _suite_finite_classify(ctx, rng, cases):
    sizes = {2: 7, 3: 34, 4: 209}
    wanted = {2: 2, 3: 5, 4: 9}
    for n in (2, 3, 4):
        universe = all_fcharts(n)
        ctx.equal(len(universe), sizes[n], f"n={n}: universe size")
        preds = predicted_finite_maximals(n)
        ctx.equal(len(preds), wanted[n], f"n={n}: number of candidates")
        labels = [s.label for s in preds]
        ctx.equal(len(labels), len(set(labels)), f"n={n}: duplicate labels")
        for s in preds:
            ctx.check(
                is_maximal(s.elements, n), f"n={n}: {s.label} is not maximal"
            )
            ctx.check(
                is_inverse_closed(s.elements), f"n={n}: {s.label} not inverse closed"
            )
        for a in preds:
            for b in preds:
                if a.label != b.label:
                    ctx.check(
                        not a.elements <= b.elements,
                        f"n={n}: {a.label} inside {b.label}",
                    )
    return ""


def _suite_finite_complete_n2(ctx, rng, cases):
    res = completeness_search(2)
    ctx.check(res.complete, "the ground-set-2 search did not finish")
    predicted = {s.elements for s in predicted_finite_maximals(2)}
    ctx.equal(set(res.maximal), predicted, "ground set 2: maximal sets")
    ctx.equal(
        set(res.maximal_inverse), predicted, "ground set 2: inverse-closed maxima"
    )
    return f"maximal={len(res.maximal)}"


def _suite_finite_complete_n3(ctx, rng, cases):
    res = completeness_search(3)
    predicted = {s.elements for s in predicted_finite_maximals(3)}
    found = set(res.maximal)
    ctx.check(
        found <= predicted,
        "ground set 3: the search found a maximal set outside the predictions",
    )
    ctx.equal(found, predicted, "ground set 3: maximal sets")
    for m in res.maximal_inverse:
        ctx.check(
            is_inverse_closed(m) and is_closed(m),
            "ground set 3: reported inverse maximal is not one",
        )
    return f"complete={res.complete} found={len(found)} note={res.note}"


_SUITES = {
    "lemma21": (_suite_lemma21, 10_000),
    "lemma21-fin": (_suite_lemma21_fin, 0),
    "epset-laws": (_suite_epset_laws, 10_000),
    "chart-laws": (_suite_chart_laws, 4_000),
    "closure-S": (_closure_suite("S"), 10_000),
    "closure-P": (_closure_suite("P"), 10_000),
    "closure-V": (_closure_suite("V"), 10_000),
    "closure-A": (_closure_suite("A"), 10_000),
    "duality": (_suite_duality, 10_000),
    "meet": (_suite_meet, 10_000),
    "witnesses": (_suite_witnesses, 0),
    "v-forms": (_suite_v_forms, 10_000),
    "ultra-axioms": (_suite_ultra_axioms, 10_000),
    "ultra-stab": (_suite_ultra_stab, 500),
    "rho-laws": (_suite_rho_laws, 10_000),
    "padding": (_suite_padding, 10_000),
    "sandwich": (_suite_sandwich, 1_000),
    "spreader": (_suite_spreader, 60),
    "evader": (_suite_evader, 0),
    "nxn-n2": (_suite_nxn_n2, 0),
    "nxn-n3": (_suite_nxn_n3, 150),
    "mutt-inj": (_suite_mutt_inj, 200),
    "minext": (_suite_minext, 2_000),
    "ideal-inverse": (_suite_ideal_inverse, 30),
    "excluding": (_suite_excluding, 1_000),
    "finite-classify": (_suite_finite_classify, 0),
    "finite-classify-n2": (_suite_finite_complete_n2, 0),
    "finite-classify-n3": (_suite_finite_complete_n3, 0),
}


# -- Candidate-family conditions -------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Structural audit of a finite candidate family."""

    n: int
    results: tuple[tuple[str, bool, str], ...]
    note: str = ""

    @property
    def ok(self) -> bool:
        return all(r[1] for r in self.results)

    def summary(self) -> str:
        verdict = "pass" if self.ok else "FAIL"
        parts = ", ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good, _ in self.results)
        return f"{verdict} conditions n={self.n}: {parts}"


def check_conditions(n: int, group_gens=None) -> ConditionReport:
    """Audit a candidate family of subsets of the finite chart monoid.

    The four mechanical conditions: each member contains the reference
    group; each member is a proper subsemigroup; no member contains
    another; the family is closed under elementwise inversion.  The
    fifth condition of the classification method quantifies over all
    subsemigroups of the monoid and is reported as out of scope.

    ``group_gens`` generates the reference inverse semigroup (default:
    the identity together with every map of rank below n, ``strict_ideal``).
    The family audited is the predicted candidates that contain the
    reference semigroup; the note counts those dropped.  Predictions exist
    only for 2 <= n <= 4; any other n is refused before any work, with
    ``ResourceGuardError`` when n > 5 and ``ParameterError`` otherwise.
    """
    if n > 5:
        raise ResourceGuardError(
            "predictions exist only for ground sets 2 to 4, and 6 or more points are refused as too large"
        )
    if not 2 <= n <= 4:
        raise ParameterError("predictions exist only for ground sets 2 to 4")
    if group_gens is None:
        group = strict_ideal(n) | {identity_fchart(n)}
    else:
        group = fchart_closure(group_gens)
        group = group | frozenset(fchart_invert(u) for u in group)
    preds = predicted_finite_maximals(n)
    family = [(s.label, s.elements) for s in preds if group <= s.elements]
    filtered = ""
    if len(family) != len(preds):
        filtered = (
            f"; {len(preds) - len(family)} predicted candidate(s) were dropped "
            "because they do not contain the reference semigroup"
        )
    universe = frozenset(all_fcharts(n))
    members = [m for _, m in family]

    def result(name, bad, good_text, bad_label="violations"):
        return (name, not bad, f"{bad_label}: {bad}" if bad else good_text)

    results = (
        result(
            "group-containment",
            [lbl for lbl, m in family if not group <= m],
            "every member contains the reference semigroup",
        ),
        result(
            "proper-closed",
            [lbl for lbl, m in family if not (m < universe and is_closed(m))],
            "every member is a proper subsemigroup",
        ),
        result(
            "incomparable",
            [(a, b) for (a, ma) in family for (b, mb) in family if a != b and ma <= mb],
            "no member contains another",
            "containments",
        ),
        result(
            "inversion-closed-family",
            [lbl for lbl, m in family if frozenset(fchart_invert(u) for u in m) not in members],
            "the family is closed under elementwise inversion",
        ),
    )
    note = (
        "the generation condition quantifying over all subsemigroups is out of "
        "scope for a mechanical check" + filtered
    )
    return ConditionReport(n=n, results=results, note=note)
