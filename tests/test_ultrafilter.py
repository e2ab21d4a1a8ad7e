"""Point-based and residue-tower set oracles, and the stabiliser test."""

import random

import pytest

import ixm.ultrafilter as ultrafilter_module
from ixm.cardinal import ALEPH0, fin
from ixm.chart import (
    IDENTITY_CHART,
    Piece,
    identity_on,
    image_of_set,
    make_chart,
    transposition,
)
from ixm.epset import NATURALS, Prog, from_finite, residue_class
from ixm.errors import ParameterError, ParseError, ResourceGuardError
from ixm.sampling import make_rng, random_epset, random_permutation, random_tower
from ixm.ultrafilter import (
    MAX_PRIME_TEST,
    ZERO_TOWER,
    Principal,
    ResidueTower,
    _is_prime,
    is_principal,
    make_tower,
    parse_uf,
    render_uf,
    stabilises_filter,
    uf_contains,
    uf_min,
)

def _factor(m: int) -> dict[int, int]:
    out, q = {}, 2
    while q * q <= m:
        while m % q == 0:
            m //= q
            out[q] = out.get(q, 0) + 1
        q += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _residue_by_factors(t: ResidueTower, factors: dict[int, int]) -> int:
    """The tower's residue modulo the product of p**k over `factors`, by the
    Chinese remainder theorem over every prime power of that modulus."""
    chosen = {p: r for p, _, r in t.choices}
    rem, mod = 0, 1
    for p, k in factors.items():
        pk = p**k
        rem += mod * ((chosen.get(p, 0) - rem) * pow(mod, -1, pk) % pk)
        mod *= pk
    return rem


EVENS = residue_class(0, 2)
ODDS = residue_class(1, 2)
DOUBLE = make_chart((), (Piece(Prog(0, 1), Prog(0, 2)),))
SHIFT = make_chart((), (Piece(Prog(0, 1), Prog(1, 1)),))


class TestPrincipal:
    def test_membership_is_point_membership(self):
        assert uf_contains(Principal(3), from_finite([3]))
        assert uf_contains(Principal(3), NATURALS)
        assert not uf_contains(Principal(3), EVENS)

    def test_validation(self):
        with pytest.raises(ParameterError, match="natural number"):
            Principal(-1)

    def test_min_and_kind(self):
        assert uf_min(Principal(0)) == fin(1)
        assert is_principal(Principal(0))
        assert not is_principal(ZERO_TOWER)


class TestTowerConstruction:
    def test_zero_tower_accepts_zero_classes(self):
        assert uf_contains(ZERO_TOWER, EVENS)
        assert not uf_contains(ZERO_TOWER, ODDS)

    def test_complement_of_rejected_is_accepted(self):
        assert uf_contains(ZERO_TOWER, ODDS.complement())

    def test_residue_at_combines_primes(self):
        t = make_tower([(3, 1, 2)])
        assert t.residue_at(3) == 2
        assert t.residue_at(2) == 0  # unmentioned primes default to zero
        assert t.residue_at(6) == 2  # 0 mod 2 and 2 mod 3
        assert t.residue_at(9) == 2  # higher powers keep the literal point

    def test_residue_at_matches_factor_and_combine(self):
        rng = random.Random(3)
        towers = [random_tower(rng) for _ in range(40)]
        towers += [make_tower([(10**18 + 3, 1, 1)]), make_tower([(2, 3, 5), (7, 2, 30)])]
        ms = [*range(1, 400), *(rng.randrange(1, 10**7) for _ in range(300)), 10**7]
        for m in ms:
            factors = _factor(m)
            for t in towers:
                assert t.residue_at(m) == _residue_by_factors(t, factors), (t, m)

    def test_residue_at_large_prime_powers(self):
        # m is built from known prime powers, so the reference needs no factoring.
        p, q, big = 16777213, 16777199, 10**18 + 3
        assert _is_prime(p) and _is_prime(q)
        towers = [
            ZERO_TOWER,
            make_tower([(p, 1, 5)]),
            make_tower([(2, 1, 1), (q, 2, q + 7), (big, 1, 12345)]),
            make_tower([(3, 1, 2), (big, 2, big * 3 + 1)]),
        ]
        for factors in ({p: 1, q: 1, 2: 2, 3: 1}, {q: 3, 5: 1}, {big: 2, p: 1}, {big: 1}):
            m = 1
            for r, k in factors.items():
                m *= r**k
            for t in towers:
                assert t.residue_at(m) == _residue_by_factors(t, factors), (t, m)

    def test_residue_at_refuses_non_positive_moduli(self):
        for m in (0, -4):
            with pytest.raises(ParameterError):
                make_tower([(3, 1, 2)]).residue_at(m)

    def test_finite_sets_rejected(self):
        assert not uf_contains(ZERO_TOWER, from_finite([0, 2, 4]))
        assert uf_min(ZERO_TOWER) == ALEPH0
        assert uf_min(make_tower([(5, 1, 4)])) == ALEPH0

    def test_constructor_validation(self):
        with pytest.raises(ParameterError):
            ResidueTower(((4, 1, 1),))  # not prime
        with pytest.raises(ParameterError):
            ResidueTower(((3, 0, 1),))  # exponent too small
        with pytest.raises(ParameterError):
            ResidueTower(((3, 1, 0),))  # zero residue is spelled by omission
        with pytest.raises(ParameterError):
            ResidueTower(((3, 1, 5),))  # residue out of range
        with pytest.raises(ParameterError):
            ResidueTower(((3, 1, 1), (3, 2, 1)))  # prime listed twice
        with pytest.raises(ParameterError, match="not the least"):
            ResidueTower(((5, 2, 3),))  # 3 < 5: the least exponent is 1

    def test_primality_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [p for p in range(10**5) if _is_prime(p)] == [p for p in range(10**5) if trial(p)]

    def test_primality_of_large_candidates(self):
        assert _is_prime(10**18 + 3) and _is_prime(2**61 - 1)
        # A strong pseudoprime to every prime base up to 37.
        assert not _is_prime(318665857834031151167461)
        assert not _is_prime((10**9 + 7) * (10**9 + 9))
        with pytest.raises(ResourceGuardError, match="MAX_PRIME_TEST"):
            _is_prime(MAX_PRIME_TEST)
        with pytest.raises(ResourceGuardError):
            make_tower([(10**30 + 57, 1, 1)])

    def test_make_tower_merges_compatible_entries(self):
        t = make_tower([(3, 1, 2), (3, 2, 2)])
        assert t.choices == ((3, 1, 2),)

    def test_make_tower_rejects_incompatible_entries(self):
        with pytest.raises(ParameterError):
            make_tower([(3, 1, 1), (3, 2, 5)])

    def test_make_tower_tests_each_entry_prime_once(self, monkeypatch):
        tested = []
        monkeypatch.setattr(ultrafilter_module, "_is_prime", lambda p: tested.append(p) or _is_prime(p))
        t = make_tower([(2, 1, 1), (3, 2, 4), (5, 1, 0)])
        assert sorted(tested) == [2, 3, 5]
        with pytest.raises(ParameterError, match="4 is not prime"):
            make_tower([(4, 1, 0)])  # an entry that is dropped is tested too
        monkeypatch.undo()
        assert t.choices == ((2, 1, 1), (3, 2, 4)) and ResidueTower(t.choices) == t

    def test_make_tower_drops_zero_residues(self):
        assert make_tower([(3, 1, 0)]) == ZERO_TOWER

    def test_equal_oracles_are_equal_values(self):
        # The digits above a choice's exponent are zero, so 3 mod 5 and
        # 3 mod 25 name one oracle.
        one, two = parse_uf("uf tower [5^1=3]"), parse_uf("uf tower [5^2=3]")
        assert one == two and hash(one) == hash(two)
        assert render_uf(two) == "uf tower [5^1=3]"
        assert two.base_modulus == 10
        assert make_tower([(5, 2, 8)]).choices == ((5, 2, 8),)

    def test_make_tower_reduces_residues(self):
        assert make_tower([(3, 1, 5)]) == make_tower([(3, 1, 2)])
        assert make_tower([(3, 1, 9)]) == ZERO_TOWER

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ParameterError):
            uf_contains(object(), EVENS)
        with pytest.raises(ParameterError):
            uf_min("nope")


class TestUltrafilterLaws:
    def oracles(self, rng):
        yield Principal(rng.randrange(6))
        yield ZERO_TOWER
        yield random_tower(rng)

    def test_dichotomy_and_lattice_laws(self):
        rng = make_rng(19)
        for _ in range(60):
            for f in self.oracles(rng):
                a, b = random_epset(rng), random_epset(rng)
                ina, inb = uf_contains(f, a), uf_contains(f, b)
                # Exactly one of a set and its complement is accepted.
                assert ina != uf_contains(f, a.complement())
                # Intersections of accepted sets are accepted; supersets
                # of accepted sets are accepted.
                if ina and inb:
                    assert uf_contains(f, a.intersect(b))
                if ina:
                    assert uf_contains(f, a.union(b))

    def test_extremes(self):
        rng = make_rng(20)
        for f in self.oracles(rng):
            assert uf_contains(f, NATURALS)
            assert not uf_contains(f, from_finite([]))


class TestStabilises:
    def test_principal_fixed_point(self):
        assert stabilises_filter(Principal(5), IDENTITY_CHART) == (True, None)
        ok, witness = stabilises_filter(Principal(5), transposition(5, 6))
        assert not ok
        assert 5 in witness and witness.card() == fin(1)

    def test_principal_point_outside_domain(self):
        ok, witness = stabilises_filter(Principal(1), identity_on(EVENS))
        assert not ok and 1 in witness

    def test_tower_accepts_doubling(self):
        assert stabilises_filter(ZERO_TOWER, DOUBLE) == (True, None)

    def test_tower_rejects_shift(self):
        ok, witness = stabilises_filter(ZERO_TOWER, SHIFT)
        assert not ok
        assert uf_contains(ZERO_TOWER, witness)
        assert not uf_contains(ZERO_TOWER, image_of_set(SHIFT, witness))

    def test_tower_rejects_shift_by_period(self):
        # Adding 3 preserves the accepted class mod 3 but shifts it mod 9,
        # so the witness has to come from a finer modulus.
        t = make_tower([(3, 1, 2)])
        plus3 = make_chart((), (Piece(Prog(0, 1), Prog(3, 1)),))
        ok, witness = stabilises_filter(t, plus3)
        assert not ok
        assert uf_contains(t, witness)
        assert not uf_contains(t, image_of_set(plus3, witness))

    def test_rejected_domain_is_refused(self):
        ok, witness = stabilises_filter(ZERO_TOWER, identity_on(ODDS))
        assert not ok
        assert uf_contains(ZERO_TOWER, witness)
        assert not uf_contains(ZERO_TOWER, image_of_set(identity_on(ODDS), witness))

    def test_identity_always_accepted(self):
        rng = make_rng(21)
        for f in (Principal(2), ZERO_TOWER, random_tower(rng)):
            assert stabilises_filter(f, IDENTITY_CHART) == (True, None)

    def test_random_permutations_refusals_carry_witnesses(self):
        rng = make_rng(27)
        for _ in range(60):
            f = random_tower(rng)
            c = random_permutation(rng)
            ok, witness = stabilises_filter(f, c)
            if ok:
                assert witness is None
                # Spot-check: images of accepted classes stay accepted.
                k = c.pieces[0].src.step if c.pieces else 1
                cls = residue_class(f.residue_at(k) % k, k)
                assert uf_contains(f, image_of_set(c, cls))
            else:
                assert uf_contains(f, witness)
                assert not uf_contains(f, image_of_set(c, witness))

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ParameterError):
            stabilises_filter(object(), IDENTITY_CHART)


class TestText:
    def test_render_forms(self):
        assert render_uf(Principal(7)) == "uf principal 7"
        assert render_uf(ZERO_TOWER) == "uf tower []"
        assert render_uf(make_tower([(3, 1, 2)])) == "uf tower [3^1=2]"

    def test_round_trip(self):
        rng = make_rng(33)
        oracles = [Principal(0), Principal(12), ZERO_TOWER]
        oracles += [random_tower(rng) for _ in range(40)]
        for f in oracles:
            assert parse_uf(render_uf(f)) == f

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "principal 3",
            "uf principal -3",
            "uf principal x",
            "uf tower",
            "uf tower [3=2]",
            "uf tower [4^1=1]",
            "uf tower [3^0=1]",
            "uf spectral 3",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_uf(bad)
