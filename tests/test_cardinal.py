"""Arithmetic and ordering on the three cardinal tiers."""

import pytest

from ixm.cardinal import (
    ALEPH0,
    ALEPH1,
    ZERO,
    Card,
    fin,
    parse_card,
    render_card,
)
from ixm.errors import ParameterError, ParseError


class TestConstruction:
    def test_fin_round_trip(self):
        assert fin(5).value == 5
        assert fin(5).finite
        assert not fin(5).infinite

    def test_constants(self):
        assert ZERO == fin(0)
        assert ALEPH0.infinite
        assert ALEPH1.infinite

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            fin(-1)

    def test_bad_level_rejected(self):
        with pytest.raises(ParameterError):
            Card(7)

    def test_infinite_carries_no_value(self):
        with pytest.raises(ParameterError):
            Card(1, 3)


class TestAdd:
    def test_finite_addition(self):
        assert fin(2) + fin(3) == fin(5)

    def test_infinite_absorbs_finite(self):
        assert fin(7) + ALEPH0 == ALEPH0
        assert ALEPH0 + fin(7) == ALEPH0

    def test_infinite_plus_infinite(self):
        # mu + mu = mu for the one infinite size that arises as a statistic.
        assert ALEPH0 + ALEPH0 == ALEPH0

    def test_aleph1_operand_rejected(self):
        with pytest.raises(ParameterError):
            ALEPH1 + fin(0)
        with pytest.raises(ParameterError):
            ALEPH0 + ALEPH1


class TestOrdering:
    def test_finite_vs_finite(self):
        assert fin(0) < fin(1) and not fin(0) >= fin(1)

    def test_infinite_dominates_any_finite(self):
        assert ALEPH0 > fin(10**9) and not ALEPH0 <= fin(10**9)

    def test_tiers_are_ordered(self):
        assert ALEPH0 < ALEPH1 and not ALEPH0 >= ALEPH1
        assert fin(10**12) < ALEPH0 < ALEPH1

    def test_equal(self):
        assert fin(4) <= fin(4) and fin(4) >= fin(4) and not fin(4) < fin(4)
        assert ALEPH0 <= ALEPH0 and ALEPH0 >= ALEPH0 and not ALEPH0 > ALEPH0

    def test_sort_order_is_total(self):
        cards = [ALEPH1, fin(3), ALEPH0, fin(0), fin(3)]
        assert sorted(cards) == [fin(0), fin(3), fin(3), ALEPH0, ALEPH1]


class TestText:
    @pytest.mark.parametrize("c", [ZERO, fin(1), fin(42), ALEPH0, ALEPH1])
    def test_round_trip(self, c):
        assert parse_card(render_card(c)) == c

    def test_render_forms(self):
        assert render_card(fin(3)) == "fin:3"
        assert render_card(ALEPH0) == "aleph0"
        assert render_card(ALEPH1) == "aleph1"

    def test_parse_whitespace(self):
        assert parse_card("  aleph0 ") == ALEPH0

    @pytest.mark.parametrize("bad", ["fin:", "fin:-3", "fin:x", "aleph2", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_card(bad)
