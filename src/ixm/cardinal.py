"""Exact arithmetic on the three cardinal tiers the workbench needs.

Every size that actually occurs as a statistic of a partial bijection of
the naturals is either a finite number or aleph-0.  Aleph-1 exists purely
as a classification bound (the successor of the ground cardinality), so
it may be compared against but never added: ``+`` on it raises instead of
guessing at transfinite arithmetic.  Cards order with ``<`` and add with
``+`` like ints, so one formula serves both.

A Card is a NamedTuple (level, value), like ``epset.Prog``: equality, hash
and order are those of the field tuple, computed in C, and a Card equals
any tuple with the same fields, ``fin(3) == (0, 3)``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParameterError, ParseError

_FIN = 0
_A0 = 1
_A1 = 2


class _CardFields(NamedTuple):
    level: int
    value: int


class Card(_CardFields):
    """A cardinal: Fin(k), aleph-0 or aleph-1.

    Ordering is the natural one; it falls out of comparing
    (level, value) tuples because infinite cards carry value 0.
    """

    __slots__ = ()

    def __new__(cls, level: int, value: int = 0) -> "Card":
        if level not in (_FIN, _A0, _A1):
            raise ParameterError(f"unknown cardinal level {level!r}")
        if level == _FIN and value < 0:
            raise ParameterError(f"finite cardinal cannot be negative: {value}")
        if level != _FIN and value != 0:
            raise ParameterError("infinite cardinals carry no finite value")
        return tuple.__new__(cls, (level, value))

    @property
    def finite(self) -> bool:
        return self.level == _FIN

    @property
    def infinite(self) -> bool:
        return self.level != _FIN

    def __add__(self, other: Card) -> Card:
        """Cardinal sum.  Rejects aleph-1 operands: nothing in the workbench
        ever produces one as a size, so an attempt to add it is a bug."""
        if _A1 in (self.level, other.level):
            raise ParameterError("cardinal addition is not defined for aleph1 operands")
        if _A0 in (self.level, other.level):
            return ALEPH0
        return fin(self.value + other.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Card({render_card(self)!r})"


def fin(k: int) -> Card:
    return Card(_FIN, k)


ZERO = fin(0)
ALEPH0 = Card(_A0)
ALEPH1 = Card(_A1)


def render_card(c: Card) -> str:
    if c.level == _FIN:
        return f"fin:{c.value}"
    return "aleph0" if c.level == _A0 else "aleph1"


def parse_card(text: str) -> Card:
    t = text.strip()
    if t == "aleph0":
        return ALEPH0
    if t == "aleph1":
        return ALEPH1
    if t.startswith("fin:"):
        body = t[4:]
        if not body.isdigit():
            raise ParseError(f"bad finite cardinal {text!r}")
        return fin(int(body))
    raise ParseError(f"unrecognised cardinal {text!r}")
