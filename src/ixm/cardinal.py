"""Exact arithmetic on the three cardinal tiers the workbench needs.

Every size that actually occurs as a statistic of a partial bijection of
the naturals is either a finite number or aleph-0.  Aleph-1 exists purely
as a classification bound (the successor of the ground cardinality), so
it may be compared against but never added: ``+`` on it raises instead of
guessing at transfinite arithmetic.  Cards order with ``<`` and add with
``+`` like ints, so one formula serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, ParseError

_FIN = 0
_A0 = 1
_A1 = 2


@dataclass(frozen=True, order=True)
class Card:
    """A cardinal: Fin(k), aleph-0 or aleph-1.

    Ordering is the natural one; it falls out of comparing
    (level, value) tuples because infinite cards carry value 0.
    """

    level: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.level not in (_FIN, _A0, _A1):
            raise ParameterError(f"unknown cardinal level {self.level!r}")
        if self.level == _FIN and self.value < 0:
            raise ParameterError(f"finite cardinal cannot be negative: {self.value}")
        if self.level != _FIN and self.value != 0:
            raise ParameterError("infinite cardinals carry no finite value")

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
