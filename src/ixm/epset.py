"""Eventually periodic subsets of the naturals, in canonical form.

An EPSet is determined by a threshold N, a period m, a residue set
R <= Z_m describing membership at and beyond N, and an explicit low part
L <= {0..N-1}.  Canonical form uses the minimal period of the tail and
then the minimal threshold for that period, so structural equality is
extensional equality.  The class is closed under the Boolean operations,
which is what makes the symbolic side of the workbench decidable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .cardinal import ALEPH0, Card, fin
from .errors import ParameterError, ParseError


@dataclass(frozen=True, order=True)
class Prog:
    """The arithmetic progression {first + step*t : t >= 0}."""

    first: int
    step: int

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ParameterError(f"progression step must be positive, got {self.step}")
        if self.first < 0:
            raise ParameterError(f"progression start must be >= 0, got {self.first}")

    def __contains__(self, x: int) -> bool:
        return x >= self.first and (x - self.first) % self.step == 0

    def value(self, i: int) -> int:
        return self.first + self.step * i

    def index(self, x: int) -> int:
        if x not in self:
            raise ParameterError(f"{x} is not on progression {render_prog(self)}")
        return (x - self.first) // self.step

    def split(self, parts: int) -> list["Prog"]:
        """Partition into `parts` interleaved sub-progressions."""
        return [Prog(self.first + j * self.step, self.step * parts) for j in range(parts)]


def render_prog(p: Prog) -> str:
    r = p.first % p.step
    t0 = (p.first - r) // p.step
    return f"({r} mod {p.step} from {t0})"


def prog_from_parts(residue: int, modulus: int, start_index: int) -> Prog:
    if modulus <= 0:
        raise ParameterError("progression modulus must be positive")
    if not 0 <= residue < modulus:
        raise ParameterError(f"residue {residue} out of range for modulus {modulus}")
    if start_index < 0:
        raise ParameterError("progression start index must be >= 0")
    return Prog(residue + modulus * start_index, modulus)


def progs_intersect(a: Prog, b: Prog) -> Prog | None:
    """Intersection of two progressions (again a progression, or empty)."""
    g = gcd(a.step, b.step)
    if (b.first - a.first) % g != 0:
        return None
    step = lcm(a.step, b.step)
    # Walk a's progression to the first point also on b; the stride of a
    # inside the solution class is step, so at most step//a.step probes.
    x = max(a.first, b.first)
    x = a.first + ((x - a.first + a.step - 1) // a.step) * a.step
    for _ in range(step // a.step):
        if x in b:
            return Prog(x, step)
        x += a.step
    return None


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class EPSet:
    threshold: int
    period: int
    residues: frozenset[int]
    low: frozenset[int]

    def __contains__(self, x: int) -> bool:
        if x < self.threshold:
            return x in self.low
        return x % self.period in self.residues

    def __iter__(self):
        return self.iter_ascending()

    def iter_ascending(self):
        yield from sorted(self.low)
        if not self.residues:
            return
        x = self.threshold
        while True:
            if x % self.period in self.residues:
                yield x
            x += 1

    # -- Boolean algebra -------------------------------------------------

    def union(self, other: "EPSet") -> "EPSet":
        return _combine(self, other, lambda p, q: p or q)

    def intersect(self, other: "EPSet") -> "EPSet":
        return _combine(self, other, lambda p, q: p and q)

    def difference(self, other: "EPSet") -> "EPSet":
        return _combine(self, other, lambda p, q: p and not q)

    def complement(self) -> "EPSet":
        res = frozenset(range(self.period)) - self.residues
        low = frozenset(range(self.threshold)) - self.low
        return make_epset(self.threshold, self.period, res, low)

    def is_subset(self, other: "EPSet") -> bool:
        return self.difference(other).is_empty()

    def is_empty(self) -> bool:
        return not self.residues and not self.low

    # -- Derived data ----------------------------------------------------

    def card(self) -> Card:
        return ALEPH0 if self.residues else fin(len(self.low))

    def is_moiety(self) -> bool:
        """Infinite with infinite complement."""
        return self.card() == ALEPH0 and self.complement().card() == ALEPH0

    def decompose(self) -> tuple[list[Prog], list[int]]:
        """Disjoint progressions covering the tail, plus the finite part."""
        progs = []
        for r in sorted(self.residues):
            first = self.threshold + ((r - self.threshold) % self.period)
            progs.append(Prog(first, self.period))
        return progs, sorted(self.low)

    def split(self, parts: int) -> list["EPSet"]:
        """Partition an infinite set into `parts` infinite pieces."""
        if parts <= 0:
            raise ParameterError("split needs at least one part")
        if parts == 1:
            return [self]
        if self.card() != ALEPH0:
            raise ParameterError("only infinite sets can be split into moieties")
        progs, low = self.decompose()
        head = progs[0].split(parts)
        out = [from_prog(p) for p in head]
        rest = EMPTY
        for p in progs[1:]:
            rest = rest.union(from_prog(p))
        rest = rest.union(from_finite(low))
        out[0] = out[0].union(rest)
        return out

    def take_first(self, k: int) -> "EPSet":
        """The k smallest elements as a finite EPSet."""
        if self.card() < fin(k):
            raise ParameterError(f"set has fewer than {k} elements")
        return from_finite(itertools.islice(self.iter_ascending(), k))

    def min(self) -> int:
        if self.is_empty():
            raise ParameterError("empty set has no minimum")
        return next(self.iter_ascending())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"EPSet({render_epset(self)!r})"


def make_epset(threshold: int, period: int, residues, low) -> EPSet:
    """Build an EPSet in canonical form from an arbitrary description."""
    if period <= 0:
        raise ParameterError("period must be positive")
    if threshold < 0:
        raise ParameterError("threshold must be >= 0")
    res = {r % period for r in residues}
    lowset = set(low)
    if any(x < 0 or x >= threshold for x in lowset):
        raise ParameterError("low part entries must lie in [0, threshold)")

    # Minimal period: repeatedly divide out primes p for which the residue
    # set is invariant under adding period/p.
    m = period
    changed = True
    while changed:
        changed = False
        for p in _prime_factors(m):
            d = m // p
            if all((c + d) % m in res for c in res):
                res = {c % d for c in res}
                m = d
                changed = True
                break

    # Minimal threshold: one more than the largest point below the boundary
    # where explicit membership disagrees with the tail formula.  Checking
    # only low points and, per residue, the first tail hit missing from the
    # low set keeps this independent of the boundary's magnitude.
    n = 0
    for x in lowset:
        if x % m not in res:
            n = max(n, x + 1)
    for r in res:
        if threshold > r:
            x = threshold - 1 - ((threshold - 1 - r) % m)
            while x >= 0 and x in lowset:
                x -= m
            n = max(n, x + 1)
    lowset = {x for x in lowset if x < n}
    return EPSet(n, m, frozenset(res), frozenset(lowset))


def _combine(a: EPSet, b: EPSet, op) -> EPSet:
    # Classes mod lcm are generated from each side's residues rather than by
    # sweeping the whole range, so the cost follows the descriptions involved
    # instead of the lcm, which compounds quickly under repeated unions.
    tt, tf = op(True, True), op(True, False)
    ft, ff = op(False, True), op(False, False)
    ma, mb = a.period, b.period
    m = lcm(ma, mb)
    n = max(a.threshold, b.threshold)
    if ff:  # pragma: no cover - no shipped operation keeps "neither" classes
        res = {
            c
            for c in range(m)
            if op(c % ma in a.residues, c % mb in b.residues)
        }
    else:
        res = set()
        a_classes = len(a.residues) * (m // ma)
        b_classes = len(b.residues) * (m // mb)
        sweep_a = tf or (tt and (ft or a_classes <= b_classes))
        if sweep_a:
            for x in a.residues:
                for r in range(x, m, ma):
                    if r % mb in b.residues:
                        if tt:
                            res.add(r)
                    elif tf:
                        res.add(r)
        if ft or (tt and not sweep_a):
            keep_both = tt and not sweep_a
            for y in b.residues:
                for r in range(y, m, mb):
                    if r % ma in a.residues:
                        if keep_both:
                            res.add(r)
                    elif ft:
                        res.add(r)
    low = {x for x in range(n) if op(x in a, x in b)}
    return make_epset(n, m, res, low)


EMPTY = make_epset(0, 1, (), ())
NATURALS = make_epset(0, 1, (0,), ())


def from_finite(xs) -> EPSet:
    pts = set(xs)
    if not pts:
        return EMPTY
    return make_epset(max(pts) + 1, 1, (), pts)


def from_prog(p: Prog) -> EPSet:
    return make_epset(p.first, p.step, (p.first % p.step,), ())


def residue_class(r: int, m: int) -> EPSet:
    return make_epset(0, m, (r % m,), ())


def union_all(sets) -> EPSet:
    """Union of many sets, organised to keep intermediate periods small.

    A plain left fold re-expresses the accumulated residue set over every
    intermediate lcm, which blows up when many parts carry large mixed
    periods.  Instead, parts sharing a period are merged first (their
    residue sets union directly, and canonicalisation often shrinks the
    period, e.g. when split families tile a coarser class), repeating
    while periods keep collapsing; the leftovers are folded smallest
    joint period first.
    """
    items = [s for s in sets if not s.is_empty()]
    if not items:
        return EMPTY
    while len(items) > 1:
        groups: dict[int, list[EPSet]] = {}
        for s in items:
            groups.setdefault(s.period, []).append(s)
        if all(len(g) == 1 for g in groups.values()):
            break
        items = []
        for m, grp in groups.items():
            if len(grp) == 1:
                items.append(grp[0])
                continue
            n = max(s.threshold for s in grp)
            res = frozenset().union(*(s.residues for s in grp))
            low = set()
            for s in grp:
                low |= s.low
                for r in s.residues:
                    first = s.threshold + (r - s.threshold) % m
                    low.update(range(first, n, m))
            items.append(make_epset(n, m, res, low))
    acc = items[0]
    rest = items[1:]
    while rest:
        k = min(range(len(rest)), key=lambda i: lcm(acc.period, rest[i].period))
        acc = acc.union(rest.pop(k))
    return acc


# -- Text format ---------------------------------------------------------


def render_epset(s: EPSet) -> str:
    res = ",".join(str(r) for r in sorted(s.residues))
    low = ",".join(str(x) for x in sorted(s.low))
    return f"ep N={s.threshold} m={s.period} R={{{res}}} L={{{low}}}"


def _parse_intset(text: str, what: str) -> set[int]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"expected braces around {what}, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return set()
    try:
        return {int(tok) for tok in body.split(",")}
    except ValueError as exc:
        raise ParseError(f"bad integer in {what}: {body!r}") from exc


def parse_epset(text: str) -> EPSet:
    toks = text.strip().split(None, 1)
    if not toks or toks[0] != "ep":
        raise ParseError(f"eventually periodic set must start with 'ep': {text!r}")
    if len(toks) == 1:
        raise ParseError("truncated set literal")
    fields = {}
    for part in toks[1].split():
        if "=" not in part:
            raise ParseError(f"expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        fields[key] = val
    missing = {"N", "m", "R", "L"} - fields.keys()
    if missing:
        raise ParseError(f"set literal missing fields {sorted(missing)}")
    try:
        n = int(fields["N"])
        m = int(fields["m"])
    except ValueError as exc:
        raise ParseError("N and m must be integers") from exc
    res = _parse_intset(fields["R"], "R")
    low = _parse_intset(fields["L"], "L")
    if any(x < 0 or x >= n for x in low):
        raise ParseError("low part entries must lie below the threshold")
    if any(r < 0 or r >= m for r in res):
        raise ParseError("residues must lie in [0, m)")
    return make_epset(n, m, res, low)
