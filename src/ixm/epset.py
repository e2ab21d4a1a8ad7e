"""Eventually periodic subsets of the naturals, in canonical form.

An EPSet is determined by a threshold N, a period m, a residue set
R <= Z_m describing membership at and beyond N, and an explicit low part
L <= {0..N-1}.  R and L are stored as int bitmasks (`Bits`); `_binary`
does a binary Boolean operation bitwise at the joint period and threshold,
and the complement flips both masks.  Canonical form uses the minimal
period of the tail and then the minimal threshold for that period, so
structural equality is extensional equality.  The minimal period p of an
m-bit residue word divides m, and m/p divides the number of residues, so
only the primes q of gcd(m, #residues) can shrink it: q does, as often as
it divides what is left, while the word equals itself rotated by m/q.  A
word whose residue count is coprime to m (a single progression, its
complement) is canonical as it stands.  `_primes`, the package's one
trial division, tries divisors up to MAX_TRIAL_DIVISOR = 10^6, so it is
exact up to 10^12; these gcds are at most MAX_BITS = 2^24, where it stops
by 4,096.  The class is closed under the Boolean operations, which is
what makes the symbolic side of the workbench decidable.  Masks are
capped at MAX_BITS bits: a threshold or (joint) period beyond it raises
ResourceGuardError before anything is allocated.

Every set a chart carries (its domain and image, the image or preimage
of a set) is built by one merge, `union_parts`, from parts that hold
their tail as residue positions, not masks: one for a progression
(`prog_part`), those `affine_image` computes for a piece's image of a
set.  The merge makes one residue mask per period and canonicalises once
per period.  `affine_image` maps s = (N, m, R, L) through a piece
src.value(i) -> dst.value(i) directly.  From the first source index i0
that the tail of s decides, with source point x0 and g = gcd(m, ss), the
source indices that hit s repeat mod k = m/g: a residue r of R with
r = x0 (mod g) is hit at the indices j = (r - x0)/g * (ss/g)^-1 (mod k),
and no other residue is hit.  Those indices, spread by the destination
step, are the tail positions.  Its Python loops visit set bits only (of
R, of the index word and of the low part), never the indices below the
threshold or the positions of the word.

Iterating and rendering a mask cost about what its text costs.  A mask
with at least one bit in ten set is listed by a C-level walk over its
digit bytes (`_digits`, one byte per bit position), a sparser one by
jumping between its set bits (`_ones`).  `render_ints` picks the decimal
text of a dense mask's members from two fixed 1,000-entry tables, block
of 1,000 positions by block, so it makes no int per member; a mask with
fewer than one bit in 22 set is listed by `_ones` and formatted with one
`%` call.  No Python statement runs per member of a dense mask.  The
tables are constants, not a cache: they hold the same 2,000 strings
whatever is rendered.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, lcm
from operator import and_, or_
from typing import NamedTuple

from .cardinal import ALEPH0, Card, fin
from .errors import ParameterError, ParseError, ResourceGuardError

MAX_BITS = 2**24  # widest residue or low-part mask an EPSet may hold
MAX_TRIAL_DIVISOR = 10**6  # largest divisor `_primes` tries
_MASK_OR_WIDTH = 1024  # widest mask `_mask` builds by ORing single bits


class _ProgFields(NamedTuple):
    first: int
    step: int


class Prog(_ProgFields):
    """The arithmetic progression {first + step*t : t >= 0}.

    A NamedTuple (first, step), so hashing, equality and order are the
    tuple's, done in C; it equals the plain tuple too: Prog(0, 2) == (0, 2).
    """

    __slots__ = ()

    def __new__(cls, first: int, step: int) -> "Prog":
        if step <= 0:
            raise ParameterError(f"progression step must be positive, got {step}")
        if first < 0:
            raise ParameterError(f"progression start must be >= 0, got {first}")
        return tuple.__new__(cls, (first, step))

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
    """Intersection of two progressions (again a progression, or empty),
    by the Chinese remainder theorem: no walk, whatever the steps."""
    g = gcd(a.step, b.step)
    if (b.first - a.first) % g != 0:
        return None
    # x = a.first + a.step*t solves x = b.first (mod b.step) for t = t0
    # (mod b.step/g); the least such x at or above both starts is the answer.
    k = b.step // g
    t0 = (b.first - a.first) // g * pow(a.step // g, -1, k) % k
    step = a.step * k
    x = a.first + a.step * t0
    if x < b.first:
        x += -(-(b.first - x) // step) * step
    return Prog(x, step)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class Bits(int):
    """A finite set of naturals held as an int bitmask: x is in it iff bit x is set.

    It stays an int, so equality and hashing are the int's; it adds the set
    protocol that callers read: membership, ascending iteration and size.

    Iteration takes one of two loops, chosen by density.  When at least one
    bit in ten is set, `itertools.compress` walks every bit position in C,
    at about 25-50 ns a position; otherwise a Python generator jumps from
    set bit to set bit with `str.rfind` on the unreversed binary text, at
    about 150 ns a set bit.  On 89k set bits of a 94,755-bit mask the walk
    takes 3.0 ms and the jumps 14.0 ms; on 2 set bits of 10**5 the walk
    would take 2.1 ms and the jumps take 0.07 ms, so sparse masks keep the
    jumps.  The two meet near one set bit in ten, on masks of 10**4 and
    10**6 positions alike (Python 3.11, shared 2-core Xeon).
    """

    __slots__ = ()

    def __contains__(self, x: int) -> bool:
        return x >= 0 and (self >> x) & 1 == 1

    def __iter__(self):
        if 10 * self.bit_count() >= self.bit_length():
            return itertools.compress(itertools.count(), _digits(self))
        return _ones(self)

    def __len__(self) -> int:
        return self.bit_count()


def _digits(bits: int) -> bytes:
    """One byte per bit position of `bits`, lowest first: byte x is 1 if
    bit x is set and 0 if not (a single 0 byte for the empty mask)."""
    return bin(bits)[:1:-1].encode().translate(_BIT_BYTES)


def _ones(bits: int):
    """The set bits of `bits`, ascending, one `str.rfind` per set bit on its
    binary text, read from the right so that the text is never reversed."""
    text = bin(bits)
    top = len(text) - 1  # bit x is text[top - x]
    i = text.rfind("1", 2)
    while i >= 2:
        yield top - i
        i = text.rfind("1", 2, i)


class _EPSetFields(NamedTuple):
    threshold: int
    period: int
    residues: Bits  # bit r set iff x = r (mod period) is a member for x >= threshold
    low: Bits  # the members below threshold


class EPSet(_EPSetFields):
    """Canonical fields; neither mask is wider than MAX_BITS bits.  A tuple like
    `Prog`, hashed and compared in C.  Iterating it lists the members, so never
    unpack it: read fields by name or index, as `__getnewargs__` does for copy."""

    __slots__ = ()

    def __getnewargs__(self) -> tuple[int, int, Bits, Bits]:
        return self[:]  # the fields, as a plain tuple

    def __contains__(self, x: int) -> bool:
        if x < self.threshold:
            return x in self.low
        return x % self.period in self.residues

    def __iter__(self):
        # One step per member: the first period walks the residues, rotated to
        # start at n, in doubling windows; the next ones repeat its offsets.
        yield from self.low
        n, m, res, lo = self.threshold, self.period, self.residues, 0
        rot = Bits(((res >> n % m) | (res << m - n % m)) & _full(m))
        while lo < m:
            yield from (n + lo + o for o in Bits((rot & _full(2 * lo + 64)) >> lo))
            lo = 2 * lo + 64
        offsets = list(rot)
        for base in itertools.count(n + m, m) if offsets else ():
            yield from (base + o for o in offsets)

    # -- Boolean algebra -------------------------------------------------

    def union(self, other: "EPSet") -> "EPSet":
        return _binary(or_, self, other)

    def intersect(self, other: "EPSet") -> "EPSet":
        return _binary(and_, self, other)

    def difference(self, other: "EPSet") -> "EPSet":
        return _binary(lambda a, b: a & ~b, self, other)

    def complement(self) -> "EPSet":
        # Canonical: the flip keeps the least period and the last disagreement.
        n, m = self.threshold, self.period
        return EPSet(n, m, Bits(self.residues ^ _full(m)), Bits(self.low ^ _full(n)))

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
        for r in self.residues:
            first = self.threshold + ((r - self.threshold) % self.period)
            progs.append(Prog(first, self.period))
        return progs, list(self.low)

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
        out[0] = union_all([out[0], from_finite(low)] + [from_prog(p) for p in progs[1:]])
        return out

    def take_first(self, k: int) -> "EPSet":
        """The k smallest elements as a finite EPSet."""
        if self.card() < fin(k):
            raise ParameterError(f"set has fewer than {k} elements")
        return from_finite(itertools.islice(self, k))

    def min(self) -> int:
        if self.is_empty():
            raise ParameterError("empty set has no minimum")
        return next(iter(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"EPSet({render_epset(self)!r})"


def _guard(threshold: int, period: int) -> None:
    if max(threshold, period) > MAX_BITS:
        raise ResourceGuardError(
            f"threshold {threshold} or period {period} exceeds the {MAX_BITS}-bit mask limit"
        )


def _full(n: int) -> int:
    return (1 << n) - 1


def _repeat(bits: int, p: int, n: int) -> int:
    """The first n bits of the p-bit pattern `bits` repeated forever."""
    while p < n:
        bits |= bits << p
        p *= 2
    return bits & _full(n)


def _mask(xs, width: int) -> int:
    """The mask of the points xs, which must lie in [0, width).

    Up to _MASK_OR_WIDTH bits the points are ORed in as `1 << x`; a wider
    mask is set byte by byte in a `bytearray`, because each OR copies the
    whole int built so far.  On Python 3.11 (shared 2-core Xeon) the OR
    loop took 0.3-0.55 of the `bytearray` time on 3 points at any width
    from 2 to 8,192.  On masks a tenth, half or fully set it took 0.77-0.97
    of it in 10 of 12 timings at 512 and 1,024 bits (1.13 and 1.25 in the
    other two), 0.94-1.15 at 1,536 and 2,048 bits, 1.18 at 4,096 and 2.0 at
    8,192.  Both paths raise the same ParameterError.
    """
    if width <= _MASK_OR_WIDTH:
        out = 0
        for x in xs:
            if not 0 <= x < width:
                raise ParameterError("low part entries must lie in [0, threshold)")
            out |= 1 << x
        return out
    buf = bytearray(width // 8 + 1)
    for x in xs:
        if not 0 <= x < width:
            raise ParameterError("low part entries must lie in [0, threshold)")
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


def make_epset(threshold: int, period: int, residues, low) -> EPSet:
    """Build an EPSet in canonical form from an arbitrary description."""
    if period <= 0:
        raise ParameterError("period must be positive")
    if threshold < 0:
        raise ParameterError("threshold must be >= 0")
    _guard(threshold, period)
    res = _mask((r % period for r in residues), period)
    return _canonical(threshold, period, res, _mask(low, threshold))


def _canonical(n: int, m: int, res: int, low: int) -> EPSet:
    m, res = _least_period(m, res)
    # Minimal threshold: one past the last point where the low part
    # disagrees with the tail pattern.
    n = (low ^ _repeat(res, m, n)).bit_length()
    return EPSet(n, m, Bits(res), Bits(low & _full(n)))


def _least_period(m: int, res: int) -> tuple[int, int]:
    """The least period of the cyclic m-bit word `res`, and the word cut to it."""
    # It divides m, and m over it divides the residue count, so only the
    # primes of g = gcd(m, count) can divide m away.  A prime q does, as
    # long as it divides m, while rotating the word by d = m/q fixes it; as
    # d divides m, that holds iff the word shifted down by d equals its low
    # m - d bits.  The empty and the full word have period 1 (and g = m
    # there, which would cost a factorisation).
    count = res.bit_count()
    if count == 0 or count == m:
        return 1, res & 1
    for q in _primes(gcd(m, count)):
        while m % q == 0 and res >> (d := m // q) == res & _full(m - d):
            m = d
            res &= _full(m)
    return m, res


@functools.lru_cache(maxsize=4096)
def _primes(g: int) -> tuple[int, ...]:
    """The distinct prime factors of g, by trial division up to MAX_TRIAL_DIVISOR:
    exact for g <= MAX_TRIAL_DIVISOR**2.  Above that, a cofactor with no
    prime factor up to the bound is dropped."""
    out = []
    q = 2
    while q * q <= g and q <= MAX_TRIAL_DIVISOR:
        if g % q == 0:
            out.append(q)
            while g % q == 0:
                g //= q
        q += 1
    if 1 < g < q * q:
        out.append(g)
    return tuple(out)


def _binary(op, a: EPSet, b: EPSet) -> EPSet:
    """The Boolean kernel: the bitwise `op` on both masks at the joint period
    and threshold, guarded before any mask is made, then canonicalised."""
    m = a.period if a.period == b.period else lcm(a.period, b.period)
    n = max(a.threshold, b.threshold)
    _guard(n, m)
    (ra, la), (rb, lb) = _lift(a, n, m), _lift(b, n, m)
    return _canonical(n, m, op(ra, rb), op(la, lb))


def _lift(s: EPSet, n: int, m: int) -> tuple[int, int]:
    """The masks of s at a period m its own divides and a threshold n >= its
    own; with no residues it lifts to any m."""
    t, p, res = s.threshold, s.period, s.residues
    low = s.low if t == n else s.low | _repeat(res, p, n) >> t << t
    return (res if p == m else _repeat(res, p, m)), low


EMPTY = make_epset(0, 1, (), ())
NATURALS = make_epset(0, 1, (0,), ())


def from_finite(xs) -> EPSet:
    # Threshold max + 1, period 1 and an empty tail are already canonical.
    pts = set(xs)
    if not pts:
        return EMPTY
    n = max(pts) + 1
    _guard(n, 1)
    return EPSet(n, 1, Bits(0), Bits(_mask(pts, n)))


def from_prog(p: Prog) -> EPSet:
    # A count of one is coprime to any period, so `step` is minimal, and the
    # part's threshold, one past the class's last non-member, is least.
    n, m, (r,), _ = prog_part(p)
    return EPSet(n, m, Bits(1 << r), Bits(0))


def residue_class(r: int, m: int) -> EPSet:
    if m <= 0:
        raise ParameterError("period must be positive")
    return from_prog(Prog(r % m, m))


class _Part(NamedTuple):
    """A raw set for `union_parts`: the mask `low` below `threshold`, and from
    it on the x with x % period among the positions `tail` (read once; None
    for an empty tail)."""

    threshold: int
    period: int
    tail: object
    low: int


def prog_part(p: Prog) -> _Part:
    """The progression p as a part of one position, from one past the last
    non-member of its class (one step before `first`); p is guarded first."""
    _guard(p.first, p.step)
    return _Part(max(p.first - p.step + 1, 0), p.step, (p.first % p.step,), 0)


def affine_image(s: EPSet, src: Prog, dst: Prog) -> _Part | None:
    """The image of s under the affine piece src.value(i) -> dst.value(i),
    built in one pass as a `_Part` with lazy tail positions, or None when
    it is empty.  `union_parts` merges it into one mask per period, as it
    merges the progressions of domains and images.

    With s = (n, m, R, L) and src = sf + i*ss, dst = df + i*ds:

    - Tail start.  From index i0 on, membership of src.value(i) in s is
      read off R.  i0 is one past the last source point below n where L
      and the pattern of R disagree (0 if there is none).  So the
      threshold and period guarded are those of s restricted to the
      source, not of s, and the guard refuses nothing that mapping that
      restriction progression by progression would answer.
    - Tail.  With x0 = src.value(i0), g = gcd(m, ss) and k = m/g, the
      point x0 + j*ss is in s iff it is r (mod m) for some r in R with
      r = x0 (mod g), which fixes j = (r - x0)/g * (ss/g)^-1 (mod k).  Those
      j form a k-bit word, cut to its least period p; the image's tail then
      has period p*ds and the positions (y0 + j*ds) mod p*ds for the j in
      the word, where y0 = dst.value(i0).
    - Low part.  The points of L on the source below x0, each sent to its
      destination; all lie below y0 - ds + 1, the threshold used.

    Cost rule: no loop runs over the indices below i0 or over the k
    positions of the word.  The Python loops visit only the set bits of R,
    of the word and of the low part they map (none at all for a shift,
    where ss == ds and the low part is moved by one shift); the disagreement
    search is bitwise on L.  Threshold and period are guarded before
    the image's low mask is allocated; the word itself is no wider than m.
    For an infinite image the period returned is the least period of its
    tail (residues in one class mod ds repeat only at multiples of ds);
    the threshold need not be the least.
    """
    n, m = s.threshold, s.period
    sf, ss, df, ds = src.first, src.step, dst.first, dst.step
    i0, lo = 0, 0
    if n > sf:
        on_src = _repeat(1, ss, n - sf) << sf
        clash = (s.low ^ _repeat(s.residues, m, n)) & on_src
        if clash:
            i0 = (clash.bit_length() - 1 - sf) // ss + 1
            lo = s.low & on_src & _full(sf + (i0 - 1) * ss + 1)
    x0 = sf + i0 * ss
    g = gcd(m, ss)
    k = m // g
    if k == 1:  # the source points from x0 on share one residue mod m
        p, word = 1, s.residues >> x0 % m & 1
    else:
        inv = pow(ss // g, -1, k)
        word = _mask(((r - x0) // g * inv % k for r in s.residues if (r - x0) % g == 0), k)
        p, word = _least_period(k, word)
    if not (word or lo):
        return None
    n_img, m_img = max(df + (i0 - 1) * ds + 1, 0), p * ds
    _guard(n_img, m_img)
    y0 = df + i0 * ds
    tail = ((y0 + j * ds) % m_img for j in Bits(word)) if word else None
    if ss == ds:
        low = lo << df >> sf
    else:
        low = _mask((df + (x - sf) // ss * ds for x in Bits(lo)), n_img) if lo else 0
    return _Part(n_img, m_img, tail, low)


def union_parts(parts, points) -> EPSet:
    """The union of `_Part`s and of the finite `points`: positions in, one
    mask per period out, for domains, images and preimages alike.

    Parts are grouped by period in order of first appearance; finite parts
    and the points (guarded after the parts, as `from_finite` guards them)
    count as period 1, and a period-1 group beside one other group joins
    it.  A group ORs its low masks, and makes one `_mask` call over the
    tail positions of all its parts that share a threshold and a period;
    each such mask is lifted to the group's period, and below the group's
    threshold fills the low part as `_lift` does, so a far pair point
    costs one fill, not one per piece.  Each tail is read once and each
    group canonicalised once; only groups of different periods meet in
    `union_all`.  Each part was guarded on its own, so no joint mask
    within a group needs a guard.
    """
    groups: dict[int, list[_Part]] = {}
    for part in parts:
        groups.setdefault(part.period if part.tail is not None else 1, []).append(part)
    if points:
        n = max(points) + 1
        _guard(n, 1)
        groups.setdefault(1, []).append(_Part(n, 1, None, _mask(points, n)))
    if len(groups) == 2 and 1 in groups:
        finite = groups.pop(1)
        m, tail = groups.popitem()
        groups[m] = finite + tail
    sets = []
    for m, group in groups.items():
        n = max([part.threshold for part in group])
        res = low = 0
        tails: dict[tuple[int, int], list] = {}
        for t, p, tail, lo in group:
            if lo:  # an OR copies the whole of `low`, however small `lo` is
                low |= lo
            if tail is not None:
                tails.setdefault((t, p), []).append(tail)
        for (t, p), same in tails.items():
            r = _mask(itertools.chain.from_iterable(same), p)
            if t < n:
                low |= _repeat(r, p, n) >> t << t
            res |= r if p == m else _repeat(r, p, m)
        sets.append(_canonical(n, m, res, low))
    return sets[0] if len(sets) == 1 else union_all(sets)


def union_all(sets) -> EPSet:
    """Union of many sets, organised to keep intermediate periods small.

    A plain left fold re-expresses the accumulated residue set over every
    intermediate lcm, which blows up when many parts carry large mixed
    periods.  Instead, parts sharing a period are merged first (the kernel
    folded over each group, and canonicalisation often shrinks the period,
    e.g. when split families tile a coarser class), repeating while periods
    keep collapsing; the leftovers are folded smallest joint period first.
    """
    items = [s for s in sets if not s.is_empty()]
    if len(items) < 2:
        return items[0] if items else EMPTY
    while len(items) > 1:
        groups: dict[int, list[EPSet]] = {}
        for s in items:
            groups.setdefault(s.period, []).append(s)
        if len(groups) == len(items):
            break
        items = [functools.reduce(functools.partial(_binary, or_), g) for g in groups.values()]
    acc = items[0]
    rest = items[1:]
    while rest:
        k = min(range(len(rest)), key=lambda i: lcm(acc.period, rest[i].period))
        acc = acc.union(rest.pop(k))
    return acc


# -- Text format ---------------------------------------------------------


# The decimal text of 0..999, bare for block 0 and zero-padded to three
# digits for the tail of a member of a later block: 2,000 strings, built once.
_SHORT = [str(x) for x in range(1000)]
_PADDED = ["%03d" % x for x in range(1000)]
_RENDER_DENSITY = 22  # the tables render a mask with at least one bit in 22 set


def render_ints(bits: Bits) -> str:
    """The members of the mask `bits`, ascending and comma-separated.

    A mask with at least one bit in _RENDER_DENSITY set is listed block by
    block from the fixed tables, and no int is made per member.  Its digit
    bytes are cut into blocks of 1,000 positions, and a block with no 1 is
    skipped by one memchr (`1 in chunk`).  Block 0 is the `_SHORT` strings
    that `compress` picks by its bytes, joined by ","; block k >= 1, with
    head h = str(k), is h followed by its `_PADDED` strings joined by
    "," + h, since member 1000*k + j reads h then j in three digits.  The
    blocks are joined by ",".

    The table walk costs about 11 ns a position, whatever the density.  A
    sparser mask lists its set bits with `_ones` and formats them with one
    `%` call, at about 1.3 ns a position and 200 ns a member.  On 10**3 to
    10**6 positions the two meet between one bit in 20 and one in 24
    (Python 3.11, shared 2-core Xeon): at one in 20 the tables take
    0.92-0.94 of the `%` time, at one in 24 1.04-1.10 of it, and at one in
    32 1.3-1.4.  On the 93,225 members of a 94,755-bit mask they take 3.2 ms
    against 8.3 ms, and on a half-full 840-bit mask 16 us against 50 us.
    """
    if not bits:
        return ""
    if _RENDER_DENSITY * bits.bit_count() < bits.bit_length():
        xs = tuple(_ones(bits))
        return ("%d," * len(xs) % xs)[:-1]
    digits = _digits(bits)
    blocks = []
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        if 1 in chunk:
            if start:
                head = str(start // 1000)
                blocks.append(head + ("," + head).join(itertools.compress(_PADDED, chunk)))
            else:
                blocks.append(",".join(itertools.compress(_SHORT, chunk)))
    return ",".join(blocks)


def render_epset(s: EPSet) -> str:
    res = render_ints(s.residues)
    low = render_ints(s.low)
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


_EP_FIELDS = {"N", "m", "R", "L"}


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
        if key not in _EP_FIELDS:
            raise ParseError(f"set literal has no field {key!r}: {text!r}")
        if key in fields:
            raise ParseError(f"set field {key!r} given twice: {text!r}")
        fields[key] = val
    missing = _EP_FIELDS - fields.keys()
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
