"""Ultrafilter oracles on the naturals, and the filter-stabiliser test.

Two decidable families are provided:

* ``Principal(x)`` — sets containing the point x.
* ``ResidueTower(choices)`` — the nonprincipal family determined by a
  compatible residue choice at every prime power.  A tower holds finitely
  many choices ``p**a = r``, each with the least a such that r < p**a, so
  equal oracles are equal values (a literal may name a prime twice, with
  agreeing residues, or use a larger a: ``make_tower`` reduces it).  Every
  unmentioned prime defaults to residue 0, so the residue modulo any m
  comes from the choices alone, with no factoring of m.  A periodic set is
  accepted when its residues modulo its own period contain the tower's
  residue at that period; since eventually periodic sets are closed under
  the boolean operations and exactly one of S, complement(S) is accepted,
  this is an ultrafilter on the periodic algebra.

``stabilises_filter`` decides whether a permutation maps accepted sets
to accepted sets, and on failure produces an explicit accepted set with
rejected image.

Tower primes are tested by deterministic Miller–Rabin with the prime bases
2 to 41, which is exact below MAX_PRIME_TEST = 3317044064679887385961981
(about 3.3·10^24; bases 2 to 37 alone are exact only below 3.2·10^23).  A
candidate at or above it raises ResourceGuardError ("cannot decide whether
p is prime: it is not below MAX_PRIME_TEST = ...").
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .cardinal import ALEPH0, fin
from .chart import Chart, apply_chart, dom_set, im_set, image_of_set
from .epset import MAX_TRIAL_DIVISOR, EPSet, NATURALS, Prog, _primes, from_finite, from_prog
from .errors import InternalError, ParameterError, ParseError, ResourceGuardError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = _MR_BASES[:6]
MAX_PRIME_TEST = 3317044064679887385961981  # Miller–Rabin on _MR_BASES is exact below this


def _is_prime(p: int) -> bool:
    """Deterministic Miller–Rabin: exact for every p below MAX_PRIME_TEST."""
    if p >= MAX_PRIME_TEST:
        raise ResourceGuardError(
            f"cannot decide whether {p} is prime: it is not below MAX_PRIME_TEST = {MAX_PRIME_TEST}"
        )
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class _PrincipalFields(NamedTuple):
    point: int


class Principal(_PrincipalFields):
    """The ultrafilter of all sets containing a fixed point."""

    __slots__ = ()

    def __new__(cls, point: int) -> "Principal":
        if point < 0:
            raise ParameterError("principal point must be a natural number")
        return tuple.__new__(cls, (point,))


def _prime_power(p: int, a: int) -> int:
    """p**a, once p is checked prime and a positive."""
    if not _is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if a < 1:
        raise ParameterError(f"exponent must be >= 1, got {a}")
    return p**a


class _TowerFields(NamedTuple):
    choices: tuple[tuple[int, int, int], ...]  # (prime, exponent, residue)


class ResidueTower(_TowerFields):
    """A compatible residue choice at each prime power; finitely many
    primes are non-zero.  ``choices`` maps prime -> (exponent, residue)
    with p**(exponent-1) <= residue < p**exponent: the least exponent."""

    __slots__ = ()

    def __new__(cls, choices: tuple[tuple[int, int, int], ...]) -> "ResidueTower":
        seen = set()
        for p, a, r in choices:
            top = _prime_power(p, a)
            if not 0 < r < top:
                raise ParameterError(
                    f"residue {r} out of range for {p}**{a} (0 means: omit the entry)"
                )
            if r < top // p:
                raise ParameterError(f"exponent {a} is not the least for residue {r} mod {p}**{a}")
            if p in seen:
                raise ParameterError(f"prime {p} listed twice")
            seen.add(p)
        return tuple.__new__(cls, (choices,))

    def residue_at(self, m: int) -> int:
        """The tower's residue modulo m, from the choices alone: m is not
        factored.  Above a chosen exponent the higher digits are zero, so
        the tower point is r modulo the power of p in m; the cofactor of m
        left once the chosen primes are divided out takes residue 0."""
        if m < 1:
            raise ParameterError("modulus must be positive")
        rem, mod = 0, 1
        for p, _, r in self.choices:
            pk = 1
            while m % p == 0:
                m //= p
                pk *= p
            rem += mod * ((r - rem) * pow(mod, -1, pk) % pk)
            mod *= pk
        return m * (rem * pow(m, -1, mod) % mod)

    @property
    def base_modulus(self) -> int:
        """Twice the product of the least powers p**a of the choices: the
        modulus of the accepted class that witnesses and law suites build on."""
        m = 2
        for p, a, _ in self.choices:
            m *= p**a
        return m


def make_tower(entries) -> ResidueTower:
    """Build a tower from (prime, exponent, residue) triples, merging
    multiple mentions of one prime after checking compatibility; each
    non-zero residue is stored with its least exponent.  Every entry's
    prime is tested once, here, so the merged choices, which meet every
    check of ``ResidueTower.__new__`` by construction, go to ``_make``."""
    by_prime: dict[int, tuple[int, int]] = {}
    for p, a, r in entries:
        r %= _prime_power(p, a)
        if p in by_prime:
            a0, r0 = by_prime[p]
            hi, lo = max((a, r), (a0, r0)), min((a, r), (a0, r0))
            if hi[1] % p ** lo[0] != lo[1] % p ** lo[0]:
                raise ParameterError(
                    f"incompatible residues for prime {p}: "
                    f"{r0} mod {p}**{a0} vs {r} mod {p}**{a}"
                )
            by_prime[p] = hi
        else:
            by_prime[p] = (a, r)
    choices = []
    for p, (_, r) in sorted(by_prime.items()):
        if r:
            a, top = 1, p
            while top <= r:
                a, top = a + 1, top * p
            choices.append((p, a, r))
    return ResidueTower._make((tuple(choices),))


ZERO_TOWER = ResidueTower(())


# -- Membership ------------------------------------------------------------------


def uf_contains(f, s: EPSet) -> bool:
    """Does the oracle accept s?"""
    if isinstance(f, Principal):
        return f.point in s
    if isinstance(f, ResidueTower):
        if not s.residues:
            return False
        return f.residue_at(s.period) in s.residues
    raise ParameterError(f"unknown ultrafilter oracle {f!r}")


def uf_min(f):
    """Least cardinality of an accepted set."""
    if isinstance(f, Principal):
        return fin(1)
    if isinstance(f, ResidueTower):
        return ALEPH0
    raise ParameterError(f"unknown ultrafilter oracle {f!r}")


def is_principal(f) -> bool:
    return isinstance(f, Principal)


# -- Stabilisation ---------------------------------------------------------------


def stabilises_filter(f, c: Chart, check_witness: bool = True) -> tuple[bool, EPSet | None]:
    """Does the chart c map every accepted set to an accepted set?

    Returns (True, None) or (False, witness) where the witness is an
    accepted set whose image is rejected.  Witnesses are re-verified
    through the generic set-image machinery unless their period is too
    large to materialise.  For permutations the condition is equivalent to
    membership in the stabiliser subgroup.
    """
    if isinstance(f, Principal):
        x = f.point
        if apply_chart(c, x) == x:
            return (True, None)
        return (False, from_finite([x]))
    if not isinstance(f, ResidueTower):
        raise ParameterError(f"unknown ultrafilter oracle {f!r}")

    dom = dom_set(c)
    if not uf_contains(f, dom):
        return (False, dom.complement())
    im = im_set(c)
    if not uf_contains(f, im):
        witness = NATURALS if dom == NATURALS else dom
        return (False, _checked(f, c, witness, check_witness))

    piece = _accepted_piece(f, c)
    if piece is None:
        # Past the domain's threshold the pieces cover the domain's accepted
        # class modulo the lcm of their steps and its period, so some piece's
        # source class holds the tower point.
        raise InternalError("internal error: no piece carries the accepted residue")
    a, q = piece.src.first, piece.src.step
    b, q2 = piece.dst.first, piece.dst.step
    if q == q2:
        ok = a == b
    else:
        ok = not f.choices and q2 * a == q * b
    if ok:
        return (True, None)
    witness = _piece_witness(f, piece)
    return (False, _checked(f, c, witness, check_witness))


def _accepted_piece(f: ResidueTower, c: Chart):
    for piece in c.pieces:
        q = piece.src.step
        if f.residue_at(q) == piece.src.first % q:
            return piece
    return None


def _piece_witness(f: ResidueTower, piece) -> EPSet:
    """An accepted progression inside the accepted piece's source whose
    image is rejected.  Scans arithmetically over candidate moduli."""
    a, q = piece.src.first, piece.src.step
    b, q2 = piece.dst.first, piece.dst.step
    primes = set(_SMALL_PRIMES) | {p for p, _, _ in f.choices}
    drift = abs(q2 * a - q * b)
    if q == q2:
        drift = abs(b - a)
    if drift:
        primes |= set(_primes(drift))
    bases = [lcm(q, q2) * j for j in range(1, 49)]
    for p in sorted(primes):
        pk = p
        while pk <= MAX_TRIAL_DIVISOR:
            bases.append(lcm(q, q2) * pk)
            pk *= p
    for base in sorted(set(bases)):
        big = lcm(base, q)
        z = f.residue_at(big)
        # First source point >= a in the accepted class mod big.
        x0 = z % big
        if (x0 - a) % q:
            continue  # not inside the piece's source class
        while x0 < a:
            x0 += big
        step_im = q2 * (big // q)
        y0 = b + q2 * ((x0 - a) // q)
        if f.residue_at(step_im) != y0 % step_im:
            return from_prog(Prog(x0, big))
    raise ParameterError(
        "stabilisation fails but no witness modulus was found within bounds"
    )


def _checked(f, c: Chart, witness: EPSet, check: bool) -> EPSet:
    if check and witness.period <= 100_000:
        if not uf_contains(f, witness):
            raise InternalError("internal error: witness is not accepted")
        if uf_contains(f, image_of_set(c, witness)):
            raise InternalError("internal error: witness image is accepted")
    return witness


# -- Text format -----------------------------------------------------------------


def render_uf(f) -> str:
    if isinstance(f, Principal):
        return f"uf principal {f.point}"
    if isinstance(f, ResidueTower):
        if not f.choices:
            return "uf tower []"
        inner = ", ".join(f"{p}^{a}={r}" for p, a, r in f.choices)
        return f"uf tower [{inner}]"
    raise ParameterError(f"unknown ultrafilter oracle {f!r}")


def parse_uf(text: str):
    t = text.strip()
    if not t.startswith("uf "):
        raise ParseError(f"ultrafilter literal must start with 'uf': {text!r}")
    body = t[3:].strip()
    if body.startswith("principal"):
        arg = body[len("principal"):].strip()
        if not arg.isdigit():
            raise ParseError(f"principal point must be a natural number: {text!r}")
        return Principal(int(arg))
    if body.startswith("tower"):
        arg = body[len("tower"):].strip()
        if not (arg.startswith("[") and arg.endswith("]")):
            raise ParseError(f"tower constraints need brackets: {text!r}")
        inner = arg[1:-1].strip()
        if not inner:
            return ZERO_TOWER
        entries = []
        for part in inner.split(","):
            part = part.strip()
            try:
                power, residue = part.split("=")
                p, a = power.strip().split("^")
                entries.append((int(p), int(a), int(residue)))
            except ValueError as exc:
                raise ParseError(f"bad tower entry {part!r}") from exc
        try:
            return make_tower(entries)
        except ParameterError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown ultrafilter kind in {text!r}")
