"""Seeded random generators for sets, charts, oracles and class members.

Everything is driven by a ``random.Random`` instance so that suites are
reproducible from a single integer seed.  Charts are built by accretion:
candidate pairs and pieces are thrown at the canonical constructor and
additions that collide with what is already there are simply dropped.
"""

from __future__ import annotations

import random

from .chart import (
    Chart,
    IDENTITY_CHART,
    Piece,
    bijection_between,
    compose,
    identity_on,
    invert,
    make_chart,
)
from .classes import ClassId, in_class
from .epset import EPSet, NATURALS, Prog, from_finite, from_prog, make_epset
from .errors import InjectivityError, ParameterError
from .finite_model import all_fcharts
from .partition_action import FinPartition, make_partition, mod_partition
from .ultrafilter import ResidueTower, ZERO_TOWER, make_tower

MAX_STEP = 12
MAX_FIRST = 24


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


# -- Sets --------------------------------------------------------------------


def random_prog(rng: random.Random) -> Prog:
    step = rng.randint(1, MAX_STEP)
    return Prog(rng.randrange(MAX_FIRST), step)


def random_epset(rng: random.Random) -> EPSet:
    period = rng.randint(1, MAX_STEP)
    count = rng.randint(0, period)
    residues = rng.sample(range(period), count)
    threshold = rng.randrange(MAX_FIRST)
    low = [x for x in range(threshold) if rng.random() < 0.25]
    return make_epset(threshold, period, residues, low)


def random_infinite_epset(rng: random.Random) -> EPSet:
    while True:
        s = random_epset(rng)
        if s.residues:
            return s


def random_moiety(rng: random.Random) -> EPSet:
    while True:
        s = random_epset(rng)
        if s.is_moiety():
            return s


# -- Charts ------------------------------------------------------------------


def random_chart(rng: random.Random) -> Chart:
    pieces: list[Piece] = []
    pairs: list[tuple[int, int]] = []
    chart = make_chart((), ())
    for _ in range(rng.randint(0, 3)):
        candidate = Piece(random_prog(rng), random_prog(rng))
        try:
            chart = make_chart(pairs, pieces + [candidate])
        except InjectivityError:
            continue
        pieces.append(candidate)
    for _ in range(rng.randint(0, 4)):
        candidate = (rng.randrange(MAX_FIRST), rng.randrange(MAX_FIRST))
        try:
            chart = make_chart(pairs + [candidate], pieces)
        except InjectivityError:
            continue
        pairs.append(candidate)
    return chart


def random_permutation(rng: random.Random) -> Chart:
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(1, 4)
        pi = list(range(n))
        rng.shuffle(pi)
        base = make_chart((), (Piece(Prog(i, n), Prog(pi[i], n)) for i in range(n)))
    elif kind == 1:
        # Swap two residue classes of a random modulus, fix the rest.
        n = rng.randint(2, 5)
        i, j = rng.sample(range(n), 2)
        pi = list(range(n))
        pi[i], pi[j] = j, i
        base = make_chart((), (Piece(Prog(k, n), Prog(pi[k], n)) for k in range(n)))
    elif kind == 2:
        # An infinite shuffle: halves of the evens traded with the odds.
        base = make_chart(
            (),
            (
                Piece(Prog(0, 4), Prog(1, 2)),
                Piece(Prog(2, 4), Prog(2, 4)),
                Piece(Prog(1, 2), Prog(0, 4)),
            ),
        )
    else:
        base = IDENTITY_CHART
    swaps = [rng.sample(range(MAX_FIRST), 2) for _ in range(rng.randint(0, 3))]
    if not swaps:
        return base
    # The swaps in turn are one permutation of range(top), fixing the rest.
    top = max(map(max, swaps)) + 1
    perm = list(range(top))  # perm[x] is x's image under the swaps so far
    for u, v in swaps:
        i, j = perm.index(u), perm.index(v)
        perm[i], perm[j] = v, u
    return compose(base, make_chart(enumerate(perm), (Piece(Prog(top, 1), Prog(top, 1)),)))


def random_total(rng: random.Random) -> Chart:
    kind = rng.randrange(3)
    if kind == 0:
        return random_permutation(rng)
    if kind == 1:
        step = rng.randint(2, 6)
        offset = rng.randrange(step)
        squeeze = make_chart((), (Piece(Prog(0, 1), Prog(offset, step)),))
        return compose(random_permutation(rng), squeeze)
    target = random_infinite_epset(rng)
    return compose(bijection_between(NATURALS, target), random_permutation(rng))


def random_partial_identity(rng: random.Random) -> Chart:
    return identity_on(random_epset(rng))


def random_mixed(rng: random.Random) -> Chart:
    kind = rng.randrange(6)
    if kind == 0:
        return random_chart(rng)
    if kind == 1:
        return random_permutation(rng)
    if kind == 2:
        return random_total(rng)
    if kind == 3:
        return invert(random_total(rng))
    if kind == 4:
        return random_partial_identity(rng)
    return bijection_between(random_infinite_epset(rng), random_infinite_epset(rng))


# -- Finite models -----------------------------------------------------------


def random_fchart(rng: random.Random, n: int):
    return rng.choice(all_fcharts(n))


def random_nonempty_fchart(rng: random.Random, n: int):
    while True:
        u = random_fchart(rng, n)
        if any(y is not None for y in u):
            return u


# -- Oracles and partitions ----------------------------------------------------


def random_tower(rng: random.Random) -> ResidueTower:
    if rng.random() < 0.34:
        return ZERO_TOWER
    entries = []
    for p in rng.sample((2, 3, 5), rng.randint(1, 2)):
        a = rng.randint(1, 2)
        r = rng.randrange(1, p**a)
        entries.append((p, a, r))
    return make_tower(entries)


def random_partition(rng: random.Random) -> FinPartition:
    if rng.random() < 0.7:
        return mod_partition(rng.randint(2, 4))
    # A lopsided partition: two quarters and a half.
    return make_partition(
        (
            from_prog(Prog(0, 4)),
            from_prog(Prog(2, 4)),
            from_prog(Prog(1, 2)),
        )
    )


# -- Class membership sampling ----------------------------------------------------


def sample_in_class(rng: random.Random, c: ClassId) -> Chart:
    """A chart belonging to the class: rejection sampling over the mixed
    generator with a guaranteed fallback."""
    for _ in range(60):
        f = random_mixed(rng)
        if in_class(c, f):
            return f
    for fallback in (
        IDENTITY_CHART,
        identity_on(from_finite(range(rng.randint(1, 6)))),
    ):
        if in_class(c, fallback):
            return fallback
    raise ParameterError("could not sample a member of the class")
