"""Membership in the candidate maximal classes S, P, V and A."""

import hashlib
from dataclasses import replace

import pytest

from ixm.cardinal import ALEPH0, ALEPH1, fin
from ixm.chart import IDENTITY_CHART, Piece, bijection_between, invert, make_chart, render_chart
from ixm.classes import (
    _RECIPES,
    FAMILIES,
    VARIANTS,
    ClassId,
    admissibility,
    dual_class,
    excluding_maximal,
    in_class,
    in_class_v_alt,
    parse_class,
    render_class,
    separating_witness,
)
from ixm.epset import NATURALS, Prog, from_finite, from_prog, residue_class
from ixm.errors import ParameterError, UnsupportedWitnessError
from ixm.partition_action import make_partition, mod_partition
from ixm.sampling import make_rng, random_mixed, random_partition, random_tower
from ixm.ultrafilter import ZERO_TOWER, make_tower, parse_uf

DOUBLE = make_chart((), (Piece(Prog(0, 1), Prog(0, 2)),))
CHARTS = {
    "identity": IDENTITY_CHART,
    "shift": make_chart((), (Piece(Prog(0, 1), Prog(1, 1)),)),
    "double": DOUBLE,
    "halve": invert(DOUBLE),
    "finite": make_chart(((0, 1), (1, 0)), ()),
}

GAMMA = from_finite([0])
CLASSES = {
    "S1": ClassId("S", mu=fin(1)),
    "S0": ClassId("S", mu=ALEPH0),
    "P0": ClassId("P", mu=ALEPH0, gamma=GAMMA),
    "P1": ClassId("P", mu=ALEPH1, gamma=GAMMA),
    "V0": ClassId("V", mu=ALEPH0, uf=ZERO_TOWER),
    "V1": ClassId("V", mu=ALEPH1, uf=ZERO_TOWER),
    "A2": ClassId("A", partition=mod_partition(2)),
}

# (plain, inverse) membership; the meet is their conjunction.
T, F = True, False
TABLE = {
    "identity": {c: (T, T) for c in CLASSES},
    "shift": {"S1": (F, T), "S0": (T, T), "P0": (F, T), "P1": (F, T),
              "V0": (F, F), "V1": (F, F), "A2": (T, T)},
    "double": {"S1": (F, T), "S0": (F, T), "P0": (F, T), "P1": (T, T),
               "V0": (F, T), "V1": (T, T), "A2": (F, T)},
    "halve": {"S1": (T, F), "S0": (T, F), "P0": (T, F), "P1": (T, T),
              "V0": (T, F), "V1": (T, T), "A2": (T, F)},
    "finite": {c: (T, T) for c in CLASSES},
}


def variant(c: ClassId, v: str) -> ClassId:
    return replace(c, variant=v)


def every_class():
    for c in CLASSES.values():
        for v in ("plain", "inverse", "meet"):
            yield variant(c, v)


def sample_charts(count=40, seed=7):
    rng = make_rng(seed)
    return list(CHARTS.values()) + [random_mixed(rng) for _ in range(count)]


@pytest.mark.parametrize("chart", sorted(CHARTS))
@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_truth_table(cls, chart):
    c, f = CLASSES[cls], CHARTS[chart]
    plain, inverse = TABLE[chart][cls]
    assert in_class(variant(c, "plain"), f) == plain
    assert in_class(variant(c, "inverse"), f) == inverse
    assert in_class(variant(c, "meet"), f) == (plain and inverse)


def test_meet_is_plain_and_inverse():
    for f in sample_charts():
        for c in CLASSES.values():
            both = in_class(variant(c, "plain"), f) and in_class(variant(c, "inverse"), f)
            assert in_class(variant(c, "meet"), f) == both


def test_mirror_duality():
    for f in sample_charts():
        finv = invert(f)
        for c in every_class():
            assert in_class(c, f) == in_class(dual_class(c), finv)


def test_alternative_form_agrees_on_filter_classes():
    towers = (ZERO_TOWER, make_tower([(2, 1, 1)]), make_tower([(3, 2, 4)]))
    for f in sample_charts():
        for uf in towers:
            for mu in (ALEPH0, ALEPH1):
                for v in ("plain", "inverse", "meet"):
                    c = ClassId("V", v, mu=mu, uf=uf)
                    assert in_class_v_alt(c, f) == in_class(c, f)


def test_alternative_form_is_filter_only():
    with pytest.raises(ParameterError):
        in_class_v_alt(CLASSES["S0"], IDENTITY_CHART)


def test_text_round_trip():
    extra = [
        ClassId("V", "meet", mu=ALEPH0, uf=make_tower([(2, 2, 3), (5, 1, 2)])),
        ClassId("P", "inverse", mu=ALEPH1, gamma=from_finite([1, 4, 9])),
        ClassId("A", "meet", partition=mod_partition(5)),
    ]
    for c in [*every_class(), *extra]:
        if c.uf != ZERO_TOWER:
            assert parse_class(render_class(c)) == c


def test_round_trip_of_the_shortened_forms():
    # The empty tower renders as the bare word "tower", and a partition that
    # is not a residue partition renders as a literal containing "=".
    lopsided = make_partition(
        (from_prog(Prog(0, 4)), from_prog(Prog(2, 4)), from_prog(Prog(1, 2)))
    )
    classes = [ClassId("A", "inverse", partition=lopsided)]
    classes += [variant(CLASSES["V0"], v) for v in ("plain", "inverse", "meet")]
    for c in classes:
        assert parse_class(render_class(c)) == c
    assert render_class(CLASSES["V0"]) == "V[uf=tower;mu=aleph0]"


# S at both thresholds, P over 4 anchor sets, V over 5 towers and A over 4
# residue partitions: 24 plain classes, 72 with their variants.
WITNESS_BASES = (
    [ClassId("S", mu=mu) for mu in (fin(1), ALEPH0)]
    + [
        ClassId("P", mu=mu, gamma=from_finite(g))
        for g in ([0], [3], [1, 2], [0, 4, 9])
        for mu in (ALEPH0, ALEPH1)
    ]
    + [
        ClassId("V", mu=mu, uf=uf)
        for uf in (
            ZERO_TOWER,
            make_tower([(2, 1, 1)]),
            make_tower([(3, 2, 4)]),
            make_tower([(2, 2, 3), (5, 1, 2)]),
            make_tower([(7, 1, 5)]),
        )
        for mu in (ALEPH0, ALEPH1)
    ]
    + [ClassId("A", partition=mod_partition(n)) for n in (2, 3, 4, 6)]
)


def test_witness_table_is_pinned():
    # One line per ordered pair: the witness chart, or the refusal message.
    # A recipe change that alters any witness or refusal changes the digest.
    classes = [variant(c, v) for c in WITNESS_BASES for v in VARIANTS]
    assert len(classes) == 72
    digest = hashlib.sha256()
    refused = 0
    for c1 in classes:
        for c2 in classes:
            try:
                text = render_chart(separating_witness(c1, c2))
            except UnsupportedWitnessError as exc:
                text = f"refused: {exc}"
                refused += 1
            digest.update(f"{render_class(c1)} | {render_class(c2)} | {text}\n".encode())
    assert refused == 145
    assert digest.hexdigest() == (
        "acc031029834a519809f42a78a97e96179407920827f980fb3af55c08252a1e4"
    )


def test_every_family_pair_has_a_recipe():
    assert set(_RECIPES) == {(a, b) for a in FAMILIES for b in FAMILIES}


def test_two_spellings_of_one_tower_name_one_class():
    one, two = parse_uf("uf tower [5^1=3]"), parse_uf("uf tower [5^2=3]")
    plain = ClassId("V", mu=ALEPH1, uf=one)
    separating_witness(plain, ClassId("V", "inverse", mu=ALEPH1, uf=two))  # checks both sides
    with pytest.raises(UnsupportedWitnessError, match="contained"):
        separating_witness(plain, ClassId("V", mu=ALEPH1, uf=two))


def test_excluding_class_of_a_chart_moving_no_piece_start():
    # DOUBLE keeps 0 and moves 1, which only its steps tell apart.
    assert excluding_maximal(DOUBLE) == ClassId("P", "plain", mu=ALEPH1, gamma=from_finite([1]))


def _random_class(rng) -> ClassId:
    # An admissible class: random gamma in [0, 12), tower and partition,
    # the lopsided partition among them.
    while True:
        family, v = rng.choice("SPVA"), rng.choice(VARIANTS)
        if family == "S":
            c = ClassId("S", v, mu=rng.choice((fin(1), ALEPH0)))
        elif family == "P":
            gamma = from_finite(rng.sample(range(12), rng.randint(1, 4)))
            c = ClassId("P", v, mu=rng.choice((ALEPH0, ALEPH1)), gamma=gamma)
        elif family == "V":
            c = ClassId("V", v, mu=rng.choice((ALEPH0, ALEPH1)), uf=random_tower(rng))
        else:
            c = ClassId("A", v, partition=random_partition(rng))
        if admissibility(c)[0]:
            return c


def test_random_pairs_are_separated_or_contained():
    # Every partition gets a witness from its blocks: a refusal is a
    # containment, or a meet class paired with itself.
    rng = make_rng(11)
    non_residue = 0
    for _ in range(1500):
        c1, c2 = _random_class(rng), _random_class(rng)
        try:
            separating_witness(c1, c2)
        except UnsupportedWitnessError as exc:
            assert "contained" in str(exc) or (c1 == c2 and c1.variant == "meet"), str(exc)
        else:
            non_residue += any(
                c.family == "A" and c.partition != mod_partition(c.partition.n) for c in (c1, c2)
            )
    assert non_residue > 100


def test_eventually_equal_partitions_give_equal_classes():
    # The evens and the odds with 0 and 1 traded.
    zero, one = from_finite([0]), from_finite([1])
    p = make_partition([
        residue_class(0, 2).difference(zero).union(one),
        residue_class(1, 2).difference(one).union(zero),
    ])
    plain = ClassId("A", partition=p)
    w = separating_witness(plain, ClassId("A", "inverse", partition=mod_partition(2)))
    assert w == bijection_between(p.blocks[0], NATURALS)
    with pytest.raises(UnsupportedWitnessError, match="contained"):
        separating_witness(plain, ClassId("A", partition=mod_partition(2)))
