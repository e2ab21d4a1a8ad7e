"""Every law suite at a small case count, pinned by its content hash.

The hash covers the suite name, seed, case count, number of checks executed
and every failure message, so a change that alters what any suite checks or
finds fails here.  Regenerate a pin only when a suite itself is changed on
purpose, and say why in CHANGES.md.
"""

import pytest

from ixm.laws import run_suite, suite_names

CASES = 25

PINS = {
    "chart-laws": "67bd709581c3",
    "closure-A": "48c1171ff82b",
    "closure-P": "7c8eae1c6e9d",
    "closure-S": "06c720a94d30",
    "closure-V": "2a548ead9ded",
    "duality": "40b629003362",
    "epset-laws": "a49b76c76932",
    "evader": "01fd613124dc",
    "excluding": "0271eff0dc68",
    "finite-classify": "a97293c6c265",
    "finite-classify-n2": "74582bd5c877",
    "finite-classify-n3": "e0ae3d1f64d7",
    "ideal-inverse": "375a6b803925",
    "lemma21": "6a9c4f6ec567",
    "lemma21-fin": "2648063a5c00",
    "meet": "6781755615e4",
    "minext": "874e2bbd9c24",
    "mutt-inj": "6d693d35b6fd",
    "nxn-n2": "03bd0fc6e7f0",
    "nxn-n3": "6fa9469282c1",
    "padding": "4b358c62f565",
    "rho-laws": "0cbdcbea4848",
    "sandwich": "294051312a70",
    "spreader": "12c65369c721",
    "ultra-axioms": "9fddb0ec71b1",
    "ultra-stab": "401ac6469e07",
    "v-forms": "842c52de0b56",
    "witnesses": "cea604249e03",
}


def test_every_suite_is_pinned():
    assert sorted(PINS) == suite_names()


@pytest.mark.parametrize("name", sorted(PINS))
def test_suite_hash(name):
    report = run_suite(name, seed=0, cases=CASES)
    assert report.ok, report.failures
    assert report.content_hash == PINS[name]
