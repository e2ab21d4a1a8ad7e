"""Command-line entry point: exit codes, the size guards, latency of chart
canonicalisation, the text of wide answers, reuse of the parser within one
process, and plain table calls answered as argparse would answer them."""

import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ixm
import ixm.cli
from ixm.cli import main
from ixm.epset import Prog, from_prog, render_epset
from ixm.errors import BROKEN_PIPE_EXIT, InternalError, ParameterError

SRC = str(Path(ixm.__file__).resolve().parent.parent)


def test_huge_chart_point_is_refused_quickly(capsys):
    start = time.perf_counter()
    assert main(["chart", "stats", "chart { pair 1000000000 -> 0; }"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "resource guard" in capsys.readouterr().err


def test_large_chart_point_below_the_cap(capsys):
    assert main(["chart", "stats", "chart { pair 10000000 -> 0; }"]) == 0
    out = capsys.readouterr().out
    assert "dom=ep N=10000001 m=1 R={} L={10000000}" in out
    assert "im=ep N=1 m=1 R={} L={0}" in out


def test_pieces_far_apart_canonicalise_quickly(capsys):
    # Two rule groups 10**7 apart: canonicalisation must not walk the gap.
    text = (
        "chart { piece (0 mod 2 from 0) -> (0 mod 4 from 0); "
        "piece (1 mod 2 from 10000000) -> (1 mod 2 from 10000000); }"
    )
    start = time.perf_counter()
    assert main(["chart", "parse", text]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == text + "\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        # Two pieces whose steps are coprime primes near 10**9.
        (
            [
                "chart",
                "compose",
                "chart { piece (0 mod 1 from 0) -> (5 mod 1000000007 from 0) }",
                "chart { piece (7 mod 1000000009 from 0) -> (0 mod 1 from 0) }",
            ],
            "chart { piece (1000000008 mod 1000000009 from 0) -> (1000000006 mod 1000000007 from 0); }\n",
        ),
        # A tower prime near 10**18.
        (["uf", "min", "uf tower [1000000000000000003^1=1]"], "aleph0\n"),
    ],
)
def test_huge_steps_and_primes_answer_quickly(argv, out, capsys):
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == out


def test_far_transposition_witness_is_refused_quickly(capsys):
    # The witness swaps 0 and 1000001, a transposition of 1,000,002 pairs.
    start = time.perf_counter()
    assert main(["class", "witness", "S[mu=aleph0]", "P[gamma={0,1000000};mu=aleph0]"]) == 3
    assert time.perf_counter() - start < 3.0
    assert "MAX_DEMOTED = 65536" in capsys.readouterr().err


def test_two_large_prime_steps_are_refused_quickly(capsys):
    # The tower residue modulo 16777213 * 16777199 needs no factoring, and
    # the witness search tries divisors of the drift only up to 10**6.
    chart = "chart { piece (0 mod 16777213 from 1) -> (0 mod 16777199 from 0) }"
    start = time.perf_counter()
    assert main(["uf", "stabilises", "uf tower []", chart]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource guard: threshold 281474641166387 or period 281474641166387 "
        "exceeds the 16777216-bit mask limit\n"
    )


def _two_class_chart(s: int, t: int) -> str:
    # Canonicalises to lcm(s, t) / s + lcm(s, t) / t - 2 pieces of one step.
    return (
        f"chart {{ piece (0 mod {s} from 0) -> (0 mod {s} from 0); "
        f"piece (1 mod {t} from 0) -> (1 mod {t} from 0); }}"
    )


def test_many_piece_chart_stats_are_fast(capsys):
    # 1,024 pieces of step 524,286: the domain and image are built with one
    # mask per period, not one per piece.
    start = time.perf_counter()
    assert main(["chart", "stats", _two_class_chart(1022, 1026)]) == 0
    assert time.perf_counter() - start < 3.0
    dom = from_prog(Prog(0, 1022)).union(from_prog(Prog(1, 1026)))
    assert f"dom={render_epset(dom)}\n" in capsys.readouterr().out


def test_many_piece_chart_with_a_far_pair_stats_are_fast(capsys):
    # The pair takes the domain's threshold past 1.6 * 10**7; the tails of
    # the 1,024 pieces fill the low part up to it once, not once per piece.
    chart = _two_class_chart(1022, 1026).replace("chart { ", "chart { pair 16000001 -> 16000001; ")
    start = time.perf_counter()
    assert main(["chart", "stats", chart]) == 0
    assert time.perf_counter() - start < 3.0
    assert "dom=ep N=16000002 m=524286 R={0,1,1022,1027," in capsys.readouterr().out


def test_widest_many_piece_chart_stats_stay_small():
    # 4,096 pieces of step 8,388,606, just inside the group and mask caps.
    code = (
        "import resource, sys\n"
        "from ixm.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = ["chart", "stats", _two_class_chart(4094, 4098)]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert time.perf_counter() - start < 30.0
    exit_code, max_rss_kb = map(int, done.stderr.split())
    assert exit_code == 0
    assert max_rss_kb < 200 * 1024
    assert "dom=ep N=0 m=8388606 R={0,1,4094,4099," in done.stdout


_LOPSIDED = "part blocks ep N=0 m=4 R={0} L={} | ep N=0 m=4 R={2} L={} | ep N=0 m=2 R={1} L={}"


def test_images_under_the_widest_many_piece_chart_stay_small():
    # The images and preimages of three blocks under the 4,096 pieces of
    # that chart: one mask per image period, not one per piece.  The
    # address-space cap makes a build of one mask per piece fail fast.  The
    # chart fixes its domain, so each image and preimage is the block's
    # part of it.  The child then answers the block relation.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from ixm.chart import dom_set, image_of_set, parse_chart, preimage_of_set\n"
        "from ixm.cli import main\n"
        "from ixm.partition_action import parse_partition\n"
        "p, f = parse_partition(sys.argv[1]), parse_chart(sys.argv[2])\n"
        "for b in p.blocks:\n"
        "    assert image_of_set(f, b) == b.intersect(dom_set(f)) == preimage_of_set(f, b)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(main(['rel', 'rho', *sys.argv[1:]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [_LOPSIDED, _two_class_chart(4094, 4098)]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert time.perf_counter() - start < 30.0
    assert done.returncode == 0, done.stderr[-2000:]
    assert int(done.stderr) < 200 * 1024
    assert done.stdout == "rel n=3 {(0,0),(1,1),(2,2)}\n"


def test_block_relation_of_a_many_piece_chart_with_late_starts_is_fast(capsys):
    # 4,096 pieces, half of them starting at index 1000: the relation is
    # read off the blocks' residues, not off the images of the blocks.
    chart = _two_class_chart(4094, 4098).replace("0 mod 4094 from 0", "0 mod 4094 from 1000")
    start = time.perf_counter()
    assert main(["rel", "rho", _LOPSIDED, chart]) == 0
    assert time.perf_counter() - start < 6.0
    assert capsys.readouterr().out == "rel n=3 {(0,0),(1,1),(2,2)}\n"


# Block i < 24 holds the x with exactly i trailing ones, block 24 those with
# at least 24: 25 blocks of one residue each, joint period 2**24.
_DYADIC = "part blocks " + " | ".join(
    [f"ep N=0 m={2 ** (i + 1)} R={{{2 ** i - 1}}} L={{}}" for i in range(24)]
    + ["ep N=0 m=16777216 R={16777215} L={}"]
)
# 64 blocks of joint period 2**24: odd x by its trailing ones and even x > 0
# by its trailing zeros, cut by the next bit from 15 of them to 22.
_DYADIC_64 = ["ep N=0 m=16777216 R={16777215} L={}", "ep N=0 m=16777216 R={0} L={}"] + [
    f"ep N=0 m={m} R={{{r}}} L={{}}"
    for i in range(1, 24)
    for first in (2 ** i - 1, 2 ** i)
    for r, m in (
        [(first, 2 ** (i + 1))]
        if i < 15 or i == 23
        else [(first, 2 ** (i + 2)), (first + 2 ** (i + 1), 2 ** (i + 2))]
    )
]
_DIAGONAL = {(i, i) for i in range(25)}
# x -> x + 1 sends an odd x to an even one, and an even x to every block.
_SHIFTED = {(0, j) for j in range(1, 25)} | {(j, 0) for j in range(1, 25)}


def _render_pairs(pairs) -> str:
    return "rel n=25 {" + ",".join(f"({i},{j})" for i, j in sorted(pairs)) + "}\n"


@pytest.mark.parametrize(
    "chart, pairs",
    [
        ("chart { piece (0 mod 1 from 0) -> (0 mod 1 from 0) }", _DIAGONAL),
        ("chart { piece (0 mod 1 from 0) -> (0 mod 1 from 1) }", _SHIFTED),
        # Three pieces of step 3: fixed on 0 mod 3, x -> x + 1 on 1 mod 3 and
        # x -> x - 1 on 2 mod 3.  3 is odd, so each class meets every block.
        (
            "chart { piece (0 mod 3 from 0) -> (0 mod 3 from 0); "
            "piece (1 mod 3 from 0) -> (2 mod 3 from 0); piece (2 mod 3 from 0) -> (1 mod 3 from 0) }",
            _DIAGONAL | _SHIFTED,
        ),
        # 684 pieces of the odd step 350,889 that fix every point they move.
        (_two_class_chart(1023, 1029), _DIAGONAL),
    ],
    ids=["identity", "shift", "three-odd-step-pieces", "684-odd-step-pieces"],
)
def test_block_relation_of_sparse_blocks_with_a_wide_period_is_fast(chart, pairs, capsys):
    # The relation costs a few steps per block residue and piece, not one per
    # index up to the joint period 2**24 (about 16.8 million per piece).
    start = time.perf_counter()
    assert main(["rel", "rho", _DYADIC, chart]) == 0
    assert time.perf_counter() - start < 4.0
    assert capsys.readouterr().out == _render_pairs(pairs)


def test_block_relation_past_the_step_budget_is_refused_quickly(capsys):
    # 4,096 pieces on 24 block periods and 25 residues: 4,096 * 24 * (24 + 50)
    # steps, past MAX_RHO_STEPS = 2**22.  Parsing the chart takes most of it.
    start = time.perf_counter()
    assert main(["rel", "rho", _DYADIC, _two_class_chart(4094, 4098)]) == 3
    assert time.perf_counter() - start < 6.0
    assert capsys.readouterr().err == "resource guard: block relation takes 7274496 steps, past 4194304\n"


@pytest.mark.parametrize(
    "first, second, code, out",
    [
        # The witness moves the anchor to the next point of its block, 2**23
        # further on, which a set walk reaches in one step per member.
        (f"A[{_DYADIC}]", "P[gamma={8388607};mu=aleph0]", 3, ""),
        ("A[blocks=2]", f"A[{_DYADIC}]", 0, "chart { "),
        # Equal up to the order of 64 blocks: one point and one set difference
        # a block find its home, not 64 * 64 intersections.
        (
            f"A[part blocks {' | '.join(_DYADIC_64)}]",
            f"A[part blocks {' | '.join(reversed(_DYADIC_64))}]",
            1,
            "refused: ",
        ),
    ],
    ids=["anchor-in-a-sparse-block", "against-a-residue-partition", "reordered-64-blocks"],
)
def test_witnesses_on_sparse_blocks_with_a_wide_period_are_fast(first, second, code, out):
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "ixm", "class", "witness", first, second],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == code and done.stdout.startswith(out)


@pytest.mark.parametrize(
    "chart",
    [
        # The image progression has a step past the mask limit.
        "chart { piece (0 mod 1 from 0) -> (5 mod 1000000007 from 0) }",
        # A domain progression with a step past it, then one with a start past it.
        "chart { piece (0 mod 16777217 from 3) -> (0 mod 1 from 0) }",
        "chart { piece (0 mod 2 from 16777300) -> (0 mod 2 from 0) }",
    ],
)
def test_progressions_past_the_mask_limit_are_refused(chart, capsys):
    start = time.perf_counter()
    assert main(["chart", "stats", chart]) == 3
    assert time.perf_counter() - start < 1.0
    assert "-bit mask limit" in capsys.readouterr().err


_CLOSURE = ["[1,2,3,0]", "[0,1,3,2]", "[0,1,2,_]"]
_CLOSURE_DIGEST = "c1b7e2b62f57fb77b86c6943f9b1dfbd9cfd7190d23f1b828009ad3ab6cd53d2"


@pytest.mark.parametrize(
    "argv, digest",
    [
        # The witness has a low part of about 85k of its 94,755 points.
        (
            [
                "uf",
                "stabilises",
                "uf tower [2^2=3]",
                "chart { pair 7434 -> 94238; pair 65764 -> 38719; "
                "piece (4 mod 10 from 9476) -> (17 mod 42 from 2256); "
                "piece (7 mod 10 from 7947) -> (16 mod 42 from 1684); }",
            ],
            "92db8881bea5e9a0f3abd4422d4d5c96dfa251531e66e28cf88e61446cceb9db",
        ),
        # 188,816 bytes: a domain and image with low parts near 10**5 wide.
        (
            [
                "chart",
                "stats",
                "chart { pair 64215 -> 46122; pair 75193 -> 56724; "
                "piece (2 mod 6 from 13720) -> (0 mod 2 from 41161); "
                "piece (5 mod 6 from 9384) -> (1 mod 2 from 14054); }",
            ],
            "00c89710abec5c77a2790ada349bc4ffc2ca35f728d2335c7f925a6b9292c4bd",
        ),
        # All 209 partial bijections of 4 points, sorted, then "size=209";
        # once without argparse and once through it.
        (["finite", "closure", *_CLOSURE], _CLOSURE_DIGEST),
        (["finite", "--format", "text", "closure", *_CLOSURE], _CLOSURE_DIGEST),
    ],
)
def test_wide_answers_render_unchanged(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "3a88d3f15985211fe86b1c5fd2c5175d7e5d1546ac3d0b39834fa0737e103007"),
        ("records", "2e8a91a55a28514fe4629e2bf2cdff07cc9ac05654931aaabcadfa9febc96123"),
    ],
)
def test_conditions_answer_is_unchanged(fmt, digest, capsys):
    assert main(["conditions", "--n", "4", "--group", "sym", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "8 predicted candidate(s) were dropped" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text",
    [
        # One rule group whose merged piece starts at 10**7: 5*10**6 evens
        # below it would become pairs.
        "chart { piece (0 mod 2 from 0) -> (0 mod 2 from 0); "
        "piece (1 mod 2 from 10000000) -> (1 mod 2 from 10000000); }",
        # One rule group with 20016 classes mod lcm(20014, 20018), each of
        # which would become a canonical piece.
        "chart { piece (0 mod 20014 from 0) -> (0 mod 20014 from 0); "
        "piece (1 mod 20018 from 0) -> (1 mod 20018 from 0); }",
    ],
)
def test_oversized_canonical_form_is_refused_quickly(text, capsys):
    start = time.perf_counter()
    assert main(["chart", "parse", text]) == 3
    assert time.perf_counter() - start < 1.0
    assert "resource guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, seconds",
    [
        (["rel", "rho", "part mod 20000", "chart { }"], 1),
        (["rel", "rho", "part mod 20000", "chart { piece (0 mod 1 from 0) -> (0 mod 1 from 0) }"], 1),
        (["class", "member", "A[blocks=100000]", "chart { }"], 1),
        (["rel", "compose", "rel n=10000000 {}", "rel n=2 {}"], 1),
        # S_10: 3,628,800 elements on 10 points.
        (["finite", "closure", "[1,0,2,3,4,5,6,7,8,9]", "[1,2,3,4,5,6,7,8,9,0]"], 15),
        # Listing S_12 alone would take tens of gigabytes.
        (["conditions", "--n", "12", "--group", "sym"], 1),
    ],
)
def test_oversized_structures_are_refused_in_time_and_memory(argv, seconds):
    # A child with 1 GiB of address space, so that a missing guard fails
    # here instead of exhausting the machine.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from ixm.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=seconds
    )
    assert time.perf_counter() - start < seconds
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("resource guard: ")


def test_the_widest_answer_renders_in_time_and_memory():
    # Both masks of this answer reach the 2**24-bit cap, with 8.4M members
    # each: 140 MB of text.  A child with 320 MiB of address space hashes
    # the text as it is printed, so one int per member would not fit.
    chart = (
        "chart { piece (0 mod 2 from 8388000) -> (2 mod 4 from 4194000); "
        "piece (1 mod 2 from 1) -> (1 mod 2 from 1) }"
    )
    code = (
        "import contextlib, hashlib, io, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (320 << 20, 320 << 20))\n"
        "from ixm.cli import main\n"
        "class Digest(io.TextIOBase):\n"
        "    def __init__(self):\n"
        "        self.sha = hashlib.sha256()\n"
        "    def write(self, text):\n"
        "        self.sha.update(text.encode())\n"
        "        return len(text)\n"
        "out = Digest()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, out.sha.hexdigest())\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, "chart", "stats", chart],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 0958b9db9487bd4c0999dfb1919aa62e4af0db9f3234fcf84e2336013c895cb1\n"


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    assert not issubclass(InternalError, ParameterError)

    def broken(text):
        raise InternalError("internal error: broken on purpose")

    monkeypatch.setattr(ixm.cli, "parse_chart", broken)
    assert main(["chart", "stats", "chart { }"]) == 4
    out, err = capsys.readouterr()
    assert not out and err == "error: internal error: broken on purpose\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["chart", "stats", "chart { pair 0 -> 1; }"], 0),
        (["class", "member", "S[mu=aleph0]", "chart { pair 0 -> 0; }"], 0),
        (["uf", "contains", "uf principal 3", "ep N=5 m=1 R={} L={3}"], 0),
        (["rel", "rho", "part mod 2", "chart { piece (0 mod 1 from 0) -> (0 mod 2 from 0); }"], 0),
        (["class", "witness", "S[mu=aleph0]", "S[mu=aleph0]"], 1),
        (["chart", "frobnicate", "chart { }"], 2),
        (["chart", "stats", "chart { pair 1 -> ; }"], 2),
        (["class", "member", "S[mu=1]", "chart { }"], 2),
        (["chart", "stats", "chart { pair 1000000000 -> 0; }"], 3),
        (["finite", "completeness", "--n", "0"], 2),
        (["finite", "completeness", "--n", "1"], 2),
        (["finite", "completeness", "--n", "5"], 3),
        (["finite", "completeness", "--n", "4", "--format", "records"], 0),
        (["finite", "closure", "[0,1]", "[0,1,2]"], 2),
        (["finite", "closure", "[0]", "[1,0]"], 2),
        (["chart", "apply", "chart { pair 0 -> 1; }", "x"], 2),
        (["chart", "apply", "chart { piece (0 mod 1 from 0) -> (0 mod 1 from 0); }", "-3"], 2),
        (["chart", "parse", "chart { pair 0 -> 1; pair 2 -> 1 }"], 2),
        (["conditions", "--n", "1"], 2),
        (["conditions", "--n", "5", "--group", "sym"], 2),
        (["conditions", "--n", "6"], 3),
        (["class", "member", "P[gamma={a};mu=aleph0]", "chart { }"], 2),
        (["class", "member", "P[gamma={1,,2};mu=aleph0]", "chart { }"], 2),
        (["class", "member", "S[mu=aleph0;gamma={1}]", "chart { }"], 2),
        (["class", "member", "S[mu=aleph0;x=1]", "chart { }"], 2),
        (["class", "member", "S[mu=aleph0;mu=aleph0]", "chart { }"], 2),
        (["uf", "contains", "uf tower [2^1=1]", "ep N=0 m=2 R={1} L={} X=7"], 2),
        (["uf", "contains", "uf tower [2^1=1]", "ep N=0 N=4 m=2 R={1} L={}"], 2),
    ],
)
def test_exit_codes(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert out.startswith("refused: ")
    if argv[:2] == ["finite", "completeness"] and code == 0:
        record = json.loads(out)
        assert record["complete"] and record["matches_predictions"]
    if code >= 2:
        assert err and not out


_CHART = "chart { piece (0 mod 1 from 0) -> (0 mod 1 from 1); }"
# Well-formed operands for every action of fixed arity, so that a wrong count
# is the only fault in each call below.
_OPERANDS = {
    ("chart", "parse"): [_CHART],
    ("chart", "compose"): [_CHART, _CHART],
    ("chart", "invert"): [_CHART],
    ("chart", "apply"): [_CHART, "3"],
    ("chart", "stats"): [_CHART],
    ("class", "member"): ["S[mu=aleph0]", _CHART],
    ("class", "witness"): ["S[mu=aleph0]", "S[mu=fin:1]"],
    ("class", "dual"): ["S[mu=aleph0]"],
    ("class", "admissible"): ["S[mu=aleph0]"],
    ("class", "exclude"): [_CHART],
    ("uf", "contains"): ["uf principal 3", "ep N=5 m=1 R={} L={3}"],
    ("uf", "stabilises"): ["uf principal 3", _CHART],
    ("uf", "min"): ["uf principal 3"],
    ("rel", "rho"): ["part mod 2", _CHART],
    ("rel", "compose"): ["rel n=2 {(0,0),(1,0)}", "rel n=2 {(0,0),(1,0)}"],
    ("rel", "padding"): ["part mod 2", _CHART, _CHART],
    ("finite", "classify"): [],
    ("finite", "completeness"): [],
    ("finite", "minext"): ["[0,_]"],
}


def _handlers():
    for verb, actions in ixm.cli._ACTIONS.items():
        for action, handler in actions.items():
            yield (verb, action), handler


def test_the_operand_table_covers_every_fixed_arity_action():
    variadic = {key for key, h in _handlers() if h.__code__.co_flags & inspect.CO_VARARGS}
    assert variadic == {("finite", "closure")}
    assert {key for key, _ in _handlers()} - variadic == set(_OPERANDS)


def test_every_handler_takes_the_arguments_then_its_operands():
    # `_run_action` counts operands from the code object; read the signature
    # here instead, and allow no defaults, which that count would include.
    for key, handler in _handlers():
        first, *operands = inspect.signature(handler).parameters.values()
        assert first.name == "args", key
        assert all(p.default is inspect.Parameter.empty for p in operands), key
        kinds = [p.kind for p in operands]
        if key in _OPERANDS:
            assert kinds == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(_OPERANDS[key]), key
        else:
            assert kinds == [inspect.Parameter.VAR_POSITIONAL], key


def _miscounts():
    for (verb, action), ops in _OPERANDS.items():
        if ops:
            yield [verb, action, *ops[:-1]]
        yield [verb, action, *ops, ops[-1] if ops else "extra"]


@pytest.mark.parametrize("argv", list(_miscounts()), ids=lambda a: f"{a[0]}-{a[1]}-{len(a) - 2}")
def test_a_wrong_operand_count_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_the_well_formed_operands_are_accepted(capsys):
    for (verb, action), ops in _OPERANDS.items():
        assert main([verb, action, *ops]) in (0, 1), (verb, action)
    capsys.readouterr()


def _plain_argvs():
    yield from ([verb, action, *ops] for (verb, action), ops in _OPERANDS.items())
    yield from _miscounts()
    yield ["finite", "closure", *_CLOSURE]
    for (verb, action), _ in _handlers():
        for odd in ("", "a=b", "x -> y"):
            yield [verb, action, odd]
        yield [verb, action, "", "a=b", "x -> y"]


@pytest.mark.parametrize("argv", list(_plain_argvs()), ids=lambda a: f"{a[0]}-{a[1]}-{len(a) - 2}")
def test_the_plain_call_namespace_is_what_argparse_returns(argv):
    assert ixm.cli._plain_call(argv) == ixm.cli._build_parser().parse_args(argv)


def test_plain_calls_answer_without_the_parser(capsys, monkeypatch):
    calls = [
        ["chart", "invert", "chart { pair 0 -> 1; }"],
        ["finite", "closure", *_CLOSURE],
        ["finite", "classify"],
        ["chart", "stats", "chart { pair 1 -> ; }"],
        ["chart", "stats"],
    ]
    before = []
    for argv in calls:
        before.append((main(argv), *capsys.readouterr()))

    def refuse():
        raise AssertionError("a plain call built the parser")

    monkeypatch.setattr(ixm.cli, "_build_parser", refuse)
    after = []
    for argv in calls:
        after.append((main(argv), *capsys.readouterr()))
    assert after == before
    assert [code for code, _, _ in after] == [0, 0, 0, 2, 2]
    assert hashlib.sha256(after[1][1].encode()).hexdigest() == _CLOSURE_DIGEST


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["chart", "apply", _CHART, "-3"], 2, "", "usage error: point must be a natural, got -3\n"),
        (
            ["finite", "--n", "2", "classify"],
            0,
            "predicted permutations-plus-corank2 size=3\n"
            "predicted subgroup-0-order-1 size=6\n"
            "count=2 hash=cfef50bb4ef9\n",
            "",
        ),
        (["chart", "stats", "-h"], 0, "usage: ixm chart [-h]", ""),
        (["chart", "stats", "--", _CHART], 0, "rank=aleph0\n", ""),
        (["laws", "--suite", "nope"], 2, "", "usage error: "),
        ([], 2, "", "usage: ixm [-h]"),
    ],
    ids=["negative-point", "option", "help", "double-dash", "laws", "empty"],
)
def test_other_calls_go_through_argparse(argv, code, out, err, capsys, monkeypatch):
    parses = []
    real = argparse.ArgumentParser.parse_args

    def counted(self, *a, **k):
        parses.append(self.prog)
        return real(self, *a, **k)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    assert ixm.cli._plain_call(argv) is None
    assert main(argv) == code
    got_out, got_err = capsys.readouterr()
    assert parses[:1] == ["ixm"]
    assert got_out.startswith(out) and got_err.startswith(err)
    assert bool(got_out) == bool(out) and bool(got_err) == bool(err)


def _fresh(argv, env):
    done = subprocess.run(
        [sys.executable, "-m", "ixm", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def test_reused_parser_matches_a_fresh_process(capsys, monkeypatch):
    # Help is wrapped to $COLUMNS, so both sides get the same width.
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = [
        ["chart", "frobnicate", "chart { }"],
        ["--help"],
        ["class", "--help"],
        [],
        ["chart", "invert", "chart { pair 0 -> 1; }"],
        ["chart", "frobnicate", "chart { }"],
    ]
    for argv in runs:
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh(argv, env), argv


def test_a_reader_that_closes_early_ends_the_run_quietly():
    # `ixm chart stats ... | head -c 10`: the read end is closed before the
    # first write, so every write fails as it does once `head` has exited.
    # Whatever is written to stdout after `main` returns (the flush at exit,
    # here one more line) must be quiet too.
    after = "import sys\nfrom ixm.cli import main\ncode = main(sys.argv[1:])\nprint(code)\nsys.exit(code)\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for head in (["-m", "ixm"], ["-c", after]):
            for chart in ("chart { pair 1 -> 2; }", _two_class_chart(1022, 1026)):
                done = subprocess.run(
                    [sys.executable, *head, "chart", "stats", chart],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    env=env,
                    timeout=60,
                )
                assert done.stderr == b"", (head, chart)
                assert done.returncode == BROKEN_PIPE_EXIT == 141
    finally:
        os.close(write_end)
