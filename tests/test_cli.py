"""Command-line entry point: exit codes of the chart commands under the size guard."""

import time

from ixm.cli import main


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
