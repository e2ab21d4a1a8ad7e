"""Benchmark runner for ixm.

    python3 ixmbench/run.py --workload algebra --seed 0 --seconds 25 --trace 0

runs rounds of one workload, each in a fresh interpreter (``round.py``), one
at a time, until ``--seconds`` have passed, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  It exits 1 if any check failed.  Other modes:

    --smoke          every workload at tiny sizes, traced and untraced; checks
                     that every metric named in BENCHMARK.json is emitted
    --write-pins     record the seed-0 suite hashes and answer digests
    --check-hashseed rerun seed 0 under two fixed PYTHONHASHSEED values and
                     compare with the pins

See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("algebra", "membership", "finite", "queries")
SETUP_PROBES = 7  # extra set-up-only interpreters per run, for a steady median
MIN_QUERIES = 1000  # leaves at least 10 latencies above the 99th percentile
ROUND_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # a round still running at this point of a run is killed
PINNED_ROUNDS = {"algebra": 8, "membership": 8, "finite": 2, "queries": 8}
SUITE_NAMES = [
    "chart-laws", "lemma21", "sandwich", "ultra-axioms",
    "duality", "meet", "v-forms", "closure-S", "closure-P", "closure-V", "closure-A",
    "excluding", "witnesses", "ultra-stab", "rho-laws", "padding", "evader",
    "lemma21-fin", "finite-classify", "finite-classify-n2", "finite-classify-n3",
    "nxn-n2", "nxn-n3", "mutt-inj", "minext", "ideal-inverse", "check_conditions",
]


def child_env(hashseed: str | None = None) -> dict:
    """The environment of a round: completeness_search's budget variable and
    any fixed hash seed are removed, so the defaults hold."""
    env = {k: v for k, v in os.environ.items() if k not in ("IXM_BUDGET_MS", "PYTHONHASHSEED", "PYTHONPATH")}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return env


def spawn(extra: list, env: dict, timeout: float = ROUND_TIMEOUT_S) -> dict:
    argv = [sys.executable, os.path.join(HERE, "round.py"), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv + ["--spawned", repr(spawned)],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"round killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"error": f"round exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> tuple:
    """Run rounds and return (correct, attempted, failed, metrics)."""
    env = child_env()
    pins = load_pins()[workload] if seed == 0 and not smoke else None
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    start = time.monotonic()
    setups = []
    for _ in range(3 if smoke else SETUP_PROBES):
        r = spawn(["--setup-only"], env)
        if "error" in r:
            return False, 1, 1, {}
        setups.append(r["setup_s"])
    plain, traced = [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = plain and (traced or not trace)
        if trace == 0 and not smoke:
            enough = enough and sum(len(r["latencies_ms"]) for r in plain) >= MIN_QUERIES
        # Stop before a round that would overrun the measuring time.
        if enough and elapsed + longest > seconds:
            break
        with_trace = bool(trace) and len(traced) < len(plain)
        index = 0 if trace else len(plain)
        t0 = time.monotonic()
        r = spawn(common + ["--round", str(index), "--trace", str(int(with_trace))], env, RUN_LIMIT_S - elapsed)
        longest = max(longest, time.monotonic() - t0)
        if "error" in r:
            attempted, failed = attempted + 1, failed + 1
            print(f"{workload} round {index}: {r['error']}", file=sys.stderr)
            break
        attempted += r["attempted"]
        failed += r["failed"]
        for msg in r["failures"]:
            print(f"{workload} round {index}: {msg}", file=sys.stderr)
        pinned = pins.get(str(index)) if pins is not None else None
        if pinned is not None:
            checks = [(f"hash of {k}", v, pinned["hashes"].get(k)) for k, v in r["hashes"].items()]
            checks.append(("answer digest", r["digest"], pinned["digest"]))
            for what, got, want in checks:
                attempted += 1
                if got != want:
                    failed += 1
                    print(f"{workload} round {index}: {what} is {got}, pinned {want}", file=sys.stderr)
        setups.append(r["setup_s"])
        (traced if with_trace else plain).append(r)

    correct = failed == 0 and bool(plain)
    if not plain:
        return correct, attempted, failed, {}
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace == 0:
        latencies = [x for r in plain for x in r["latencies_ms"]]
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "ok_share": (1 - failed / attempted, "ratio"),
            "query_p50_ms": (percentile(latencies, 50), "ms"),
            "query_p99_ms": (percentile(latencies, 99), "ms"),
        }
    else:
        metrics = {}
        first = traced[0]["layers"] if traced else {}
        for name, value in first.items():
            if name.endswith(".self_s"):
                metrics[name] = (statistics.median(r["layers"][name] for r in traced), "s")
            elif name.endswith(".hit_ratio"):
                metrics[name] = (value, "ratio")
            else:
                metrics[name] = (value, "count")
        for name in SUITE_NAMES:
            metrics[f"laws.{name}.s"] = (statistics.median(r["suite_s"].get(name, 0.0) for r in plain), "s")
        traced_wall = statistics.median(r["wall_s"] for r in traced) if traced else wall
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    return correct, attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def metadata() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown'
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next(ln.split()[0] for ln in fh if ln.strip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def smoke() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bad = 0
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.monotonic()
            correct, attempted, failed, metrics = measure(workload, 0, 0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            wrong = sorted(set(want.items()) ^ set(got.items()))
            ok = correct and not wrong
            bad += not ok
            print(
                f"{'ok' if ok else 'FAIL'} {workload} trace={trace} attempted={attempted} failed={failed} "
                f"metrics={len(metrics)} mismatched={wrong} {time.monotonic() - t0:.1f}s"
            )
    return 1 if bad else 0


def write_pins() -> int:
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for i in range(PINNED_ROUNDS[workload]):
            r = spawn(["--workload", workload, "--round", str(i)], child_env())
            if "error" in r or r["failed"]:
                print(f"{workload}: not pinned, round {i} failed", file=sys.stderr)
                return 1
            pins[workload][str(i)] = {"hashes": r["hashes"], "digest": r["digest"]}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def check_hashseed() -> int:
    pins = load_pins()
    bad = 0
    for workload in WORKLOADS:
        for hashseed in ("0", "4242"):
            r = spawn(["--workload", workload], child_env(hashseed))
            got = {"hashes": r.get("hashes"), "digest": r.get("digest")}
            same = got == pins[workload]["0"]
            bad += not same
            print(f"{'ok' if same else 'FAIL'} {workload} PYTHONHASHSEED={hashseed}")
    return 1 if bad else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-pins", action="store_true")
    p.add_argument("--check-hashseed", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ixm", "__init__.py")):
        print(f"no ixm sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.write_pins:
        return write_pins()
    if args.check_hashseed:
        return check_hashseed()
    if args.workload is None:
        p.error("--workload is required")
    print("# meta " + json.dumps(metadata()), flush=True)
    correct, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
