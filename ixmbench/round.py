"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round so that every round begins with
the cold caches of a user's ``ixm`` process.  It imports the program from
``src/`` of the checkout, reports the set-up time measured from the moment
the parent spawned it, runs the workload, checks every result outside the
timed regions and prints one JSON line.  With ``--trace 1`` it first installs
the per-layer tracer.  ``--setup-only`` stops once the program is imported.
"""

import os
import sys
import time

SPAWNED = float(sys.argv[sys.argv.index("--spawned") + 1])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ixm  # noqa: E402
import ixm.cli  # noqa: E402
import ixm.laws  # noqa: E402

SETUP_S = time.monotonic() - SPAWNED

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from math import lcm  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import queries as Q  # noqa: E402

# Case counts keep one round to a few seconds; nxn-n3 costs about 13 s on a
# 2-core Xeon at any case count, so it sets the length of a finite round.
SUITES = {
    "algebra": [("chart-laws", 100), ("lemma21", 200), ("sandwich", 60), ("ultra-axioms", 1000)],
    "membership": [
        ("duality", 100),
        ("meet", 100),
        ("v-forms", 60),
        ("closure-S", 100),
        ("closure-P", 100),
        ("closure-V", 100),
        ("closure-A", 100),
        ("excluding", 300),
        ("witnesses", 0),
        ("ultra-stab", 10),
        ("rho-laws", 60),
        ("padding", 60),
        # spreader is left out: defect_spreader doubles its word for each
        # block, and on some inputs the periods explode.  About 1 suite seed in
        # 12 at 60 cases has a case that runs for more than a second, and at
        # suite seed 51000 the suite ran past 150 s, so no run length holds.
        ("evader", 0),
    ],
    "finite": [
        ("lemma21-fin", 0),
        ("finite-classify", 0),
        ("finite-classify-n2", 0),
        ("finite-classify-n3", 0),
        ("nxn-n2", 0),
        ("nxn-n3", 0),
        ("mutt-inj", 50),
        ("minext", 300),
        ("ideal-inverse", 50),
    ],
    "queries": [],
}
EPSET_PAIRS = {"algebra": 600}
CONDITIONS_N = {"finite": 4}
# Queries per round: (kind, count) pairs, and the upper ends of the
# log-uniform threshold magnitude and period.  The queries workload is the
# one-shot CLI mix over large inputs; the other workloads end with smaller CLI
# queries on their own layers, which gives every workload a query latency.
# Magnitudes sit on a log grid, so that the tail the 99th percentile reads
# comes from the largest inputs rather than from timer noise; on finite, 2%
# of the queries close a generating set of all partial bijections of 4
# points for the same end.
QUERY_KINDS = [
    "chart-stats",
    "chart-compose",
    "chart-invert",
    "class-member-S",
    "class-member-P",
    "class-member-V",
    "class-member-A",
    "uf-contains",
    "uf-stabilises",
    "rel-rho",
]
PROBES = {
    "algebra": ([(k, 67) for k in QUERY_KINDS[:3]], 10_000, 12),
    "membership": ([(k, 29) for k in QUERY_KINDS[3:]], 10_000, 12),
    "finite": (
        [
            ("rel-compose", 330),
            ("finite-minext", 330),
            ("finite-closure", 330),
            ("finite-closure-full", 20),
            ("finite-completeness", 1),
        ],
        10,
        1,
    ),
    "queries": ([(k, 25) for k in QUERY_KINDS], 100_000, 840),
}
# Smoke mode: at most this many cases per suite; nxn-n3 is skipped because
# its cost does not depend on the case count.
SMOKE_CASES = 2
SMOKE_QUERIES = 20
SMOKE_SKIP = {"nxn-n3"}

# ROADMAP item 1's pair: 57 lies in a but not in b, beyond the window the
# epset-laws suite checks.
FIXED_PAIR = ("ep N=10 m=8 R={1} L={}", "ep N=8 m=7 R={0,2,3,4,5,6} L={2,4}")


# Times are reported at reference speed.  Each timed stretch is multiplied by
# REFERENCE_S over the mean time of reference_work measured just before,
# during (for stretches longer than PROBE_EVERY_S) and just after it, in the
# same process.  This takes out the drift in speed of a shared machine, which
# reaches 20-40% within minutes on the 2-core Xeon the bounds were set on; a
# change to ixm leaves the reference work alone.
REFERENCE_S = 0.004
PROBE_EVERY_S = 0.25


def reference_work() -> None:
    """Fixed interpreter-bound work that does not touch ixm; about 4 ms."""
    counts = {}
    seen = set()
    for i in range(6000):
        k = i * 2654435761 % 4099
        counts[k] = counts.get(k, 0) + 1
        seen.add((k, i & 7))
    sorted(counts.items())
    frozenset(seen)


class Round:
    def __init__(self):
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.suite_s = {}
        self.hashes = {}
        self.latencies_ms = []
        self.answers = hashlib.sha256()
        self.reference_s = []  # median reference time of each calibration
        self._pending = []  # (seconds, suite, is_query, probes) since the last one

    def record(self, seconds: float, suite: str | None = None, query: bool = False, probes=()) -> None:
        self._pending.append((seconds, suite, query, list(probes)))

    def timed(self, fn, suite: str | None = None):
        """Call fn as one timed stretch and return its result.  A timer signal
        runs the reference work every PROBE_EVERY_S while fn runs, so that a
        long stretch is scaled by the speed during it; the probes' own time is
        taken off the stretch."""
        probes = []

        def probe(signum, frame):
            t0 = time.perf_counter()
            reference_work()
            probes.append(time.perf_counter() - t0)

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.record(seconds - sum(probes), suite=suite, probes=probes)
            self.calibrate()

    def calibrate(self, samples: int = 7) -> None:
        """Measure the reference work and settle the stretches timed since
        the previous calibration at reference speed."""
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
        now = statistics.median(times)
        before = self.reference_s[-1] if self.reference_s else now
        for seconds, suite, query, probes in self._pending:
            scale = REFERENCE_S / statistics.mean([before, now, *probes])
            self.wall_s += seconds * scale
            if suite is not None:
                self.suite_s[suite] = seconds * scale
            if query:
                self.latencies_ms.append(seconds * scale * 1000)
        self._pending = []
        self.reference_s.append(now)

    def op(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what() if callable(what) else what)


def run_suites(r: Round, workload: str, seed: int, smoke: bool) -> None:
    for name, cases in SUITES[workload]:
        if smoke and name in SMOKE_SKIP:
            continue
        if smoke:
            cases = min(cases, SMOKE_CASES)
        try:
            rep = r.timed(lambda: ixm.laws.run_suite(name, seed=seed, cases=cases), suite=name)
        except Exception as exc:  # a suite that raises is one failed operation
            r.op(False, f"{name} raised {exc!r}")
            continue
        r.attempted += rep.executed
        r.failed += len(rep.failures) + rep.dropped_failures
        r.failures.extend(f"{name}: {f}" for f in rep.failures[: max(0, 5 - len(r.failures))])
        r.hashes[name] = rep.content_hash
    n = CONDITIONS_N.get(workload)
    if n is not None:
        rep = r.timed(lambda: ixm.laws.check_conditions(n), suite="check_conditions")
        for name, ok, detail in rep.results:
            r.op(ok, f"conditions {name}: {detail}")
        r.answers.update(rep.summary().encode())


def _member(s, x: int) -> bool:
    return x in s.low if x < s.threshold else x % s.period in s.residues


def run_epset_pairs(r: Round, workload: str, seed: int, smoke: bool) -> None:
    count = EPSET_PAIRS.get(workload, 0)
    if not count:
        return
    from ixm.sampling import make_rng, random_epset

    rng = make_rng(seed)
    pairs = [(random_epset(rng), random_epset(rng)) for _ in range(SMOKE_QUERIES if smoke else count)]
    pairs.append(tuple(ixm.parse_epset(t) for t in FIXED_PAIR))
    results = r.timed(
        lambda: [
            (a.union(b), a.intersect(b), a.difference(b), a.complement(), a.is_subset(b), a.card())
            for a, b in pairs
        ]
    )
    for (a, b), (union, inter, diff, comp, subset, card) in zip(pairs, results):
        window = range(max(a.threshold, b.threshold) + lcm(a.period, b.period))
        ops = [
            ("union", union, lambda x: _member(a, x) or _member(b, x)),
            ("intersect", inter, lambda x: _member(a, x) and _member(b, x)),
            ("difference", diff, lambda x: _member(a, x) and not _member(b, x)),
            ("complement", comp, lambda x: not _member(a, x)),
        ]
        for name, got, want in ops:
            bad = next((x for x in window if _member(got, x) != want(x)), None)
            r.op(bad is None, lambda: f"{name} of {ixm.render_epset(a)} and {ixm.render_epset(b)} wrong at {bad}")
            r.answers.update(ixm.render_epset(got).encode())
        want_subset = all(_member(b, x) for x in window if _member(a, x))
        r.op(subset == want_subset, lambda: f"is_subset({ixm.render_epset(a)}, {ixm.render_epset(b)})")
        want_card = "aleph0" if a.residues else f"fin:{sum(_member(a, x) for x in window)}"
        r.op(ixm.render_card(card) == want_card, lambda: f"card of {ixm.render_epset(a)}")
        r.answers.update(f"{subset} {ixm.render_card(card)}".encode())


def make_queries(workload: str, rng, offset: float, smoke: bool) -> list:
    """The round's queries, in random order; each kind's thresholds cover a
    log grid from 10 to the workload's upper end."""
    mix, top_hi, period_hi = PROBES[workload]
    out = []
    for kind, count in mix:
        count = min(count, SMOKE_QUERIES) if smoke else count
        for j in range(count):
            top = Q.log_scale(10, top_hi, (j + offset) / count)
            out.append(Q.make_query(rng, kind, top, Q.log_scale(1, period_hi, rng.random())))
    rng.shuffle(out)
    return out


def run_queries(r: Round, workload: str, seed: int, index: int, smoke: bool) -> None:
    rng = random.Random(seed)
    # Rounds shift the magnitude grid by the golden ratio, so the rounds of
    # a run together fill it finely and the 99th percentile moves smoothly.
    todo = make_queries(workload, rng, (index * 0.6180339887 + 0.5) % 1, smoke)

    def ask(argv):
        return Q.run_cli(ixm.cli.main, argv)[1]

    for i, q in enumerate(todo):
        if i % 25 == 0:
            r.calibrate(3)
        t0 = time.perf_counter()
        code, answer = Q.run_cli(ixm.cli.main, q.argv)
        r.record(time.perf_counter() - t0, query=True)
        msg = f"exit code {code}" if code else q.check(answer, ask)
        r.op(msg is None, lambda: f"{q.kind} {q.argv[2:]}: {msg}"[:400])
        r.answers.update(repr((q.argv, answer)).encode())


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    src = os.path.join(ROOT, "src", "ixm")
    if os.path.dirname(os.path.abspath(ixm.__file__)) != src:
        raise SystemExit(f"ixm imported from {ixm.__file__}, not from {src}")
    r = Round()
    r.calibrate(5)
    out = {"setup_s": SETUP_S * REFERENCE_S / r.reference_s[0]}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as T

            tracer, caches = T.install()
        # Each round draws its own inputs, so a run's median is not decided by
        # one rare expensive case; round 0 of seed 0 is `ixm laws --seed 0`.
        round_seed = args.seed * 1000 + args.round
        run_suites(r, args.workload, round_seed, args.smoke)
        run_epset_pairs(r, args.workload, round_seed, args.smoke)
        run_queries(r, args.workload, round_seed, args.round, args.smoke)
        r.calibrate()
        out.update(
            wall_s=r.wall_s,
            attempted=r.attempted,
            failed=r.failed,
            failures=r.failures,
            suite_s=r.suite_s,
            hashes=r.hashes,
            digest=r.answers.hexdigest()[:16],
            latencies_ms=r.latencies_ms,
        )
        if tracer is not None:
            scale = REFERENCE_S / statistics.median(r.reference_s)
            out["layers"] = T.metrics(tracer, caches, scale)
            out["layers"]["laws.member_cache.entries"] = len(ixm.laws._MEMBER_CACHE)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
