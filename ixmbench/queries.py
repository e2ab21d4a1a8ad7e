"""One-shot CLI queries: inputs drawn from a seed, answers checked outside the timing.

Every query is built from the benchmark's own model of its input (a chart as
pairs plus affine pieces, a finite chart as a tuple, a relation as a set of
pairs), rendered to the CLI's text syntax and passed to ``ixm.cli.main``.
The same model is the oracle for the answer:

* set- and chart-valued answers (``chart stats``/``compose``/``invert``,
  ``rel rho``/``compose``, ``finite minext``/``closure``) are parsed by the
  benchmark and compared pointwise on sampled points of the input;
* boolean answers are checked by mirror duality: ``class member C f`` must
  equal ``class member dual(C) f^-1`` and ``uf stabilises U f`` must equal
  ``uf stabilises U f^-1`` (both asked through the CLI, outside the timing);
  ``uf contains U S`` is checked against the oracle's residue, since an
  ultrafilter holds exactly one of S and its complement.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass

DIVISORS_840 = [d for d in range(1, 841) if 840 % d == 0]
PRIMES = (2, 3, 5, 7)


# -- Benchmark-side model of a chart ------------------------------------------------


@dataclass(frozen=True)
class Model:
    """pairs: {x: y}; pieces: (src_first, src_step, dst_first, dst_step),
    sending src_first + src_step*k to dst_first + dst_step*k for k >= 0."""

    pairs: tuple
    pieces: tuple

    def apply(self, x: int):
        for a, b in self.pairs:
            if a == x:
                return b
        for f, s, g, t in self.pieces:
            if x >= f and (x - f) % s == 0:
                return g + t * ((x - f) // s)
        return None

    def inverse(self) -> "Model":
        return Model(
            tuple((b, a) for a, b in self.pairs),
            tuple((g, t, f, s) for f, s, g, t in self.pieces),
        )

    def text(self) -> str:
        items = [f"pair {a} -> {b}" for a, b in self.pairs]
        items += [f"piece {_prog(f, s)} -> {_prog(g, t)}" for f, s, g, t in self.pieces]
        return "chart { " + "".join(i + "; " for i in items) + "}"

    def landmarks(self) -> list[int]:
        pts = []
        for a, b in self.pairs:
            pts += [a, b]
        for f, s, g, t in self.pieces:
            pts += [f - 1, f, f + s, g - 1, g, g + t]
        return [p for p in pts if p >= 0]


def _prog(first: int, step: int) -> str:
    return f"({first % step} mod {step} from {first // step})"


def _in_prog(x: int, first: int, step: int) -> bool:
    return x >= first and (x - first) % step == 0


def log_scale(lo: float, hi: float, u: float) -> int:
    """The point a share u of the way from lo to hi on a log scale."""
    return round(lo * (hi / lo) ** u)


def gen_chart(rng, top: int, max_period: int) -> Model:
    """A chart with two pieces and two pairs, at magnitude ``top``.

    The first piece's source and destination start near ``top``, so the
    derived sets reach that magnitude; the second starts anywhere below it.
    Sources use distinct residues of one modulus, and so do destinations,
    which makes the map injective by construction.  The shape is fixed so
    that the cost of a query follows its magnitude."""
    periods = [d for d in DIVISORS_840 if 2 <= d <= max(2, max_period)]
    m_src, m_dst = rng.choice(periods), rng.choice(periods)
    src_res = rng.sample(range(m_src), 2)
    dst_res = rng.sample(range(m_dst), 2)
    pieces = []
    for i in range(2):
        t_src = top // m_src if i == 0 else rng.randint(0, top // m_src)
        t_dst = top // m_dst if i == 0 else rng.randint(0, top // m_dst)
        pieces.append((src_res[i] + m_src * t_src, m_src, dst_res[i] + m_dst * t_dst, m_dst))
    pairs = {}
    while len(pairs) < 2:
        x, y = rng.randrange(top + 1), rng.randrange(top + 1)
        if x in pairs or y in pairs.values():
            continue
        if any(_in_prog(x, f, s) or _in_prog(y, g, t) for f, s, g, t in pieces):
            continue
        pairs[x] = y
    return Model(tuple(sorted(pairs.items())), tuple(pieces))


def sample_points(rng, model: Model, top: int, count: int = 24) -> list[int]:
    span = top + 2 * max([s * t for _, s, _, t in model.pieces] + [1]) + 50
    pts = set(model.landmarks())
    while len(pts) < len(model.landmarks()) + count:
        pts.add(rng.randrange(span))
    return sorted(pts)


# -- Parsing the CLI's answers ------------------------------------------------------

_EP = re.compile(r"ep N=(\d+) m=(\d+) R=\{([\d,]*)\} L=\{([\d,]*)\}")
_PIECE = re.compile(r"piece \((\d+) mod (\d+) from (\d+)\) -> \((\d+) mod (\d+) from (\d+)\)")
_PAIR = re.compile(r"pair (\d+) -> (\d+)")
_REL = re.compile(r"rel n=(\d+) \{(.*)\}")


def _ints(text: str) -> set[int]:
    return {int(t) for t in text.split(",") if t}


@dataclass(frozen=True)
class EpSet:
    threshold: int
    period: int
    residues: frozenset
    low: frozenset

    def __contains__(self, x: int) -> bool:
        if x < self.threshold:
            return x in self.low
        return x % self.period in self.residues

    def card(self) -> str:
        return "aleph0" if self.residues else f"fin:{len(self.low)}"

    def co_card(self) -> str:
        if len(self.residues) < self.period:
            return "aleph0"
        return f"fin:{self.threshold - len(self.low)}"


def parse_ep(text: str) -> EpSet:
    m = _EP.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"unparsable set {text!r}")
    return EpSet(int(m[1]), int(m[2]), frozenset(_ints(m[3])), frozenset(_ints(m[4])))


def parse_chart_answer(text: str) -> Model:
    body = text.strip()
    if not (body.startswith("chart {") and body.endswith("}")):
        raise ValueError(f"unparsable chart {text!r}")
    pairs = tuple((int(a), int(b)) for a, b in _PAIR.findall(body))
    pieces = tuple(
        (int(r) + int(m) * int(t), int(m), int(r2) + int(m2) * int(t2), int(m2))
        for r, m, t, r2, m2, t2 in _PIECE.findall(body)
    )
    if body.count("pair") != len(pairs) or body.count("piece") != len(pieces):
        raise ValueError(f"unparsable chart item in {text!r}")
    return Model(pairs, pieces)


def parse_rel_answer(text: str) -> tuple[int, set]:
    m = _REL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"unparsable relation {text!r}")
    pairs = {tuple(int(v) for v in p.split(",")) for p in re.findall(r"\((\d+,\d+)\)", m[2])}
    return int(m[1]), pairs


# -- Ultrafilters, classes, partitions, relations --------------------------------------


def gen_tower(rng) -> tuple:
    """Choices (prime, exponent, residue) of a non-principal residue tower."""
    out = []
    for p in sorted(rng.sample(PRIMES, rng.randint(0, 2))):
        a = rng.randint(1, 2)
        out.append((p, a, rng.randrange(1, p**a)))
    return tuple(out)


def tower_text(choices) -> str:
    return "tower [" + ", ".join(f"{p}^{a}={r}" for p, a, r in choices) + "]"


def tower_residue(choices, m: int) -> int:
    """The tower point modulo m, by the Chinese remainder theorem."""
    local = {p: r for p, _, r in choices}
    rem, mod = 0, 1
    for p in (q for q in range(2, m + 1) if m % q == 0 and all(q % d for d in range(2, q))):
        pk = p
        while m % (pk * p) == 0:
            pk *= p
        want = local.get(p, 0) % pk
        rem += mod * ((want - rem) * pow(mod, -1, pk) % pk)
        mod *= pk
    return rem % mod


_TOKENS = {"plain": "", "inverse": "inv", "meet": "meet"}
_DUAL = {"plain": "inverse", "inverse": "plain", "meet": "meet"}


def gen_class(rng, family: str) -> tuple[str, str, str]:
    """(family, variant, parameter body) of a class literal."""
    variant = rng.choice(("plain", "inverse", "meet"))
    if family == "S":
        body = f"mu={rng.choice(('fin:1', 'aleph0'))}"
    elif family == "P":
        gamma = sorted(rng.sample(range(24), rng.randint(1, 3)))
        body = "gamma={" + ",".join(map(str, gamma)) + "};mu=" + rng.choice(("aleph0", "aleph1"))
    elif family == "V":
        body = f"uf={tower_text(gen_tower(rng))};mu={rng.choice(('aleph0', 'aleph1'))}"
    else:
        body = f"blocks={rng.randint(2, 5)}"
    return family, variant, body


def class_text(family: str, variant: str, body: str) -> str:
    return f"{family}{_TOKENS[variant]}[{body}]"


LOPSIDED = "part blocks ep N=0 m=4 R={0} L={} | ep N=0 m=4 R={2} L={} | ep N=0 m=2 R={1} L={}"


def block_of(partition, x: int) -> int:
    if partition is None:  # LOPSIDED
        return 2 if x % 2 else (0 if x % 4 == 0 else 1)
    return x % partition


def rho_oracle(model: Model, partition) -> set:
    """Block pairs hit infinitely often: the finite pairs never count, and
    along a piece the blocks repeat with a period dividing 4 * n."""
    period = 4 if partition is None else partition
    out = set()
    for f, s, g, t in model.pieces:
        for k in range(period):
            out.add((block_of(partition, f + s * k), block_of(partition, g + t * k)))
    return out


def gen_rel(rng, n: int) -> set:
    return {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4}


def rel_text(n: int, pairs) -> str:
    return f"rel n={n} {{" + ",".join(f"({i},{j})" for i, j in sorted(pairs)) + "}"


def gen_fchart(rng, n: int) -> tuple:
    """A non-empty partial bijection of n points."""
    k = rng.randint(1, n)
    u = [None] * n
    for x, y in zip(rng.sample(range(n), k), rng.sample(range(n), k)):
        u[x] = y
    return tuple(u)


def fchart_text(u) -> str:
    return "[" + ",".join("_" if y is None else str(y) for y in u) + "]"


def fclosure(gens) -> set:
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for u in frontier:
            for v in gens:
                w = tuple(None if e is None else v[e] for e in u)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


# -- Query kinds ------------------------------------------------------------------------


@dataclass
class Query:
    kind: str
    argv: list
    check: object  # callable(answer: str, ask) -> str | None, the failure message


def run_cli(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def make_query(rng, kind: str, top: int, max_period: int) -> Query:
    """One query of the given kind over fresh inputs of magnitude ``top``."""
    if kind in ("chart-stats", "chart-invert", "chart-compose"):
        f = gen_chart(rng, top, max_period)
        pts = sample_points(rng, f, top)
        if kind == "chart-stats":
            return Query(kind, ["chart", "stats", f.text()], lambda a, ask: _check_stats(a, f, pts))
        if kind == "chart-invert":
            return Query(kind, ["chart", "invert", f.text()], lambda a, ask: _check_invert(a, f, pts))
        g = gen_chart(rng, top, max_period)
        pts = sorted(set(pts) | set(sample_points(rng, g, top)))
        return Query(
            kind, ["chart", "compose", f.text(), g.text()], lambda a, ask: _check_compose(a, f, g, pts)
        )
    if kind.startswith("class-member-"):
        fam, variant, body = gen_class(rng, kind[-1])
        f = gen_chart(rng, top, max_period)
        mirror = ["class", "member", class_text(fam, _DUAL[variant], body), f.inverse().text()]
        return Query(
            kind,
            ["class", "member", class_text(fam, variant, body), f.text()],
            lambda a, ask: _check_mirror(a, ask(mirror)),
        )
    if kind == "uf-contains":
        choices = gen_tower(rng)
        m = rng.choice([d for d in DIVISORS_840 if d <= max_period])
        residues = sorted(rng.sample(range(m), rng.randint(0, m)))
        low = sorted(rng.sample(range(top), min(top, rng.randint(0, 6))))
        s = f"ep N={top} m={m} R={{{','.join(map(str, residues))}}} L={{{','.join(map(str, low))}}}"
        want = tower_residue(choices, m) in residues
        return Query(
            kind,
            ["uf", "contains", "uf " + tower_text(choices), s],
            lambda a, ask: None if a == ("true\n" if want else "false\n") else f"want {want}",
        )
    if kind == "uf-stabilises":
        uf = "uf " + tower_text(gen_tower(rng))
        f = gen_chart(rng, top, max_period)
        mirror = ["uf", "stabilises", uf, f.inverse().text()]
        return Query(
            kind,
            ["uf", "stabilises", uf, f.text()],
            lambda a, ask: _check_mirror(a.split("\n")[0] + "\n", ask(mirror).split("\n")[0] + "\n"),
        )
    if kind == "rel-rho":
        partition = rng.choice((2, 3, 4, 5, None))
        text = LOPSIDED if partition is None else f"part mod {partition}"
        f = gen_chart(rng, top, max_period)
        n = 3 if partition is None else partition
        want = rho_oracle(f, partition)
        return Query(
            kind, ["rel", "rho", text, f.text()], lambda a, ask: _check_rel(a, n, want)
        )
    if kind == "rel-compose":
        n = rng.randint(1, 4)
        r, s = gen_rel(rng, n), gen_rel(rng, n)
        want = {(i, k) for i, j in r for j2, k in s if j == j2}
        return Query(
            kind, ["rel", "compose", rel_text(n, r), rel_text(n, s)], lambda a, ask: _check_rel(a, n, want)
        )
    if kind == "finite-minext":
        u = gen_fchart(rng, rng.randint(1, 5))
        fill = u[min(x for x, y in enumerate(u) if y is not None)]
        want = "[" + ",".join(str(fill if y is None else y) for y in u) + "]\n"
        return Query(
            kind, ["finite", "minext", fchart_text(u)], lambda a, ask: None if a == want else f"want {want!r}"
        )
    if kind == "finite-closure":
        n = rng.randint(1, 3)
        gens = sorted({gen_fchart(rng, n) for _ in range(rng.randint(1, 3))}, key=fchart_text)
        want = sorted(fchart_text(u) for u in fclosure(gens))
        want_text = "".join(w + "\n" for w in want) + f"size={len(want)}\n"
        return Query(
            kind,
            ["finite", "closure", *map(fchart_text, gens)],
            lambda a, ask: None if a == want_text else "closure differs from the oracle's",
        )
    if kind == "finite-closure-full":
        # A 4-cycle, a transposition of two of its neighbours and a rank-3
        # partial identity generate all 209 partial bijections of 4 points,
        # so every such query costs the same.
        cycle = rng.sample(range(4), 4)
        swap = list(range(4))
        swap[cycle[0]], swap[cycle[1]] = cycle[1], cycle[0]
        step = [None] * 4
        for i in range(4):
            step[cycle[i]] = cycle[(i + 1) % 4]
        hole = rng.randrange(4)
        gens = [tuple(step), tuple(swap), tuple(None if x == hole else x for x in range(4))]
        want = sorted(fchart_text(u) for u in fclosure(gens))
        want_text = "".join(w + "\n" for w in want) + f"size={len(want)}\n"
        return Query(
            kind,
            ["finite", "closure", *map(fchart_text, gens)],
            lambda a, ask: None if a == want_text else "closure differs from the oracle's",
        )
    if kind == "finite-completeness":
        return Query(
            kind, ["finite", "completeness", "--n", "3", "--format", "records"], lambda a, ask: _check_complete(a)
        )
    raise ValueError(f"unknown query kind {kind!r}")


def _check_stats(answer: str, f: Model, pts) -> str | None:
    fields = dict(line.split("=", 1) for line in answer.splitlines())
    dom, im = parse_ep(fields["dom"]), parse_ep(fields["im"])
    inv = f.inverse()
    for x in pts:
        if (x in dom) != (f.apply(x) is not None):
            return f"dom disagrees at {x}"
        if (x in im) != (inv.apply(x) is not None):
            return f"im disagrees at {x}"
    total = len(dom.residues) == dom.period and len(dom.low) == dom.threshold
    onto = len(im.residues) == im.period and len(im.low) == im.threshold
    ident = all(a == b for a, b in f.pairs) and all((a, s) == (b, t) for a, s, b, t in f.pieces)
    want = {
        "rank": im.card(),
        "collapse": dom.co_card(),
        "defect": im.co_card(),
        "total": "yes" if total else "no",
        "permutation": "yes" if total and onto else "no",
        "partial-identity": "yes" if ident else "no",
    }
    for key, value in want.items():
        if fields[key] != value:
            return f"{key}={fields[key]}, want {value}"
    return None


def _check_invert(answer: str, f: Model, pts) -> str | None:
    h, inv = parse_chart_answer(answer), f.inverse()
    for y in pts:
        if h.apply(y) != inv.apply(y):
            return f"inverse disagrees at {y}"
    for x in pts:
        y = f.apply(x)
        if y is not None and h.apply(y) != x:
            return f"inverse does not undo {x} -> {y}"
    return None


def _check_compose(answer: str, f: Model, g: Model, pts) -> str | None:
    h = parse_chart_answer(answer)
    for x in pts:
        y = f.apply(x)
        want = None if y is None else g.apply(y)
        if h.apply(x) != want:
            return f"composite disagrees at {x}"
    return None


def _check_mirror(answer: str, mirrored: str) -> str | None:
    if answer not in ("true\n", "false\n"):
        return f"not a boolean: {answer!r}"
    return None if answer == mirrored else f"mirror query answered {mirrored!r}"


def _check_rel(answer: str, n: int, want: set) -> str | None:
    got_n, got = parse_rel_answer(answer)
    return None if (got_n, got) == (n, want) else f"relation {sorted(got)}, want {sorted(want)}"


def _check_complete(answer: str) -> str | None:
    rec = json.loads(answer)
    if not (rec["complete"] and rec["matches_predictions"]):
        return f"incomplete search: {rec}"
    return None
