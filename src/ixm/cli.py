"""Command-line front end.

Subcommands mirror the library layers: ``chart`` (parse/compose/invert/
stats/apply), ``class`` (member/witness/dual/admissible/exclude), ``uf``
(contains/stabilises/min), ``rel`` (rho/compose/padding), ``finite``
(classify/completeness/closure/minext), ``laws`` (suite runner) and
``conditions`` (candidate-family audit).

Exit codes: 0 success, 1 check failures, 2 usage or parse errors,
3 resource guard, 4 internal error, 141 reader closed standard output early.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from .cardinal import render_card
from .chart import (
    apply_chart,
    compose,
    invert,
    is_partial_identity,
    is_permutation,
    is_total,
    parse_chart,
    render_chart,
    stats,
)
from .classes import (
    admissibility,
    dual_class,
    excluding_maximal,
    in_class,
    parse_class,
    render_class,
    separating_witness,
)
from .epset import parse_epset, render_epset
from .errors import (
    BROKEN_PIPE_EXIT,
    InternalError,
    IxmError,
    ParameterError,
    ParseError,
    ResourceGuardError,
    UnsupportedWitnessError,
)
from .finite_model import (
    completeness_search,
    fchart_closure,
    minimal_extension,
    parse_fchart,
    predicted_finite_maximals,
    render_fchart,
    sym_group,
)
from .laws import check_conditions, run_suite, suite_names
from .partition_action import (
    padding_perm,
    parse_partition,
    parse_rel,
    rel_compose,
    render_rel,
    rho_of,
)
from .ultrafilter import parse_uf, stabilises_filter, uf_contains, uf_min


def _family_hash(sets) -> str:
    payload = ";".join(
        ",".join(sorted(render_fchart(u) for u in m)) for m in sets
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _emit(records, fmt: str, human) -> None:
    if fmt == "records":
        for r in records:
            print(json.dumps(r, sort_keys=True))
    else:
        human()


def _cmd_chart(args) -> int:
    if args.action == "parse":
        c = parse_chart(args.arg[0])
        print(render_chart(c))
    elif args.action == "compose":
        c = compose(parse_chart(args.arg[0]), parse_chart(args.arg[1]))
        print(render_chart(c))
    elif args.action == "invert":
        print(render_chart(invert(parse_chart(args.arg[0]))))
    elif args.action == "apply":
        c = parse_chart(args.arg[0])
        try:
            x = int(args.arg[1])
        except ValueError as exc:
            raise ParseError(f"point must be an integer, got {args.arg[1]!r}") from exc
        if x < 0:
            raise ParameterError(f"point must be a natural, got {x}")
        y = apply_chart(c, x)
        print("undefined" if y is None else y)
    else:  # stats
        c = parse_chart(args.arg[0])
        st = stats(c)
        print(f"rank={render_card(st.rank)}")
        print(f"collapse={render_card(st.collapse)}")
        print(f"defect={render_card(st.defect)}")
        print(f"dom={render_epset(st.dom)}")
        print(f"im={render_epset(st.im)}")
        print(f"total={'yes' if is_total(c) else 'no'}")
        print(f"permutation={'yes' if is_permutation(c) else 'no'}")
        print(f"partial-identity={'yes' if is_partial_identity(c) else 'no'}")
    return 0


def _cmd_class(args) -> int:
    if args.action == "member":
        c = parse_class(args.arg[0])
        f = parse_chart(args.arg[1])
        print("true" if in_class(c, f) else "false")
        return 0
    if args.action == "witness":
        c1, c2 = parse_class(args.arg[0]), parse_class(args.arg[1])
        try:
            w = separating_witness(c1, c2)
        except UnsupportedWitnessError as e:
            print(f"refused: {e}")
            return 1
        print(render_chart(w))
        return 0
    if args.action == "dual":
        print(render_class(dual_class(parse_class(args.arg[0]))))
        return 0
    if args.action == "admissible":
        ok, why = admissibility(parse_class(args.arg[0]))
        print("admissible" if ok else f"degenerate: {why}")
        return 0
    # exclude
    c = excluding_maximal(parse_chart(args.arg[0]))
    print(render_class(c))
    return 0


def _cmd_uf(args) -> int:
    u = parse_uf(args.arg[0])
    if args.action == "contains":
        s = parse_epset(args.arg[1])
        print("true" if uf_contains(u, s) else "false")
    elif args.action == "stabilises":
        f = parse_chart(args.arg[1])
        ok, wit = stabilises_filter(u, f)
        if ok:
            print("true")
        else:
            print("false")
            if wit is not None:
                print(f"witness={render_epset(wit)}")
    else:  # min
        print(render_card(uf_min(u)))
    return 0


def _cmd_rel(args) -> int:
    if args.action == "rho":
        p = parse_partition(args.arg[0])
        f = parse_chart(args.arg[1])
        print(render_rel(rho_of(p, f)))
    elif args.action == "compose":
        r = parse_rel(args.arg[0])
        s = parse_rel(args.arg[1])
        print(render_rel(rel_compose(r, s)))
    else:  # padding
        p = parse_partition(args.arg[0])
        f = parse_chart(args.arg[1])
        g = parse_chart(args.arg[2])
        print(render_chart(padding_perm(p, f, g)))
    return 0


def _cmd_finite(args) -> int:
    if args.action == "classify":
        preds = predicted_finite_maximals(args.n)
        records = [
            {"label": s.label, "size": len(s.elements)} for s in preds
        ]
        hash_ = _family_hash(s.elements for s in preds)

        def human():
            for r in records:
                print(f"predicted {r['label']} size={r['size']}")
            print(f"count={len(records)} hash={hash_}")

        _emit(records + [{"count": len(records), "hash": hash_}], args.format, human)
        return 0
    if args.action == "completeness":
        res = completeness_search(args.n)
        preds = {s.elements for s in predicted_finite_maximals(args.n)}
        found = set(res.maximal)
        match = found == preds
        records = [
            {
                "n": res.n,
                "complete": res.complete,
                "found": len(res.maximal),
                "found_inverse": len(res.maximal_inverse),
                "matches_predictions": match,
                "hash": _family_hash(
                    sorted(res.maximal, key=lambda m: sorted(map(render_fchart, m)))
                ),
                "note": res.note,
            }
        ]

        def human():
            r = records[0]
            print(
                f"complete={r['complete']} found={r['found']} "
                f"inverse={r['found_inverse']} matches={r['matches_predictions']} "
                f"hash={r['hash']}"
            )

        _emit(records, args.format, human)
        return 0 if match else 1
    if args.action == "closure":
        gens = [parse_fchart(t) for t in args.arg]
        closed = fchart_closure(gens)
        for u in sorted(closed, key=render_fchart):
            print(render_fchart(u))
        print(f"size={len(closed)}")
        return 0
    # minext
    u = parse_fchart(args.arg[0])
    v = minimal_extension(u)
    print("[" + ",".join(str(x) for x in v) + "]")
    return 0


def _cmd_laws(args) -> int:
    names = suite_names() if args.suite == "all" else [args.suite]
    bad = False
    records = []
    for name in names:
        rep = run_suite(name, seed=args.seed, cases=args.cases)
        bad = bad or not rep.ok
        records.append(
            {
                "suite": rep.name,
                "seed": rep.seed,
                "cases": rep.cases,
                "executed": rep.executed,
                "failures": list(rep.failures),
                "dropped_failures": rep.dropped_failures,
                "elapsed_ms": rep.elapsed_ms,
                "note": rep.note,
                "hash": rep.content_hash,
                "ok": rep.ok,
            }
        )
        if args.format == "records":
            print(json.dumps(records[-1], sort_keys=True))
        else:
            print(rep.summary())
            for f in rep.failures:
                print(f"  failing input: {f}")
    return 1 if bad else 0


def _cmd_conditions(args) -> int:
    gens = None
    if args.group == "sym":
        gens = sym_group(args.n)
    rep = check_conditions(args.n, group_gens=gens)
    if args.format == "records":
        print(
            json.dumps(
                {
                    "n": rep.n,
                    "results": [
                        {"condition": name, "ok": ok, "detail": detail}
                        for name, ok, detail in rep.results
                    ],
                    "note": rep.note,
                    "ok": rep.ok,
                },
                sort_keys=True,
            )
        )
    else:
        print(rep.summary())
        for name, ok, detail in rep.results:
            print(f"  {name}: {'ok' if ok else 'FAIL'} - {detail}")
        if rep.note:
            print(f"  note: {rep.note}")
    return 0 if rep.ok else 1


# The actions of each verb and the operands each takes, in help order;
# None marks the variadic `finite closure`.
_OPERANDS = {
    "chart": {"parse": 1, "compose": 2, "invert": 1, "apply": 2, "stats": 1},
    "class": {"member": 2, "witness": 2, "dual": 1, "admissible": 1, "exclude": 1},
    "uf": {"contains": 2, "stabilises": 2, "min": 1},
    "rel": {"rho": 2, "compose": 2, "padding": 3},
    "finite": {"classify": 0, "completeness": 0, "closure": None, "minext": 1},
}


def _check_operands(args) -> None:
    if args.command not in _OPERANDS:
        return
    want = _OPERANDS[args.command][args.action]
    if want is not None and len(args.arg) != want:
        raise ParameterError(
            f"{args.command} {args.action} takes {want} operand{'s' * (want != 1)}, "
            f"got {len(args.arg)}"
        )


# Building the tree costs more than a small query, and parsing leaves it
# unchanged, so one process builds it once, on first use.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ixm",
        description="Workbench for partial bijections of the naturals.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def verb(name, fn, **kw):
        actions = _OPERANDS[name]
        v = sub.add_parser(name, help=", ".join(actions), **kw)
        v.add_argument("action", choices=list(actions))
        v.add_argument("arg", nargs="*")
        v.set_defaults(fn=fn)
        return v

    verb("chart", _cmd_chart)
    verb("class", _cmd_class)
    verb("uf", _cmd_uf)
    verb("rel", _cmd_rel)
    f = verb(
        "finite",
        _cmd_finite,
        description="Partial injections on {0..n-1}. 'classify' lists the "
        "predicted maximal subsemigroups; 'completeness' finds them all by "
        "J-class reduction and compares (2 <= n <= 4); 'closure' generates "
        "a subsemigroup; 'minext' gives a minimal total extension.",
    )
    f.add_argument("--n", type=int, default=3, help="ground-set size (default 3)")
    f.add_argument("--format", choices=["text", "records"], default="text")

    l = sub.add_parser("laws", help="run a law suite")
    l.add_argument("--suite", required=True, help="suite id, or 'all'")
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--cases", type=int, default=None)
    l.add_argument("--format", choices=["text", "records"], default="text")
    l.set_defaults(fn=_cmd_laws)

    d = sub.add_parser("conditions", help="audit a finite candidate family")
    d.add_argument("--n", type=int, default=3)
    d.add_argument("--group", choices=["ideal", "sym"], default="ideal")
    d.add_argument("--format", choices=["text", "records"], default="text")
    d.set_defaults(fn=_cmd_conditions)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _check_operands(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (`ixm ... | head`).  As the `signal`
        # docs advise, point stdout at devnull so the flush at exit is
        # quiet, and print no traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    except ResourceGuardError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 3
    except (ParseError, ParameterError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except IxmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
