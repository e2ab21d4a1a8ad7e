"""Command-line front end.

Subcommands mirror the library layers: ``chart`` (parse/compose/invert/
stats/apply), ``class`` (member/witness/dual/admissible/exclude), ``uf``
(contains/stabilises/min), ``rel`` (rho/compose/padding), ``finite``
(classify/completeness/closure/minext), ``laws`` (suite runner) and
``conditions`` (candidate-family audit).

Each action of the first five is one entry of ``_ACTIONS``: a handler whose
parameters after the parsed arguments are its operands (``finite closure``
takes any number), so ``_run_action`` reads the operand count from its
signature, and whose result is the exit code (None for 0).  Handlers look up ``parse_*``, ``render_*`` and ``print`` by name
when they run and the table never holds those functions, so a tracer that
patches these names in this module sees every call.

A plain table call skips argparse: ``argv[0]`` is a verb of ``_ACTIONS``,
``argv[1]`` one of its actions, and no operand starts with ``-``.  Argparse
reads every such token as a positional, so its namespace for that argv is
its namespace for ``[verb, action]`` with ``arg`` set to the operands;
``main`` builds exactly that from a cached parse of ``[verb, action]``,
looking ``_build_parser`` up by name, as it does for every other argv.
Every other argv (options, ``-h``, ``--``, a negative point, an unknown verb
or action, ``laws``, ``conditions``, no argv at all) goes through the parser,
which stays the one definition of the grammar, defaults, help and errors.

Exit codes: 0 success, 1 check failures, 2 usage or parse errors,
3 resource guard, 4 internal error, 141 reader closed standard output early.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import permutations

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
    import hashlib  # here, not at module level: only the finite verbs hash

    payload = ";".join(
        ",".join(sorted(render_fchart(u) for u in m)) for m in sets
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _emit(records, fmt: str, human) -> None:
    if fmt == "records":
        import json  # here, not at module level: text output needs none

        for r in records:
            print(json.dumps(r, sort_keys=True))
    else:
        human()


def _chart_apply(args, chart, point) -> None:
    c = parse_chart(chart)
    try:
        x = int(point)
    except ValueError as exc:
        raise ParseError(f"point must be an integer, got {point!r}") from exc
    if x < 0:
        raise ParameterError(f"point must be a natural, got {x}")
    y = apply_chart(c, x)
    print("undefined" if y is None else y)


def _chart_stats(args, chart) -> None:
    c = parse_chart(chart)
    st = stats(c)
    print(f"rank={render_card(st.rank)}")
    print(f"collapse={render_card(st.collapse)}")
    print(f"defect={render_card(st.defect)}")
    print(f"dom={render_epset(st.dom)}")
    print(f"im={render_epset(st.im)}")
    print(f"total={'yes' if is_total(c) else 'no'}")
    print(f"permutation={'yes' if is_permutation(c) else 'no'}")
    print(f"partial-identity={'yes' if is_partial_identity(c) else 'no'}")


def _class_witness(args, first, second) -> int | None:
    c1, c2 = parse_class(first), parse_class(second)
    try:
        w = separating_witness(c1, c2)
    except UnsupportedWitnessError as e:
        print(f"refused: {e}")
        return 1
    print(render_chart(w))


def _class_admissible(args, cls) -> None:
    ok, why = admissibility(parse_class(cls))
    print("admissible" if ok else f"degenerate: {why}")


def _uf_stabilises(args, uf, chart) -> None:
    ok, wit = stabilises_filter(parse_uf(uf), parse_chart(chart))
    print("true" if ok else "false")
    if not ok and wit is not None:
        print(f"witness={render_epset(wit)}")


def _finite_classify(args) -> None:
    preds = predicted_finite_maximals(args.n)
    records = [{"label": s.label, "size": len(s.elements)} for s in preds]
    hash_ = _family_hash(s.elements for s in preds)

    def human():
        for r in records:
            print(f"predicted {r['label']} size={r['size']}")
        print(f"count={len(records)} hash={hash_}")

    _emit(records + [{"count": len(records), "hash": hash_}], args.format, human)


def _finite_completeness(args) -> int:
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


def _finite_closure(args, *gens) -> None:
    closed = fchart_closure([parse_fchart(t) for t in gens])
    # Distinct maps render to distinct strings, so sorting the renders
    # orders the lines as sorting the maps by their render would.
    for line in sorted(map(render_fchart, closed)):
        print(line)
    print(f"size={len(closed)}")


# Each verb's actions and their handlers, in help order.
_ACTIONS = {
    "chart": {
        "parse": lambda args, chart: print(render_chart(parse_chart(chart))),
        "compose": lambda args, f, g: print(render_chart(compose(parse_chart(f), parse_chart(g)))),
        "invert": lambda args, chart: print(render_chart(invert(parse_chart(chart)))),
        "apply": _chart_apply,
        "stats": _chart_stats,
    },
    "class": {
        "member": lambda args, cls, chart: print(
            "true" if in_class(parse_class(cls), parse_chart(chart)) else "false"
        ),
        "witness": _class_witness,
        "dual": lambda args, cls: print(render_class(dual_class(parse_class(cls)))),
        "admissible": _class_admissible,
        "exclude": lambda args, chart: print(render_class(excluding_maximal(parse_chart(chart)))),
    },
    "uf": {
        "contains": lambda args, uf, s: print(
            "true" if uf_contains(parse_uf(uf), parse_epset(s)) else "false"
        ),
        "stabilises": _uf_stabilises,
        "min": lambda args, uf: print(render_card(uf_min(parse_uf(uf)))),
    },
    "rel": {
        "rho": lambda args, part, chart: print(
            render_rel(rho_of(parse_partition(part), parse_chart(chart)))
        ),
        "compose": lambda args, r, s: print(render_rel(rel_compose(parse_rel(r), parse_rel(s)))),
        "padding": lambda args, part, f, g: print(
            render_chart(padding_perm(parse_partition(part), parse_chart(f), parse_chart(g)))
        ),
    },
    "finite": {
        "classify": _finite_classify,
        "completeness": _finite_completeness,
        "closure": _finite_closure,
        "minext": lambda args, u: print(
            "[" + ",".join(str(x) for x in minimal_extension(parse_fchart(u))) + "]"
        ),
    },
}


_CO_VARARGS = 0x04  # the code flag inspect.CO_VARARGS, without importing inspect


def _run_action(args) -> int:
    handler = _ACTIONS[args.command][args.action]
    code = handler.__code__
    want = code.co_argcount - 1
    if not code.co_flags & _CO_VARARGS and len(args.arg) != want:
        raise ParameterError(
            f"{args.command} {args.action} takes {want} operand{'s' * (want != 1)}, "
            f"got {len(args.arg)}"
        )
    return handler(args, *args.arg) or 0


def _cmd_laws(args) -> int:
    names = suite_names() if args.suite == "all" else [args.suite]
    bad = False
    for name in names:
        rep = run_suite(name, seed=args.seed, cases=args.cases)
        bad = bad or not rep.ok
        record = {
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

        def human():
            print(rep.summary())
            for f in rep.failures:
                print(f"  failing input: {f}")

        _emit([record], args.format, human)
    return 1 if bad else 0


def _cmd_conditions(args) -> int:
    # Lazy, so that a ground set out of range is refused before S_n is listed.
    gens = permutations(range(args.n)) if args.group == "sym" else None
    rep = check_conditions(args.n, group_gens=gens)
    record = {
        "n": rep.n,
        "results": [
            {"condition": name, "ok": ok, "detail": detail}
            for name, ok, detail in rep.results
        ],
        "note": rep.note,
        "ok": rep.ok,
    }

    def human():
        print(rep.summary())
        for name, ok, detail in rep.results:
            print(f"  {name}: {'ok' if ok else 'FAIL'} - {detail}")
        if rep.note:
            print(f"  note: {rep.note}")

    _emit([record], args.format, human)
    return 0 if rep.ok else 1


# Building the tree costs more than a small query, and parsing leaves it
# unchanged, so one process builds it once, on first use.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ixm",
        description="Workbench for partial bijections of the naturals.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, actions in _ACTIONS.items():
        v = sub.add_parser(name, help=", ".join(actions))
        v.add_argument("action", choices=list(actions))
        v.add_argument("arg", nargs="*")
        v.set_defaults(fn=_run_action)
    f = sub.choices["finite"]
    f.description = (
        "Partial injections on {0..n-1}. 'classify' lists the "
        "predicted maximal subsemigroups; 'completeness' finds them all by "
        "J-class reduction and compares (2 <= n <= 4); 'closure' generates "
        "a subsemigroup; 'minext' gives a minimal total extension."
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


@functools.cache
def _table_defaults(verb: str, action: str) -> dict:
    """What argparse returns for ``[verb, action]``, less the empty operand
    list.  At most one entry per ``_ACTIONS`` entry (20), filled on first use."""
    parsed = vars(_build_parser().parse_args([verb, action]))
    return {k: v for k, v in parsed.items() if k != "arg"}


def _plain_call(argv) -> argparse.Namespace | None:
    """The namespace argparse would return for a plain table call, or None
    when ``argv`` is not one (see the module docstring)."""
    if len(argv) < 2 or argv[1] not in _ACTIONS.get(argv[0], ()):
        return None
    operands = list(argv[2:])
    if any(t.startswith("-") for t in operands):
        return None
    return argparse.Namespace(arg=operands, **_table_defaults(argv[0], argv[1]))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_call(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return 2 if e.code not in (0, None) else 0
    try:
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
