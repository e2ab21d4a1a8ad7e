"""Per-layer tracing from outside the program.

``install`` replaces each listed public function by a wrapper in every
``ixm.*`` module namespace that binds it (``laws`` and ``cli`` import names
directly, so patching the defining module alone would miss their calls) and
replaces the EPSet boolean methods on the class.  Each wrapper is one span:
spans are aggregated in memory per metric name as a call count, total time
and self time (total minus the time of directly nested spans).  Several
functions may share one metric name; ``sampling`` and the ``cli.parse`` and
``cli.render`` groups do.  Nothing under ``src/`` changes, and an untraced
process never imports this module.
"""

from __future__ import annotations

import argparse
import builtins
import sys
import time

# (module, function, metric) for functions patched wherever they are bound.
LIBRARY = [
    ("epset", "make_epset", "epset.make_epset"),
    ("epset", "union_all", "epset.union_all"),
    ("chart", "make_chart", "chart.make_chart"),
    ("chart", "compose", "chart.compose"),
    ("chart", "invert", "chart.invert"),
    ("chart", "apply_chart", "chart.apply_chart"),
    ("chart", "image_of_set", "chart.image_of_set"),
    ("chart", "stats", "chart.stats"),
    ("classes", "in_class", "classes.in_class"),
    ("classes", "in_class_v_alt", "classes.in_class_v_alt"),
    ("classes", "separating_witness", "classes.separating_witness"),
    ("ultrafilter", "uf_contains", "ultrafilter.uf_contains"),
    ("ultrafilter", "stabilises_filter", "ultrafilter.stabilises_filter"),
    ("partition_action", "rho_of", "partition_action.rho_of"),
    ("partition_action", "rel_compose", "partition_action.rel_compose"),
    ("partition_action", "padding_perm", "partition_action.padding_perm"),
    ("partition_action", "canonical_rel", "partition_action.canonical_rel"),
    ("partition_action", "nxn_closure_check", "partition_action.nxn_closure_check"),
    ("finite_model", "fchart_compose", "finite_model.fchart_compose"),
    ("finite_model", "fchart_closure", "finite_model.fchart_closure"),
    ("finite_model", "is_maximal", "finite_model.is_maximal"),
    ("finite_model", "completeness_search", "finite_model.completeness_search"),
    ("finite_model", "injective_mutt_membership", "finite_model.injective_mutt_membership"),
]
EPSET_METHODS = ("union", "intersect", "difference", "complement")
# Reported with calls and self time; the groups below report self time only.
COUNTED = [m for _, _, m in LIBRARY] + [f"epset.{name}" for name in EPSET_METHODS]
CACHES = [
    ("chart", "stats"),
    ("chart", "dom_set"),
    ("chart", "im_set"),
    ("partition_action", "rho_of"),
]
GROUPS = ["sampling", "cli.main", "cli.parse", "cli.render"]


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # metric -> [calls, total_s, self_s]
        self._stack: list[float] = []  # child time of each open span

    def wrap(self, metric: str, fn):
        acc = self.spans.setdefault(metric, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - stack.pop()
                if stack:
                    stack[-1] += dur

        span.__wrapped__ = fn
        return span


def _ixm_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "ixm" or name.startswith("ixm.")]


def _patch_everywhere(tracer: Tracer, orig, metric: str) -> None:
    wrapped = tracer.wrap(metric, orig)
    for mod in _ixm_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install() -> tuple[Tracer, dict]:
    """Patch the listed functions; return the tracer and the original cached
    functions, whose ``cache_info()`` gives the hit ratios."""
    import ixm.cli as cli
    import ixm.epset as epset
    import ixm.sampling as sampling

    tracer = Tracer()
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _ixm_modules()}
    caches = {f"{mod}.{fn}": getattr(mods[mod], fn) for mod, fn in CACHES}
    for mod, fn, metric in LIBRARY:
        _patch_everywhere(tracer, getattr(mods[mod], fn), metric)
    for name in EPSET_METHODS:
        setattr(epset.EPSet, name, tracer.wrap(f"epset.{name}", getattr(epset.EPSet, name)))
    for name in dir(sampling):
        if name.startswith("random_") or name == "sample_in_class":
            _patch_everywhere(tracer, getattr(sampling, name), "sampling")

    # The CLI layer: only calls made by ``cli`` itself count here.
    cli.main = tracer.wrap("cli.main", cli.main)
    for name in dir(cli):
        if name.startswith("parse_") or name == "_build_parser":
            setattr(cli, name, tracer.wrap("cli.parse", getattr(cli, name)))
        elif name.startswith("render_"):
            setattr(cli, name, tracer.wrap("cli.render", getattr(cli, name)))
    cli.print = tracer.wrap("cli.render", builtins.print)
    argparse.ArgumentParser.parse_args = tracer.wrap("cli.parse", argparse.ArgumentParser.parse_args)
    return tracer, caches


def metrics(tracer: Tracer, caches: dict, scale: float) -> dict:
    """Per-layer metrics; self times are multiplied by ``scale``."""
    out = {}
    for metric in COUNTED:
        calls, _, self_s = tracer.spans.get(metric, (0, 0.0, 0.0))
        out[f"{metric}.calls"] = calls
        out[f"{metric}.self_s"] = self_s * scale
    for metric in GROUPS:
        out[f"{metric}.self_s"] = tracer.spans.get(metric, (0, 0.0, 0.0))[2] * scale
    for name, fn in caches.items():
        info = fn.cache_info()
        looked = info.hits + info.misses
        out[f"{name}.hit_ratio"] = info.hits / looked if looked else 0.0
    return out
