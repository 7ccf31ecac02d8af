"""Per-layer tracing of spqs from outside the package.

`install` wraps the listed public functions in every spqs module namespace
that binds them, so calls through any import path are recorded; nothing
under src/ changes.  `layer_metrics` turns the recorded spans into the
per-layer metrics.  A "Maslov evaluation" is one evaluation of a maslov_qs
quasi-state or one `spqs eval` call: the two places that run the auto
dispatch between the spectral and the limit route.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict

import spans as sp

EVAL = "quasistates.maslov_eval"
HARNESS = (
    "check_quasi_linearity",
    "check_ad_invariance",
    "fit_gleason_on_unitary",
    "embed_gl",
    "fit_rank_one_trace",
    "check_isotropic_linearity",
    "fit_main_theorem",
)


def _batch_info(args, kwargs, result):
    elements = args[0] if args else kwargs["elements"]
    if not result:
        return None
    return {"m": len(elements), "n": elements[0].space.n, "steps": result[0].samples_used - 1}


def _limit_info(args, kwargs, result):
    return {"steps": result.samples_used - 1}


def _text_info(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _cli_info(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


# (span name, module, function, describe)
TARGETS = (
    ("maslov.limit_batch", "spqs.maslov", "maslov_limit_batch", _batch_info),
    ("maslov.limit", "spqs.maslov", "maslov_limit", _limit_info),
    ("maslov.maslov_spectral", "spqs.maslov", "maslov_spectral", None),
    ("kernels.lift_argument", "spqs.kernels", "lift_argument", None),
    ("kernels.complex_blocks", "spqs.kernels", "complex_blocks", None),
    ("williamson.classify_eigenstructure", "spqs.williamson", "classify_eigenstructure", None),
    ("williamson.krein_parameters", "spqs.williamson", "krein_parameters", None),
    ("williamson.williamson_decompose", "spqs.williamson", "williamson_decompose", None),
    ("williamson.yz_decomposition", "spqs.williamson", "yz_decomposition", None),
    ("williamson.random_semisimple", "spqs.williamson", "random_semisimple", None),
    *((f"harness.{f}", "spqs.harness", f, None) for f in HARNESS),
    ("symplectic.commuting_pair", "spqs.symplectic", "commuting_pair", None),
    (
        "symplectic.random_symplectic_group_element",
        "spqs.symplectic",
        "random_symplectic_group_element",
        None,
    ),
    ("symplectic.project_skew_symplectic", "spqs.symplectic", "project_skew_symplectic", None),
    ("report.reports_to_text", "spqs.report", "reports_to_text", _text_info),
    ("matrixio.read_matrix", "spqs.matrixio", "read_matrix", None),
    ("matrixio.atomic_write", "spqs.matrixio", "atomic_write", None),
    ("cli.main", "spqs.cli", "main", _cli_info),
)

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
METRICS = {
    "maslov.limit_batch.elem_steps": ("count", "lower"),
    "maslov.limit_batch.us_per_elem_step": ("us", "lower"),
    **{f"maslov.limit_batch.us_per_elem_step.n{n}": ("us", "lower") for n in (1, 2, 3, 4)},
    "maslov.limit_batch.self_s": ("s", "lower"),
    "maslov.limit_batch.attempts_per_call": ("ratio", "lower"),
    "maslov.limit.us_per_step": ("us", "lower"),
    "maslov.maslov_spectral.calls": ("count", "lower"),
    "maslov.maslov_spectral.us_per_call": ("us", "lower"),
    "kernels.lift_argument.calls": ("count", "lower"),
    "kernels.lift_argument.busy_s": ("s", "lower"),
    "kernels.lift_argument.share_of_sweep": ("fraction", "lower"),
    "kernels.complex_blocks.busy_s": ("s", "lower"),
    "williamson.classify_eigenstructure.calls": ("count", "lower"),
    "williamson.classify_eigenstructure.us_per_call": ("us", "lower"),
    "williamson.classify_per_maslov_eval": ("ratio", "lower"),
    "williamson.krein_parameters.busy_s": ("s", "lower"),
    "williamson.williamson_decompose.calls": ("count", "lower"),
    "williamson.williamson_decompose.busy_s": ("s", "lower"),
    "williamson.yz_decomposition.calls": ("count", "lower"),
    "williamson.yz_decomposition.busy_s": ("s", "lower"),
    "williamson.random_semisimple.busy_s": ("s", "lower"),
    "quasistates.maslov_evals": ("count", "lower"),
    "quasistates.route_limit_share": ("fraction", "lower"),
    **{
        f"harness.{f}.{kind}": ("s", "lower")
        for f in HARNESS
        for kind in ("busy_s", "self_s")
    },
    "symplectic.commuting_pair.calls": ("count", "lower"),
    "symplectic.commuting_pair.busy_s": ("s", "lower"),
    "symplectic.random_symplectic_group_element.calls": ("count", "lower"),
    "symplectic.random_symplectic_group_element.busy_s": ("s", "lower"),
    "symplectic.project_skew_symplectic.calls": ("count", "lower"),
    "report.reports_to_text.busy_s": ("s", "lower"),
    "report.bytes": ("B", "lower"),
    "matrixio.read_matrix.busy_s": ("s", "lower"),
    "matrixio.atomic_write.busy_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
}


def _traced_maslov_qs(tracer, factory):
    """maslov_qs whose quasi-states record one EVAL span per evaluation."""

    @functools.wraps(factory)
    def make(*args, **kwargs):
        qs = factory(*args, **kwargs)
        return dataclasses.replace(
            qs,
            evaluate=tracer.wrap(EVAL, qs.evaluate),
            evaluate_with_error=tracer.wrap(EVAL, qs.evaluate_with_error),
        )

    return make


def install(tracer) -> list:
    """Wrap every target; returns what `uninstall` needs to undo it."""
    undo = []
    for name, module, attr, describe in TARGETS:
        fn = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(name, fn, describe)
        undo += [(mod, a, fn) for mod, a in sp.rebind("spqs", fn, wrapped)]
    factory = sys.modules["spqs.quasistates"].maslov_qs
    wrapped = _traced_maslov_qs(tracer, factory)
    undo += [(mod, a, factory) for mod, a in sp.rebind("spqs", factory, wrapped)]
    return undo


def uninstall(undo: list) -> None:
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Every METRICS entry except the trace overhead, from recorded spans."""
    kids = sp.children(spans)
    names = sp.by_name(spans)

    def calls(name):
        return len(names[name])

    def total(name):
        return sum(spans[i].duration for i in names[name])

    def self_sum(name):
        return sum(sp.self_time(spans, i, kids) for i in names[name])

    def inside(name, outer):
        """Spans called `name` that run inside a span called `outer`."""
        return [
            i
            for i in names[name]
            if sp.nearest_ancestor(spans, i, lambda p: spans[p].name == outer) >= 0
        ]

    m = {}
    batches = [i for i in names["maslov.limit_batch"] if spans[i].info]
    self_by_n, steps_by_n = defaultdict(float), defaultdict(int)
    for i in batches:
        info = spans[i].info
        self_by_n[info["n"]] += sp.self_time(spans, i, kids)
        steps_by_n[info["n"]] += info["m"] * info["steps"]
    elem_steps = sum(steps_by_n.values())
    m["maslov.limit_batch.elem_steps"] = elem_steps
    m["maslov.limit_batch.us_per_elem_step"] = _ratio(1e6 * sum(self_by_n.values()), elem_steps)
    for n in (1, 2, 3, 4):
        m[f"maslov.limit_batch.us_per_elem_step.n{n}"] = _ratio(1e6 * self_by_n[n], steps_by_n[n])
    m["maslov.limit_batch.self_s"] = self_sum("maslov.limit_batch")
    m["maslov.limit_batch.attempts_per_call"] = _ratio(
        len(inside("kernels.lift_argument", "maslov.limit_batch")),
        sum(spans[i].info["m"] for i in batches),
    )
    limit_steps = sum(spans[i].info["steps"] for i in names["maslov.limit"] if spans[i].info)
    m["maslov.limit.us_per_step"] = _ratio(1e6 * total("maslov.limit"), limit_steps)
    m["maslov.maslov_spectral.calls"] = calls("maslov.maslov_spectral")
    m["maslov.maslov_spectral.us_per_call"] = _ratio(
        1e6 * total("maslov.maslov_spectral"), calls("maslov.maslov_spectral")
    )

    m["kernels.lift_argument.calls"] = calls("kernels.lift_argument")
    m["kernels.lift_argument.busy_s"] = sp.busy_time(spans, "kernels.lift_argument")
    m["kernels.lift_argument.share_of_sweep"] = _ratio(
        sum(spans[i].duration for i in inside("kernels.lift_argument", "maslov.limit_batch")),
        sp.busy_time(spans, "maslov.limit_batch"),
    )
    m["kernels.complex_blocks.busy_s"] = sp.busy_time(spans, "kernels.complex_blocks")

    evals = set(names[EVAL]) | {
        i for i in names["cli.main"] if (spans[i].info or {}).get("command") == "eval"
    }
    classify = "williamson.classify_eigenstructure"
    in_eval = [i for i in names[classify] if sp.nearest_ancestor(spans, i, evals.__contains__) >= 0]
    limit_evals = {
        sp.nearest_ancestor(spans, i, evals.__contains__) for i in names["maslov.limit_batch"]
    } - {-1}
    m[f"{classify}.calls"] = calls(classify)
    m[f"{classify}.us_per_call"] = _ratio(1e6 * total(classify), calls(classify))
    m["williamson.classify_per_maslov_eval"] = _ratio(len(in_eval), len(evals))
    m["williamson.krein_parameters.busy_s"] = sp.busy_time(spans, "williamson.krein_parameters")
    for f in ("williamson_decompose", "yz_decomposition"):
        m[f"williamson.{f}.calls"] = calls(f"williamson.{f}")
        m[f"williamson.{f}.busy_s"] = sp.busy_time(spans, f"williamson.{f}")
    m["williamson.random_semisimple.busy_s"] = sp.busy_time(spans, "williamson.random_semisimple")
    m["quasistates.maslov_evals"] = len(evals)
    m["quasistates.route_limit_share"] = _ratio(len(limit_evals), len(evals))

    for f in HARNESS:
        m[f"harness.{f}.busy_s"] = sp.busy_time(spans, f"harness.{f}")
        m[f"harness.{f}.self_s"] = self_sum(f"harness.{f}")
    for f in ("commuting_pair", "random_symplectic_group_element"):
        m[f"symplectic.{f}.calls"] = calls(f"symplectic.{f}")
        m[f"symplectic.{f}.busy_s"] = sp.busy_time(spans, f"symplectic.{f}")
    m["symplectic.project_skew_symplectic.calls"] = calls("symplectic.project_skew_symplectic")
    m["report.reports_to_text.busy_s"] = sp.busy_time(spans, "report.reports_to_text")
    m["report.bytes"] = sum(
        spans[i].info["bytes"] for i in names["report.reports_to_text"] if spans[i].info
    )
    m["matrixio.read_matrix.busy_s"] = sp.busy_time(spans, "matrixio.read_matrix")
    m["matrixio.atomic_write.busy_s"] = sp.busy_time(spans, "matrixio.atomic_write")
    m["cli.main.self_s"] = self_sum("cli.main")
    return m
