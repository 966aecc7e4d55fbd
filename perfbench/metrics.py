"""Names, units and derivations of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests hold the two in step.
"""

from __future__ import annotations

from typing import Any

from perfbench.spans import layer_seconds

__all__ = ["END_TO_END", "PER_LAYER", "SPAN_METRICS", "per_layer"]

#: End-to-end metrics: name -> (unit, better, bound).  ``bound`` is the
#: share of the parent's median by which a metric may worsen before a
#: change counts as a regression.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "sweep_s": ("s", "lower", 0.25),
    "us_per_device": ("us", "lower", 0.25),
    "warm_s": ("s", "lower", 0.25),
    "rss_mb": ("MiB", "lower", 0.1),
    "cache_mb": ("MiB", "lower", 0.15),
}

#: Per-layer metric -> span name whose summed self time it reports.
SPAN_METRICS: dict[str, str] = {
    "api.plan_build_s": "api.plan_build",
    "api.population_s": "api.population",
    "traces.synth_s": "traces.synth",
    "sim.kernel_s": "sim.kernel",
    "ipc.pickle_s": "ipc.pickle",
    "basestation.merge_s": "basestation.merge",
    "core.status_quo_s": "core.status_quo",
    "core.fixed_s": "core.fixed",
    "core.p95_iat_s": "core.p95_iat",
    "core.makeidle_s": "core.makeidle",
    "core.oracle_s": "core.oracle",
    "core.learn_s": "core.learn",
    "core.makeactive_fixed_s": "core.makeactive_fixed",
    "metro.mobility_s": "metro.mobility",
    "metro.devices_s": "metro.devices",
    "metro.merge_s": "metro.merge",
    "cache.store_s": "cache.store",
    "cache.load_s": "cache.load",
    "api.records_s": "api.records",
}

#: Per-layer metrics: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    **{name: ("s", "lower") for name in SPAN_METRICS},
    "traces.packets": ("count", "higher"),
    "sim.vector_share": ("share", "higher"),
    "ipc.partial_mb": ("MiB", "lower"),
    "metro.task_s": ("s", "lower"),
    "metro.task_max_s": ("s", "lower"),
    "metro.handovers": ("count", "higher"),
    "cache.entries": ("count", "higher"),
    "trace_overhead_s": ("s", "lower"),
}


def per_layer(traced: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced run, except ``trace_overhead_s``.

    Span metrics are self times; ``metro.task_s`` and
    ``metro.task_max_s`` are whole-task (inclusive) times, summed and
    maximal.
    """
    spans = traced["spans"]
    own = layer_seconds(spans)
    metrics = {name: own.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    tasks = [(s["end_ns"] - s["start_ns"]) / 1e9
             for s in spans if s["name"] == "metro.task"]
    kernel_devices = traced["kernel_devices"]
    metrics.update({
        "traces.packets": traced["packets"],
        "sim.vector_share": (traced["vector_devices"] / kernel_devices
                             if kernel_devices else 0.0),
        "ipc.partial_mb": traced["partial_bytes"] / 2**20,
        "metro.task_s": sum(tasks, 0.0),
        "metro.task_max_s": max(tasks, default=0.0),
        "metro.handovers": traced["handovers"],
        "cache.entries": traced["entries"],
    })
    return metrics
