"""The benchmark's three workloads, built from a seed through ``repro.api``.

Each builder turns ``(seed, size)`` into an :class:`ExperimentPlan`; the
program only ever sees the specs that plan expands to.  ``repro`` is
imported inside the functions, so importing this module costs nothing
before the set-up clock starts.

* ``paper_grid`` — the Fig. 9/17 single-UE grid: the seven applications x
  four carriers x (status quo + the six compared schemes), over a few
  traces per application.  Each trace is cut at a fixed packet count,
  found by generating a longer trace under the same seed (the generator
  is prefix-stable), so every seed asks for the same volume of work and
  the seed only changes the traffic pattern.
* ``cell_sparse`` — one streamed im/email cell on the vector backend,
  ``accept_all`` station, status quo + ``fixed_4.5s``, K in-process
  device shards.
* ``metro_shuffle`` — ``metro_4cell`` (shuffle mobility, ``rate_limited``
  and ``load_aware`` stations) on the scalar backend, ``fixed_4.5s``,
  K UE-block shards per cell.  The UEs are split over a few independent
  metro populations (seeds derived from the workload seed), so the
  sweep has several points and the pace is sampled between them.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = [
    "DEFAULT_SEED",
    "SIZES",
    "WORKLOADS",
    "build_plan",
    "device_runs",
    "render_rows",
]

WORKLOADS: tuple[str, ...] = ("paper_grid", "cell_sparse", "metro_shuffle")

#: The seed whose sweep digests are committed in ``golden.json``.
DEFAULT_SEED = 0

#: The carrier of the cell and metro workloads (the paper's 3G anchor).
CARRIER = "att_hspa"

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the smoke-test size of the benchmark's own tests.  ``warm_repeats`` is
#: how many warm sweeps one repetition times (their mean is reported):
#: about half a second of them, so that no reported warm time rests on a
#: single millisecond-scale measurement.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "paper_grid": {"traces_per_app": 2, "packets_per_trace": 50,
                       "warm_repeats": 4},
        "cell_sparse": {"devices": 10_000, "duration_s": 60.0, "shards": 4,
                        "warm_repeats": 30},
        "metro_shuffle": {"metros": 4, "devices": 100, "duration_s": 1800.0,
                          "shards": 2, "warm_repeats": 25},
    },
    "tiny": {
        "paper_grid": {"traces_per_app": 1, "packets_per_trace": 6,
                       "warm_repeats": 2},
        "cell_sparse": {"devices": 40, "duration_s": 60.0, "shards": 2,
                        "warm_repeats": 2},
        "metro_shuffle": {"metros": 2, "devices": 8, "duration_s": 1800.0,
                          "shards": 2, "warm_repeats": 2},
    },
}


def cut_duration(app: str, seed: int, packets: int) -> float:
    """A trace length holding exactly the first ``packets`` of ``app``.

    Doubles a generation horizon until the trace holds more than
    ``packets`` packets, then cuts halfway between packet ``packets`` and
    the next one with a later timestamp.
    """
    from repro.traces.synthetic import generate_application_trace

    horizon = 600.0
    while True:
        stamps = generate_application_trace(
            app, duration=horizon, seed=seed
        ).timestamps
        end = packets
        while end < len(stamps) and stamps[end] == stamps[end - 1]:
            end += 1
        if end < len(stamps):
            return (stamps[end - 1] + stamps[end]) / 2.0
        horizon *= 2.0


def build_plan(workload: str, seed: int, size: str = "full"):
    """The workload's :class:`~repro.api.ExperimentPlan` under ``seed``."""
    from repro.api import app, cell, metro, plan

    params = SIZES[size][workload]
    if workload == "paper_grid":
        from repro.core.controller import SCHEME_ORDER
        from repro.rrc.profiles import CARRIER_ORDER
        from repro.traces.synthetic import APPLICATION_NAMES

        count = params["traces_per_app"]
        traces = [
            app(name, duration=cut_duration(name, trace_seed,
                                            params["packets_per_trace"]),
                seed=trace_seed)
            for trace_seed in range(seed * count, (seed + 1) * count)
            for name in APPLICATION_NAMES
        ]
        return (plan().traces(*traces).carriers(*CARRIER_ORDER)
                .policies("status_quo", *SCHEME_ORDER))
    if workload == "cell_sparse":
        population = cell(params["devices"], apps=("im", "email"),
                          duration=params["duration_s"], seed=seed,
                          engine="vector")
        return (plan().cells(population).carriers(CARRIER)
                .policies("status_quo", "fixed_4.5s")
                .dormancy("accept_all").shards(params["shards"]))
    if workload == "metro_shuffle":
        count = params["metros"]
        populations = [
            metro("metro_4cell", devices=params["devices"],
                  duration=params["duration_s"], seed=seed * count + index)
            for index in range(count)
        ]
        return (plan().metros(*populations).carriers(CARRIER)
                .policies("fixed_4.5s").shards(params["shards"]))
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def device_runs(specs: Sequence[Any]) -> int:
    """Device-runs a sweep simulates: cell devices, metro UEs, single UEs."""
    from repro.api import CellRunSpec, MetroRunSpec

    total = 0
    for spec in specs:
        if isinstance(spec, MetroRunSpec):
            total += spec.metro.devices
        elif isinstance(spec, CellRunSpec):
            total += spec.cell.devices
        else:
            total += 1
    return total


def render_rows(specs: Sequence[Any], results: Sequence[Any],
                from_cache: bool = False) -> list[Optional[dict]]:
    """``RunSet.to_records()`` rows in plan order, ``None`` where a point failed.

    The rows come from one ``RunSet`` over every point that produced a
    result, so scheme rows keep their baseline normalisation.
    """
    from repro.api import RunRecord, RunSet

    kept = [RunRecord(spec=s, result=r, from_cache=from_cache)
            for s, r in zip(specs, results) if r is not None]
    rendered = iter(RunSet(kept).to_records())
    return [next(rendered) if r is not None else None for r in results]
