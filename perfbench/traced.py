"""The traced run: a workload re-executed one layer call at a time.

The untraced sweep hands whole specs to ``SerialRunner``; this module
instead performs each step of ``repro.api``'s execution units itself and
wraps every layer call in a span:

* single-UE points: ``build_trace`` (``traces.synth``), then
  ``execute(RunSpec)`` under one span per scheme (``core.*``);
* cell points, per shard: ``CellSpec.build_devices`` (``api.population``),
  materialising every device stream into a ``PacketTrace``
  (``traces.synth``), ``CellSimulator.run_shard`` on those traces
  (``sim.kernel``), then ``merge_cell_shards`` (``basestation.merge``);
* metro points, per (cell, UE block) task (``metro.task``):
  ``build_metro_shard_devices`` (``metro.devices``, with every
  ``Metro.timeline`` call inside it as ``metro.mobility``), materialising,
  ``run_shard``; then ``merge_metro_run`` (``metro.merge``, with its
  ``merge_cell_shards`` calls as ``basestation.merge``);
* every result makes the pickle round trip a process pool would give it
  (``ipc.pickle``), is stored with ``DiskCacheTier.store``
  (``cache.store``), and is read back by a fresh tier
  (``cache.load``) and rendered with ``RunSet.to_records``
  (``api.records``).

The results must render to the same digest as the untraced sweep; that
is what shows the traced run measures the same program.
"""

from __future__ import annotations

import pickle
import sys
import traceback
from dataclasses import replace
from typing import Any, Sequence

from perfbench.spans import Tracer
from perfbench.workloads import render_rows

__all__ = ["CORE_SPANS", "run_traced"]

#: Span name of ``execute(RunSpec)`` per single-UE scheme.
CORE_SPANS = {
    "status_quo": "core.status_quo",
    "fixed_4.5s": "core.fixed",
    "p95_iat": "core.p95_iat",
    "makeidle": "core.makeidle",
    "oracle": "core.oracle",
    "makeidle+makeactive_learn": "core.learn",
    "makeidle+makeactive_fixed": "core.makeactive_fixed",
}


class _Layers:
    """Executes the layer calls of one traced sweep and counts their work."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.packets = 0
        self.kernel_devices = 0
        self.vector_devices = 0
        self.partial_bytes = 0
        self.handovers = 0
        self._traces_seen: set = set()

    def ship(self, partial: Any) -> Any:
        """Pickle round trip of what a process pool would send back."""
        with self.tracer.span("ipc.pickle"):
            blob = pickle.dumps(partial, protocol=pickle.HIGHEST_PROTOCOL)
            partial = pickle.loads(blob)
        self.partial_bytes += len(blob)
        return partial

    def materialise(self, devices: list) -> list:
        """Each device's packet stream as a ``PacketTrace``."""
        from repro.traces.packet import PacketTrace

        with self.tracer.span("traces.synth"):
            devices = [replace(d, trace=PacketTrace(d.trace)) for d in devices]
        self.packets += sum(len(d.trace) for d in devices)
        return devices

    def kernel(self, simulator: Any, devices: list) -> Any:
        with self.tracer.span("sim.kernel"):
            shard = simulator.run_shard(devices)
        self.kernel_devices += len(devices)
        self.vector_devices += shard.vector_devices
        return shard

    def single(self, spec: Any) -> Any:
        from repro.api.spec import build_trace, execute

        fingerprint = spec.trace.fingerprint
        if fingerprint not in self._traces_seen:
            self._traces_seen.add(fingerprint)
            with self.tracer.span("traces.synth"):
                trace = build_trace(spec.trace)
            self.packets += len(trace)
        with self.tracer.span(CORE_SPANS[spec.policy.scheme]):
            result = execute(spec)
        return self.ship(result)

    def cell(self, spec: Any) -> Any:
        from repro.api.cells import (
            SHARD_SAMPLE_INTERVAL_S,
            _shard_dormancy_policy,
            shard_sizes,
        )
        from repro.basestation.cell import CellSimulator, merge_cell_shards
        from repro.rrc.profiles import get_profile

        sizes = shard_sizes(spec.cell.devices, spec.effective_shards)
        profile = get_profile(spec.carrier)
        partials = []
        start = 0
        for index, size in enumerate(sizes):
            with self.tracer.span("api.population"):
                devices = spec.cell.build_devices(spec.policy, start,
                                                  start + size)
            start += size
            simulator = CellSimulator(
                profile,
                _shard_dormancy_policy(spec.dormancy, sizes, index),
                load_sample_interval_s=(
                    SHARD_SAMPLE_INTERVAL_S if len(sizes) > 1 else None
                ),
                engine=spec.cell.engine,
            )
            shard = self.kernel(simulator, self.materialise(devices))
            partials.append(self.ship(shard))
        with self.tracer.span("basestation.merge"):
            return merge_cell_shards(partials)

    def metro(self, spec: Any) -> Any:
        import repro.metro.execution as execution
        from repro.api.cells import (
            SHARD_SAMPLE_INTERVAL_S,
            DormancySpec,
            _shard_dormancy_policy,
            shard_sizes,
        )
        from repro.api.metro import merge_metro_run
        from repro.basestation.cell import CellSimulator
        from repro.metro.topology import Metro
        from repro.rrc.profiles import get_profile

        population = spec.metro
        sizes = shard_sizes(population.devices, spec.effective_shards)
        profile = get_profile(spec.carrier)
        partials = []
        with self.tracer.probe(Metro, "timeline", "metro.mobility"):
            for cell_index, cell in enumerate(population.metro.cells):
                station = cell.dormancy or DormancySpec()
                begin = 0
                for shard_index, size in enumerate(sizes):
                    with self.tracer.span("metro.task"):
                        with self.tracer.span("metro.devices"):
                            devices = execution.build_metro_shard_devices(
                                population.metro, cell_index,
                                population.devices, population.duration_s,
                                population.seed, population.chunk_s,
                                spec.policy, begin, begin + size,
                            )
                        shard = None
                        if devices:
                            simulator = CellSimulator(
                                profile,
                                _shard_dormancy_policy(station, sizes,
                                                       shard_index),
                                load_sample_interval_s=(
                                    SHARD_SAMPLE_INTERVAL_S
                                    if len(sizes) > 1 else None
                                ),
                                engine=population.engine,
                            )
                            shard = self.kernel(simulator,
                                                self.materialise(devices))
                    begin += size
                    partials.append(
                        self.ship(shard) if shard is not None else None
                    )
        with self.tracer.span("metro.merge"):
            with self.tracer.probe(execution, "merge_cell_shards",
                                   "basestation.merge"):
                result = merge_metro_run(spec, partials)
        self.handovers += result.handovers
        return result

    def execute(self, spec: Any) -> Any:
        from repro.api import CellRunSpec, MetroRunSpec

        if isinstance(spec, MetroRunSpec):
            return self.metro(spec)
        if isinstance(spec, CellRunSpec):
            return self.cell(spec)
        return self.single(spec)


def run_traced(specs: Sequence[Any], tracer: Tracer,
               cache_dir: str) -> dict[str, Any]:
    """Run ``specs`` layer by layer; return rows, counters and timings.

    ``rows`` renders the traced results, ``warm_rows`` the same points
    read back from disk.  A point whose layer calls raise is reported as
    ``None`` (a failed point) and the sweep goes on.
    """
    from repro.api import DiskCacheTier

    layers = _Layers(tracer)
    tier = DiskCacheTier(cache_dir)
    results: list[Any] = []
    done: dict = {}
    with tracer.span("sweep") as sweep:
        for spec in specs:
            key = spec.cache_key
            if key not in done:
                try:
                    result = layers.execute(spec)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    result = None
                else:
                    with tracer.span("cache.store"):
                        tier.store(key, result)
                done[key] = result
            results.append(done[key])
    loaded: list[Any] = []
    with tracer.span("warm"):
        fresh = DiskCacheTier(cache_dir)
        for spec in specs:
            with tracer.span("cache.load"):
                loaded.append(fresh.load(spec.cache_key))
        with tracer.span("api.records"):
            warm_rows = render_rows(specs, loaded, from_cache=True)
    return {
        "rows": render_rows(specs, results),
        "warm_rows": warm_rows,
        "sweep_s": (sweep["end_ns"] - sweep["start_ns"]) / 1e9,
        "entries": fresh.loads,
        "packets": layers.packets,
        "kernel_devices": layers.kernel_devices,
        "vector_devices": layers.vector_devices,
        "partial_bytes": layers.partial_bytes,
        "handovers": layers.handovers,
    }
