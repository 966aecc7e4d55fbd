"""One repetition of a workload, in a process of its own.

``python3 -m perfbench.worker --workload W --seed S --mode sweep`` runs,
in order:

1. **set-up** — ``import repro`` and build the workload's specs;
2. **cold sweep** — a closed loop over the specs through
   ``SerialRunner(cache=ResultCache(disk=<fresh temp dir>))``: one point
   starts when the previous one has finished, and every result is
   written through to the disk tier;
3. **warm sweeps** — each a fresh ``ResultCache`` over the same
   directory (so every lookup is a disk read) followed by
   ``RunSet.to_records()``.  Every warm sweep is digested; a point that
   was not served from disk, or whose result file the cold sweep did not
   leave behind, is reported as failed.

``--mode setup`` stops after step 1.  ``--mode traced`` replaces steps
2-3 with :mod:`perfbench.traced`'s layer-by-layer run and writes its
spans to ``--spans``.

The last stdout line is one JSON object: the timings, the process's peak
RSS, the bytes written to the disk tier and one digest per sweep point
(``null`` for a point that raised).  No process pool is started.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "_out"

if __package__ in (None, ""):  # pragma: no cover - run as a script
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.digest import row_digest  # noqa: E402
from perfbench.metrics import per_layer  # noqa: E402
from perfbench.pace import PacedClock  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

__all__ = ["setup_rep", "sweep_rep", "traced_rep"]


def _digests(rows: Sequence[Optional[dict]]) -> list[Optional[str]]:
    return [row_digest(r) if r is not None else None for r in rows]


def _run_point(runner: Any, spec: Any) -> Any:
    """One sweep point's result, or ``None`` when it raises."""
    try:
        return runner.run([spec])[0].result
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _closed_loop(runner: Any, specs: Sequence[Any],
                 timed: Callable[[Callable[[], Any]], Any]) -> list[Any]:
    """Run one point at a time, each through ``timed``; failures yield ``None``."""
    return [timed(lambda: _run_point(runner, spec)) for spec in specs]


def _set_up(workload: str, seed: int, size: str,
            tracer: Tracer | None = None) -> tuple[tuple, float]:
    """Import ``repro`` and build the specs; return them and the seconds taken.

    Traced, the trace generation that sizes ``paper_grid``'s traces is a
    ``traces.synth`` span, so the layer table covers all of set-up.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (the import is part of set-up)

    if tracer is None:
        specs = workloads.build_plan(workload, seed, size).build()
    else:
        import repro.traces.synthetic as synthetic

        with tracer.probe(synthetic, "generate_application_trace",
                          "traces.synth"):
            plan = workloads.build_plan(workload, seed, size)
        with tracer.span("api.plan_build"):
            specs = plan.build()
    return specs, time.perf_counter() - start


def _provenance() -> dict[str, Any]:
    import numpy

    from repro.api.runner import usable_cpu_count

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "usable_cpus": usable_cpu_count(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_point(runner: Any, spec: Any) -> tuple[Any, bool]:
    """One warm point's result, and whether the disk tier served it."""
    before = runner.cache.disk_hits
    result = _run_point(runner, spec)
    return result, runner.cache.disk_hits > before


def _checked_warm(sweeps: Sequence[tuple[list, list]]) -> list[Optional[str]]:
    """Per-point digests every warm sweep agrees on, all served from disk.

    ``sweeps`` holds each warm sweep's rendered rows and per-point
    served-from-disk flags.  A point that any warm sweep re-simulated, or
    rendered differently from the first, gets ``None`` (a failed point).
    """
    first = _digests(sweeps[0][0])
    checked = list(first)
    for rows, served in sweeps:
        for index, (digest, from_disk) in enumerate(zip(_digests(rows), served)):
            if not from_disk or digest != first[index]:
                checked[index] = None
    return checked


def _paced_set_up(workload: str, seed: int,
                  size: str) -> tuple[tuple, dict[str, float]]:
    """Set up; return the specs and the set-up time, paced and raw."""
    clock = PacedClock()
    specs, wall_s = clock.time(lambda: _set_up(workload, seed, size))
    clock.stop()
    return specs, {"setup_s": clock.paced_s, "setup_wall_s": wall_s}


def setup_rep(workload: str, seed: int) -> dict[str, Any]:
    """Set-up alone: one more ``setup_s`` sample in a fresh process."""
    _, setup = _paced_set_up(workload, seed, "full")
    return {"mode": "setup", **setup}


def sweep_rep(workload: str, seed: int, size: str = "full") -> dict[str, Any]:
    """Set-up, one timed cold sweep and the timed warm sweeps.

    Timings are kept raw (``*_wall_s``) and rescaled to reference machine
    speed (:mod:`perfbench.pace`); the metrics use the rescaled ones.

    A cold point whose result file is missing afterwards, and a warm
    point that was not served from disk, count as failed: their digests
    are ``None``.
    """
    specs, setup = _paced_set_up(workload, seed, size)
    from repro.api import ResultCache, SerialRunner

    keys = [spec.cache_key for spec in specs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{workload}: two sweep points share a cache key")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cache-") as cache:
        runner = SerialRunner(cache=ResultCache(disk=cache))
        cold_clock = PacedClock()
        cold = _closed_loop(runner, specs, cold_clock.time)
        cold_clock.stop()
        disk = runner.cache.disk
        cold_rows = [
            digest if disk.path_for(key).is_file() else None
            for digest, key in zip(_digests(workloads.render_rows(specs, cold)),
                                   keys)
        ]
        cache_bytes = sum(p.stat().st_size for p in Path(cache).glob("*.pkl"))

        def warm_sweep() -> tuple[list, list]:
            runner = SerialRunner(cache=ResultCache(disk=cache))
            results, served = zip(*(_warm_point(runner, spec)
                                    for spec in specs))
            return workloads.render_rows(specs, results, from_cache=True), served

        repeats = workloads.SIZES[size][workload]["warm_repeats"]
        warm_clock = PacedClock()
        warm = [warm_clock.time(warm_sweep) for _ in range(repeats)]
        warm_clock.stop()
    return {
        "mode": "sweep",
        "points": len(specs),
        "device_runs": workloads.device_runs(specs),
        **setup,
        "sweep_s": cold_clock.paced_s,
        "sweep_wall_s": cold_clock.wall_s,
        "warm_s": warm_clock.paced_s / repeats,
        "warm_wall_s": warm_clock.wall_s / repeats,
        "pace": statistics.median(cold_clock.paces + warm_clock.paces),
        "rss_mb": _peak_rss_mb(),
        "cache_mb": cache_bytes / 2**20,
        "rows": cold_rows,
        "warm_rows": _checked_warm(warm),
        "provenance": _provenance(),
    }


def traced_rep(workload: str, seed: int, size: str = "full",
               spans_path: Path | None = None) -> dict[str, Any]:
    """Set-up plus the layer-by-layer traced run; spans written at the end."""
    from perfbench.traced import run_traced

    tracer = Tracer()
    specs, _ = _set_up(workload, seed, size, tracer)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cache-") as cache:
        outcome = run_traced(specs, tracer, cache)
    if spans_path is not None:
        tracer.dump(spans_path)
    return {
        "mode": "traced",
        "points": len(specs),
        "sweep_s": outcome["sweep_s"],
        "layers": per_layer(dict(outcome, spans=tracer.spans)),
        "rows": _digests(outcome["rows"]),
        "warm_rows": _digests(outcome["warm_rows"]),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="sweep",
                        choices=("setup", "sweep", "traced"))
    parser.add_argument("--spans", type=Path, default=None,
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        outcome = setup_rep(args.workload, args.seed)
    elif args.mode == "sweep":
        outcome = sweep_rep(args.workload, args.seed)
    else:
        outcome = traced_rep(args.workload, args.seed, spans_path=args.spans)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
