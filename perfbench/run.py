"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 30 --trace 0

The runner never imports ``repro`` itself.  It starts one fresh worker
process per repetition (:mod:`perfbench.worker`), one after another, and
keeps starting them until ``--seconds`` is used up (at least three).
Each repetition sets up, runs a cold sweep and times warm sweeps, and is
followed by set-up-only workers that add ``setup_s`` samples; the
reported end-to-end metrics are medians over the repetitions.  With
``--trace 1`` every repetition is followed by a traced repetition, and the
per-layer metrics are medians over those.

Every repetition's per-point digests must agree with each other, cold
and warm, traced and untraced, and at the default seed with
``perfbench/golden.json``.  A point that raised or disagreed counts as
failed.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run's provenance.  The full report (every
repetition's samples) is written under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

if __package__ in (None, ""):  # pragma: no cover - run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.digest import sweep_digest  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.worker import OUT_DIR, ROOT  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

GOLDEN = ROOT / "perfbench" / "golden.json"

__all__ = ["aggregate", "main", "point_failures"]

#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3

#: Set-up-only workers started after each repetition, so that ``setup_s``
#: is a median over several times as many fresh processes.
SETUPS_PER_REP = 2

#: Longest one worker may take before the run is abandoned.
WORKER_TIMEOUT_S = 150


def _worker(workload: str, seed: int, mode: str) -> dict[str, Any]:
    """Run one repetition in a fresh process and return its JSON outcome."""
    command = [sys.executable, "-m", "perfbench.worker", "--workload",
               workload, "--seed", str(seed), "--mode", mode]
    if mode == "traced":
        command += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}.json")]
    # One hash seed for every worker: a fresh random seed per process
    # changes dict and set layouts, and with them the timings.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"{mode} worker for {workload} exited with {done.returncode}:\n"
            f"{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def point_failures(rep: dict[str, Any],
                   reference: Sequence[Optional[str]]) -> int:
    """Points of one repetition that raised or disagree with ``reference``."""
    rows, warm = rep["rows"], rep["warm_rows"]
    if len(rows) != len(reference) or len(warm) != len(reference):
        return len(rows)
    return sum(
        1 for cold, served, expected in zip(rows, warm, reference)
        if cold is None or cold != expected or served != expected
    )


def _reference(workload: str, seed: int,
               first: dict[str, Any]) -> list[Optional[str]]:
    """The digests every repetition must reproduce.

    At the default seed, the committed golden digests; otherwise the
    first repetition's own cold sweep.
    """
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        return golden[workload]
    return first["rows"]


def aggregate(sweeps: Sequence[dict[str, Any]],
              traces: Sequence[dict[str, Any]],
              reference: Sequence[Optional[str]],
              setups: Sequence[dict[str, Any]] = ()) -> dict[str, Any]:
    """The run's result line from its repetitions.

    ``setups`` are set-up-only repetitions: they add ``setup_s`` samples.
    """
    def median(values: Sequence[float]) -> float:
        return statistics.median(values)

    reps = list(sweeps) + list(traces)
    failed = sum(point_failures(rep, reference) for rep in reps)
    values = {
        "setup_s": median([r["setup_s"] for r in [*sweeps, *setups]]),
        "sweep_s": median([r["sweep_s"] for r in sweeps]),
        "us_per_device": median(
            [r["sweep_s"] / r["device_runs"] * 1e6 for r in sweeps]
        ),
        "warm_s": median([r["warm_s"] for r in sweeps]),
        "rss_mb": median([r["rss_mb"] for r in sweeps]),
        "cache_mb": median([r["cache_mb"] for r in sweeps]),
    }
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    if traces:
        values = {
            name: median([t["layers"][name] for t in traces])
            for name in PER_LAYER if name != "trace_overhead_s"
        }
        # Span times are wall times, so the overhead compares wall times.
        values["trace_overhead_s"] = (
            median([t["sweep_s"] for t in traces])
            - median([r["sweep_wall_s"] for r in sweeps])
        )
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    return {
        "correct": failed == 0,
        "attempted": sum(rep["points"] for rep in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def _cpu_times() -> Optional[tuple[int, int]]:
    """(total, steal) jiffies of the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    # user nice system idle iowait irq softirq steal (guest is inside user).
    ticks = [int(v) for v in fields[1:9]]
    return sum(ticks), ticks[7]


def _commit() -> str:
    """The checked-out commit ("unknown" outside a git repository)."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Byte-compile up front so no repetition pays for it in its set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=WORKER_TIMEOUT_S)
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    cpu_before = _cpu_times()
    started = time.perf_counter()
    sweeps: list[dict[str, Any]] = []
    setups: list[dict[str, Any]] = []
    traces: list[dict[str, Any]] = []
    while True:
        cycle_start = time.perf_counter()
        sweeps.append(_worker(args.workload, args.seed, "sweep"))
        if not args.trace:
            setups += [_worker(args.workload, args.seed, "setup")
                       for _ in range(SETUPS_PER_REP)]
        if args.trace:
            traces.append(_worker(args.workload, args.seed, "traced"))
        now = time.perf_counter()
        if (len(sweeps) >= MIN_REPS
                and now - started + (now - cycle_start) > args.seconds):
            break
    cpu_after = _cpu_times()

    reference = _reference(args.workload, args.seed, sweeps[0])
    result = aggregate(sweeps, traces, reference, setups)
    steal = None
    if cpu_before is not None and cpu_after is not None:
        total = cpu_after[0] - cpu_before[0]
        steal = (cpu_after[1] - cpu_before[1]) / total if total > 0 else 0.0
    provenance = {
        "commit": _commit(),
        **sweeps[0]["provenance"],
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "cpu_steal_share": steal,
        "median_pace": statistics.median(r["pace"] for r in sweeps),
        "workload": args.workload,
        "seed": args.seed,
        "digest": sweep_digest(sweeps[0]["rows"]),
        "repetitions": len(sweeps),
        "traced_repetitions": len(traces),
    }
    report = {
        "provenance": provenance,
        "result": result,
        "samples": {
            key: [rep[key] for rep in sweeps]
            for key in ("sweep_s", "sweep_wall_s", "warm_s",
                        "warm_wall_s", "pace", "rss_mb", "cache_mb")
        } | {
            key: [rep[key] for rep in sweeps + setups]
            for key in ("setup_s", "setup_wall_s")
        },
        "traced_samples": [t["layers"] | {"sweep_s": t["sweep_s"]}
                           for t in traces],
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n",
                                encoding="utf-8")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
