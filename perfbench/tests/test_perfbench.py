"""Tests of the benchmark's own code: digests, spans, schema, smoke runs."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import metrics, run, worker, workloads
from perfbench.digest import canonical, row_digest, sweep_digest
from perfbench.pace import PacedClock
from perfbench.spans import Tracer, covered_ns, layer_seconds, self_times
from perfbench.worker import sweep_rep, traced_rep

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- digest rendering ------------------------------------------------------------


def test_floats_render_losslessly_and_apart_from_ints_and_bools():
    assert canonical(0.1) == (0.1).hex()
    assert canonical(0.1) != canonical(0.1 + 2 ** -55)
    assert canonical(1.0) != canonical(1) != canonical(True)
    assert canonical(None) == "null"
    assert canonical("a\"b") == json.dumps("a\"b")


def test_nested_values_render_independently_of_key_order():
    one = {"b": [1, 2.5, {"y": None, "x": "s"}], "a": True}
    two = {"a": True, "b": (1, 2.5, {"x": "s", "y": None})}
    assert canonical(one) == canonical(two)


def test_unknown_value_types_are_refused():
    with pytest.raises(TypeError):
        canonical(object())


def test_row_digest_drops_only_bookkeeping_columns():
    row = {"energy_j": 1.5, "scheme": "makeidle"}
    assert row_digest(row) == row_digest(
        dict(row, from_cache=True, pool_jobs=2, pool_clamped=False)
    )
    assert row_digest(row) != row_digest(dict(row, energy_j=1.5000000001))
    assert row_digest(row) != row_digest(dict(row, cached=True))


def test_sweep_digest_marks_failed_points():
    assert sweep_digest(["a", "b"]) == sweep_digest(["a", "b"])
    assert sweep_digest(["a", "b"]) != sweep_digest(["b", "a"])
    assert sweep_digest(["a", None]) != sweep_digest(["a", "b"])


# -- span self-time arithmetic ----------------------------------------------------


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "name": name, "parent": parent,
            "start_ns": start, "end_ns": end}


def test_covered_counts_overlap_once():
    assert covered_ns([]) == 0
    assert covered_ns([(10, 40), (30, 60)]) == 50
    assert covered_ns([(30, 60), (10, 40), (45, 50)]) == 50
    assert covered_ns([(0, 10), (20, 30)]) == 20
    assert covered_ns([(5, 5)]) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(0, None, 0, 100, "root"),
        _span(1, 0, 10, 40, "a"),
        _span(2, 0, 30, 60, "b"),
        _span(3, 1, 15, 20, "c"),
    ]
    own = self_times(spans)
    assert own == {0: 50, 1: 25, 2: 30, 3: 5}


def test_self_time_clips_children_to_the_parent():
    spans = [_span(0, None, 0, 100), _span(1, 0, 90, 130)]
    assert self_times(spans)[0] == 90


def test_tracer_nesting_and_layer_totals():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            with tracer.span("leaf"):
                pass
    spans = tracer.spans
    assert [s["parent"] for s in spans] == [None, 0, 0, 2]
    root = spans[0]["end_ns"] - spans[0]["start_ns"]
    assert sum(self_times(spans).values()) == root
    totals = layer_seconds(spans)
    assert set(totals) == {"root", "child", "leaf"}
    assert all(v >= 0.0 for v in totals.values())


def test_probe_records_calls_and_restores_the_original():
    class Owner:
        def double(self, x):
            return 2 * x

    original = Owner.double
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.probe(Owner, "double", "probed"):
            assert Owner().double(3) == 6
            assert Owner().double(4) == 8
    assert Owner.double is original
    probed = [s for s in tracer.spans if s["name"] == "probed"]
    assert len(probed) == 2 and all(s["parent"] == 0 for s in probed)


# -- pace rescaling ----------------------------------------------------------------


def test_paced_clock_divides_work_by_the_mean_pace_around_it():
    paces = iter([1.0, 3.0])
    clock = PacedClock(pace=lambda: next(paces))
    assert clock.time(lambda: "value") == "value"
    clock.stop()
    clock.stop()
    assert clock.paces == [1.0, 3.0]
    assert clock.wall_s > 0
    assert clock.paced_s == pytest.approx(clock.wall_s / 2.0)


def test_paced_clock_keeps_raw_and_paced_totals_over_many_calls():
    clock = PacedClock(pace=lambda: 2.0)
    for _ in range(5):
        clock.time(lambda: time.sleep(0.002))
    clock.stop()
    assert clock.wall_s >= 0.01
    assert clock.paced_s == pytest.approx(clock.wall_s / 2.0)


# -- metric names and units --------------------------------------------------------


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_metric_schema():
    config = _benchmark_json()
    assert config["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in config["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in config["per_layer"]} == metrics.PER_LAYER
    every = config["end_to_end"] + config["per_layer"] + config["workloads"]
    names = [entry["name"] for entry in every]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in config["end_to_end"] + config["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in config["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = metrics.END_TO_END["setup_s"]
    assert setup[0] == "s" and setup[1] == "lower"
    assert setup[2] == max(bound for _, _, bound in metrics.END_TO_END.values())


def test_every_traced_layer_metric_has_a_span_or_counter():
    assert set(metrics.SPAN_METRICS) <= set(metrics.PER_LAYER)


def _fake_rep(mode, rows, **extra):
    rep = {"mode": mode, "points": len(rows), "rows": rows,
           "warm_rows": list(rows), "sweep_s": 2.0, "sweep_wall_s": 2.2}
    rep.update(extra)
    return rep


def test_aggregate_reports_every_metric_and_counts_failed_points():
    rows = ["d0", "d1", "d2"]
    sweep = _fake_rep("sweep", rows, setup_s=0.5, device_runs=4, warm_s=0.1,
                      rss_mb=50.0, cache_mb=1.0)
    layers = {name: 1.0 for name in metrics.PER_LAYER}
    traced = _fake_rep("traced", rows, layers=layers, sweep_s=2.5)
    result = run.aggregate([sweep, sweep, sweep], [], rows)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 9
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    assert result["metrics"]["us_per_device"]["value"] == 2.0 / 4 * 1e6

    setups = [{"mode": "setup", "setup_s": 0.1}] * 4
    result = run.aggregate([sweep, sweep, sweep], [], rows, setups)
    assert result["metrics"]["setup_s"]["value"] == 0.1
    assert result["attempted"] == 9

    result = run.aggregate([sweep], [traced], rows)
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    assert result["metrics"]["trace_overhead_s"]["value"] == pytest.approx(0.3)

    broken = _fake_rep("sweep", ["d0", None, "d2"], setup_s=0.5,
                       device_runs=4, warm_s=0.1, rss_mb=50.0, cache_mb=1.0)
    broken["warm_rows"][2] = "other"
    result = run.aggregate([sweep, broken], [], rows)
    assert not result["correct"] and result["failed"] == 2


# -- tiny-size smoke runs of every workload ----------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_cold_warm_and_traced_agree(workload):
    sweep = sweep_rep(workload, seed=3, size="tiny")
    traced = traced_rep(workload, seed=3, size="tiny")
    assert None not in sweep["rows"]
    assert sweep["rows"] == sweep["warm_rows"] == traced["rows"]
    assert traced["warm_rows"] == sweep["rows"]
    assert set(traced["layers"]) == set(metrics.PER_LAYER) - {"trace_overhead_s"}
    for name in ("sweep_s", "warm_s", "setup_s", "rss_mb", "cache_mb"):
        assert sweep[name] > 0
    assert worker.setup_rep(workload, seed=3)["setup_s"] > 0
    layers = traced["layers"]
    assert layers["cache.entries"] == sweep["points"]
    if workload == "paper_grid":
        per_app = workloads.SIZES["tiny"]["paper_grid"]["packets_per_trace"]
        assert layers["traces.packets"] == 7 * per_app
        assert layers["core.makeidle_s"] > 0 and layers["sim.kernel_s"] == 0
    elif workload == "cell_sparse":
        assert layers["sim.vector_share"] == 1.0
        assert layers["api.population_s"] > 0 and layers["core.fixed_s"] == 0
    else:
        assert sweep["points"] == workloads.SIZES["tiny"]["metro_shuffle"]["metros"]
        assert layers["metro.handovers"] > 0 and layers["metro.mobility_s"] > 0
        assert layers["metro.task_max_s"] <= layers["metro.task_s"]


def test_a_disk_tier_that_refuses_writes_fails_the_points(monkeypatch):
    import repro.api.cache

    def refuse(*args, **kwargs):
        raise PermissionError("read-only cache directory")

    # DiskCacheTier.store swallows the error and the warm sweep then
    # re-simulates every point: the result must still show the failure.
    monkeypatch.setattr(repro.api.cache.tempfile, "mkstemp", refuse)
    sweep = sweep_rep("cell_sparse", seed=3, size="tiny")
    assert sweep["cache_mb"] == 0
    assert sweep["rows"] == [None] * sweep["points"]
    assert sweep["warm_rows"] == [None] * sweep["points"]
    result = run.aggregate([sweep], [], ["any"] * sweep["points"])
    assert not result["correct"] and result["failed"] == sweep["points"]


def test_a_warm_sweep_that_disagrees_or_misses_the_disk_fails_the_point():
    agreed = ([{"e": 1.0}, {"e": 2.0}], [True, True])
    assert worker._checked_warm([agreed, agreed]) == [
        row_digest({"e": 1.0}), row_digest({"e": 2.0})]
    drifted = ([{"e": 1.0}, {"e": 2.5}], [True, True])
    assert worker._checked_warm([agreed, drifted])[1] is None
    resimulated = ([{"e": 1.0}, {"e": 2.0}], [False, True])
    assert worker._checked_warm([agreed, resimulated])[0] is None


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
