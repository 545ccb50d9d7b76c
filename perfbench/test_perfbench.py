"""The benchmark's own tests: span arithmetic, names, accounting, smoke.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from perfbench import run, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _snapshot(spans):
    """A process snapshot from ``(name, start, end, parent, raised)`` rows."""
    names = sorted({row[0] for row in spans})
    return {
        "run_id": 0,
        "names": names,
        "name_ids": array("I", [names.index(row[0]) for row in spans]),
        "starts": array("q", [row[1] for row in spans]),
        "ends": array("q", [row[2] for row in spans]),
        "parents": array("i", [row[3] for row in spans]),
        "raised": bytes(row[4] for row in spans),
        "counters": {},
        "cost": {},
    }


def test_self_time_subtracts_nested_and_back_to_back_children():
    starts = [0, 10, 12, 30, 45, 200]
    ends = [100, 30, 20, 50, 60, 210]
    parents = [-1, 0, 1, 0, 0, -1]
    # root: children [10,30] + [30,50] back to back, [45,60] overlapping
    # the second -> covered 50; child 1 holds a nested child of 8.
    selfs = tracer.self_times(starts, ends, parents)
    assert list(selfs) == [50, 12, 8, 20, 15, 10]


def test_self_time_does_not_depend_on_span_order():
    starts, ends, parents = [0, 30, 10], [100, 50, 30], [-1, 0, 0]
    assert list(tracer.self_times(starts, ends, parents)) == [60, 20, 20]


def test_layer_tables_split_phases_and_layer_entries():
    compile_ = "fleet.scenario|repro.fleet.scenario:compile_scenario"
    ecqv = "ecqv|repro.ecqv.chain:TrustStore.resolve_and_validate"
    spans = [
        (tracer.SETUP_SPAN, 0, 10, -1, 0),
        (compile_, 2, 6, 0, 0),
        (tracer.RUN_SPAN, 20, 120, -1, 0),
        (ecqv, 30, 60, 2, 1),
        ("ecqv|repro.ecqv.validation:validate_certificate", 35, 45, 3, 1),
        ("backend|repro.backend.accelerated:AcceleratedBackend.hash_digest",
         40, 44, 4, 0),
        ("backend|repro.backend:get_backend", 70, 71, 2, 0),
        ("trace|repro.trace:record", 130, 131, -1, 0),
    ]
    t = tracer.process_tables(_snapshot(spans))
    assert t["setup_self"] == {"bench|setup": 6, compile_: 4}
    assert t["entries"][ecqv] == 1 and t["failed"][ecqv] == 1
    # The nested ecqv span is no entry into the layer: counted once.
    assert sum(v for k, v in t["failed"].items() if k.startswith("ecqv|")) == 1
    assert t["root_self"][ecqv] == 30 - 4
    # A span outside both phase roots is the benchmark's own: ignored.
    assert "trace|repro.trace:record" not in t["calls"]


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == {name: unit for name, unit, _, _ in tracer.PER_LAYER}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for _, _, _, moves in tracer.PER_LAYER:
        for metric, names in moves:
            assert metric in e2e and set(names) <= set(workloads.WORKLOADS)


def test_metric_name_grammar_rejects_bad_names():
    for bad in ("", "host ms", "p99/ms", "rss(mb)"):
        assert not NAME.fullmatch(bad)


def test_failed_frac_counts_the_whole_fleet_on_a_digest_mismatch():
    config, scenario = workloads.build("storm", 3, vehicles=6)
    from repro.fleet import FleetOrchestrator

    orch = FleetOrchestrator(config, scenario)
    result = workloads.outcome(orch, orch.run())
    failed = workloads.failed_vehicles
    assert failed("storm", result, result["digest"]) == 0
    assert failed("storm", result, "0" * 64) == 6
    assert failed("storm", dict(result, off_quota=2), None) == 2
    assert failed("storm", dict(result, attack_successes=1), None) == 6
    # An adversarial workload that saw no attack proves nothing.
    assert failed("churn", result, None) == 6
    assert failed("storm", {"error": "boom", "vehicles": 6}, None) == 6


@pytest.mark.parametrize(
    "workload, vehicles", [("storm", 12), ("records", 2), ("churn", 30)]
)
def test_tiny_workload_runs_clean(workload, vehicles):
    from repro.fleet import FleetOrchestrator

    config, scenario = workloads.build(workload, 0, vehicles=vehicles)
    orch = FleetOrchestrator(config, scenario)
    result = workloads.outcome(orch, orch.run())
    assert result["off_quota"] == 0
    assert workloads.failed_vehicles(workload, result, None) == 0


def _child(workload, mode, vehicles, spans=None):
    path = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env = dict(os.environ, PYTHONPATH=path)
    command = [
        sys.executable, "-m", "perfbench.child", "--workload", workload,
        "--seed", "0", "--mode", mode, "--vehicles", str(vehicles),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    out = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1][len("result "):])


def test_tiny_traced_parallel_run_matches_storm_and_its_trace(tmp_path):
    storm = _child("storm", "run", 12)
    traced = _child("parallel", "trace", 12, tmp_path)
    assert traced["digest"] == storm["digest"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "main.pkl", "worker-0.pkl", "worker-1.pkl",
    ]
    snaps = [pickle.loads(p.read_bytes()) for p in sorted(tmp_path.iterdir())]
    assert [s["run_id"] for s in snaps] == [0, 1, 2]
    tables = tracer.merge_tables([tracer.process_tables(s) for s in snaps])
    assert tracer.integrity(tables) == []
    values = tracer.layer_metrics(
        tables, vehicles=12, records=traced["records"], ca_batch_limit=64,
        wall_s=storm["wall_s"], traced_wall_s=traced["wall_s"],
    )
    assert values["fleet.parallel.imbalance"] >= 1.0
    assert values["openssl.derive_per_vehicle"] > 0
    assert values["obs.hook_calls"] > 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
