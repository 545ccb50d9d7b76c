"""Process-parallel orchestration: digest parity and the barrier merge.

The contract under test: for every partitionable (config, scenario,
seed), running with ``workers ∈ {2, 4}`` produces a
:class:`~repro.fleet.FleetStats` whose digest is **bit-identical** to
``workers=1`` — and non-partitionable configurations fall back to the
serial loop rather than silently diverging.
"""

from __future__ import annotations

import concurrent.futures.process
import dataclasses
import functools
import multiprocessing
import os
import time

import pytest

from repro.errors import ConfigError, SimulationError
from repro.fleet import (
    POLICY_BUNDLES,
    POLICY_RULES,
    FleetConfig,
    FleetOrchestrator,
    Scenario,
    SessionExpiryRekey,
    ThresholdRebalance,
    compile_scenario,
    get_scenario,
    partition_plan,
    register_policy,
    run_fleet,
)
from repro.fleet.parallel import _checksum
from repro.obs import Observer


def _base(seed: bytes, shards: int = 4, **overrides) -> FleetConfig:
    kwargs = dict(
        n_vehicles=18,
        seed=seed,
        records_per_vehicle=3,
        max_records=4,
        send_interval_ms=20.0,
        arrival_spread_ms=300.0,
        shards=shards,
    )
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


# -- partition planning -------------------------------------------------------


class TestPartitionPlan:
    def test_viable_config_gets_round_robin_plan(self):
        plan = partition_plan(_base(b"plan", shards=5, workers=2), None)
        assert plan is not None
        assert plan.workers == 2
        assert plan.owned == ((0, 2, 4), (1, 3))

    def test_workers_capped_at_shard_count(self):
        plan = partition_plan(_base(b"plan", shards=2, workers=8), None)
        assert plan is not None
        assert plan.workers == 2
        assert plan.owned == ((0,), (1,))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"shards": 1},
            {"shard_policy": "round-robin"},
            {"shard_policy": "least-loaded"},
            {"v2v_fraction": 0.5},
            {"shard_fail_at_ms": 2_000.0},
            {"migrate_threshold": 1},
        ],
    )
    def test_coupled_configs_are_rejected(self, overrides):
        config = _base(b"plan", workers=2, **overrides)
        assert partition_plan(config, None) is None

    def test_bundle_plan_table(self):
        # Every shipped bundle's plan, so a new bundle must take a side.
        partitions = {
            "default": True,
            "utilisation-rebalance": False,
            "storm-hardened": False,
            "failover-spread": False,
        }
        assert set(partitions) == set(POLICY_BUNDLES)
        for bundle, expected in partitions.items():
            plan = partition_plan(_base(b"plan", workers=2, policy=bundle), None)
            assert (plan is not None) == expected, bundle

    @pytest.mark.parametrize(
        "rule, partitions",
        [
            (SessionExpiryRekey(), True),
            (ThresholdRebalance(threshold=1), False),
        ],
    )
    def test_scenario_rules_fold_into_the_plan(self, rule, partitions):
        config = _base(b"plan", workers=2)
        scenario = Scenario(name="shipped-rule", policies=(rule,))
        schedule = compile_scenario(scenario, config)
        assert (partition_plan(config, schedule) is not None) == partitions

    def test_rule_without_shard_local_counts_as_coupled(self):
        @register_policy("test-undeclared-rekey")
        @dataclasses.dataclass(frozen=True)
        class UndeclaredRekey:
            point = "rekey"

            def evaluate(self, state, memory):
                return None

        try:
            config = _base(b"plan", workers=2)
            scenario = Scenario(name="plugin", policies=(UndeclaredRekey(),))
            schedule = compile_scenario(scenario, config)
            assert partition_plan(config, schedule) is None
        finally:
            del POLICY_RULES["test-undeclared-rekey"]

    def test_roaming_scenario_is_rejected(self):
        scenario = get_scenario("roaming-rebalance")
        config = _base(b"plan", workers=2, n_vehicles=24)
        orch = FleetOrchestrator(config, scenario=scenario)
        assert orch._plan is None  # falls back to the serial loop

    def test_workers_must_be_positive_int(self):
        with pytest.raises(ConfigError):
            FleetConfig(workers=0)
        with pytest.raises(ConfigError):
            FleetConfig(workers=2.5)


# -- digest parity ------------------------------------------------------------


class TestDigestParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_plain_sharded_fleet(self, workers):
        serial = run_fleet(_base(b"parity-plain")).stats
        parallel = run_fleet(
            _base(b"parity-plain", workers=workers)
        ).stats
        assert parallel.digest() == serial.digest()
        assert parallel == serial

    def test_convoy_scenario(self):
        # Convoy pins exercise the pinned-shard branch of the static
        # assignment prediction.
        scenario = get_scenario("platoon-convoys")
        config = _base(b"parity-convoy", n_vehicles=24)
        serial = run_fleet(config, scenario=scenario).stats
        parallel = run_fleet(
            dataclasses.replace(config, workers=2), scenario=scenario
        ).stats
        assert parallel.digest() == serial.digest()

    def test_replay_storm_scenario(self):
        scenario = get_scenario("replay-storm")
        config = _base(b"parity-replay", shards=3, n_vehicles=24)
        serial = run_fleet(config, scenario=scenario).stats
        parallel = run_fleet(
            dataclasses.replace(config, workers=3), scenario=scenario
        ).stats
        assert parallel.digest() == serial.digest()
        assert parallel.injection_stats == serial.injection_stats
        assert parallel.attack_successes == 0

    def test_ca_flood_scenario(self):
        scenario = get_scenario("ca-flood")
        config = _base(
            b"parity-flood",
            shards=3,
            n_vehicles=24,
            authenticate_requests=True,
        )
        serial = run_fleet(config, scenario=scenario).stats
        parallel = run_fleet(
            dataclasses.replace(config, workers=2), scenario=scenario
        ).stats
        assert parallel.digest() == serial.digest()
        assert parallel.injection_stats == serial.injection_stats

    def test_streaming_mode_is_digest_neutral_across_workers(self):
        serial = run_fleet(_base(b"parity-stream")).stats
        streamed = run_fleet(
            _base(b"parity-stream", stream=True, workers=2)
        ).stats
        assert streamed.digest() == serial.digest()

    def test_shard_local_scenario_rule_parallelises(self):
        scenario = Scenario(
            name="expiry-only", policies=(SessionExpiryRekey(),)
        )
        config = _base(b"parity-shipped")
        parallel_config = dataclasses.replace(config, workers=2)
        assert FleetOrchestrator(parallel_config, scenario)._plan is not None
        serial = run_fleet(config, scenario=scenario).stats
        parallel = run_fleet(parallel_config, scenario=scenario).stats
        assert parallel.digest() == serial.digest()

    def test_churn_config_falls_back_and_still_matches(self):
        # Coupled config: workers>1 silently runs the serial loop.
        churn = dict(
            shards=3,
            records_per_vehicle=8,
            shard_fail_at_ms=1_500.0,
            fail_shard=1,
            shard_rejoin_at_ms=3_000.0,
            migrate_threshold=2,
        )
        serial = run_fleet(_base(b"parity-churn", **churn)).stats
        fallback = run_fleet(
            _base(b"parity-churn", workers=4, **churn)
        ).stats
        assert fallback.digest() == serial.digest()


# -- result surface -----------------------------------------------------------


class TestParallelResultSurface:
    def test_vehicles_stay_in_workers(self):
        result = run_fleet(_base(b"surface", workers=2))
        assert result.vehicles == []
        serial = run_fleet(_base(b"surface"))
        assert len(serial.vehicles) == 18

    def test_observer_gets_merged_metrics_and_meta(self):
        obs = Observer(wall_clock=True)
        result = run_fleet(_base(b"surface-obs", workers=2), obs=obs)
        snap = obs.metrics.snapshot()
        assert (
            snap.counter_total("fleet.records_sent")
            == result.stats.records_sent
        )
        assert (
            snap.counter_total("fleet.vehicles_done")
            == result.stats.vehicles
        )
        assert obs.meta["digest"] == result.stats.digest()
        assert obs.meta["workers"] == 2
        final = obs.heartbeats[-1]
        assert final["vehicles_done"] == result.stats.vehicles
        # The fleet-wide peak RSS (max over workers) rides the final
        # heartbeat — the bench's memory-ceiling signal.
        assert final["wall"]["peak_rss_kb"] > 0
        obs.validate()

    def test_snapshot_checksum_detects_tampering(self):
        orch = FleetOrchestrator(_base(b"tamper", workers=2))
        from repro.fleet.parallel import _worker_run

        worker_config = dataclasses.replace(
            orch.config, workers=1, backend="reference"
        )
        snap = _worker_run(
            (0, orch._plan.owned[0], worker_config, None, False, 5_000_000)
        )
        assert snap.checksum == _checksum(snap)
        snap.ledger.shards[snap.owned[0]].records_sent += 1
        assert snap.checksum != _checksum(snap)

    def test_merge_rejects_corrupted_snapshot(self, monkeypatch):
        from repro.fleet import parallel as par

        real_worker_run = par._worker_run

        def corrupting_worker_run(payload):
            snap = real_worker_run(payload)
            if snap.worker == 0:
                # Corrupt after checksum.
                snap.ledger.shards[snap.owned[0]].rekeys += 7
            return snap

        monkeypatch.setattr(par, "_worker_run", corrupting_worker_run)

        class _InlineExecutor:
            # Runs the (monkeypatched) worker fn in-process so the
            # corruption survives; a real pool would pickle the real
            # module-level function.
            def __init__(self, max_workers, mp_context):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, payload):
                future = concurrent.futures.Future()
                future.set_result(fn(payload))
                return future

        monkeypatch.setattr(
            concurrent.futures.process, "ProcessPoolExecutor", _InlineExecutor
        )
        with pytest.raises(SimulationError, match="checksum"):
            run_fleet(_base(b"tamper2", workers=2))


# -- failure paths end in typed errors ------------------------------------------


class TestFailurePaths:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_event_budget_exhaustion_raises(self, workers):
        orch = FleetOrchestrator(_base(b"budget", workers=workers))
        assert (orch._plan is not None) == (workers > 1)
        with pytest.raises(SimulationError, match="exceeded 50 events"):
            orch.run(max_events=50)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the dying worker is installed by fork inheritance",
    )
    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        from repro.fleet import parallel as par

        real_worker_run = par._worker_run

        def dying_worker_run(payload):
            if payload[0] == 1:
                os._exit(3)
            return real_worker_run(payload)

        # Same name and module, so the executor pickles it by reference
        # to the module attribute it replaces (inherited by the fork).
        functools.update_wrapper(dying_worker_run, real_worker_run)
        monkeypatch.setattr(par, "_worker_run", dying_worker_run)
        started = time.monotonic()
        with pytest.raises(SimulationError, match=r"worker 1 \(shards \[1\]\)"):
            run_fleet(_base(b"dead-worker", shards=2, workers=2))
        assert time.monotonic() - started < 30


# -- metrics absorb law -------------------------------------------------------


class TestMetricsAbsorb:
    def test_absorb_equals_snapshot_merge(self):
        from repro.obs.metrics import MetricsRegistry

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("fleet.records_sent", shard=0).inc(3)
        a.gauge("fleet.ca_max_batch").record(4)
        a.histogram("fleet.enrollment_latency_ms").observe(12.5)
        b.counter("fleet.records_sent", shard=0).inc(5)
        b.counter("fleet.records_sent", shard=1).inc(2)
        b.gauge("fleet.ca_max_batch").record(9)
        b.histogram("fleet.enrollment_latency_ms").observe(0.75)
        expected = a.snapshot().merge(b.snapshot())
        a.absorb(b.snapshot())
        assert a.snapshot() == expected

    def test_absorb_into_empty_registry(self):
        from repro.obs.metrics import MetricsRegistry

        source = MetricsRegistry()
        source.histogram("fleet.v2v_latency_ms").observe(3.25)
        source.counter("fleet.arrivals").inc(11)
        target = MetricsRegistry()
        target.absorb(source.snapshot())
        assert target.snapshot() == source.snapshot()
