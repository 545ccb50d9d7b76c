"""End-to-end tests for the fleet orchestrator.

Small fleets keep the real-crypto cost low; the assertions cover the
lifecycle invariants (everyone enrolls, establishes, re-keys under
policy, finishes), determinism, CA contention accounting and the
batched/non-batched ablation.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.fleet import FleetConfig, FleetOrchestrator, run_fleet

#: One small storm shared by the read-only assertions (runs real crypto
#: once for the whole module).
_CONFIG = FleetConfig(
    n_vehicles=4,
    seed=b"fleet-test",
    records_per_vehicle=6,
    max_records=3,  # forces exactly one re-key per vehicle
    send_interval_ms=20.0,
    arrival_spread_ms=30.0,
)


@pytest.fixture(scope="module")
def result():
    return run_fleet(_CONFIG)


class TestLifecycle:
    def test_everyone_finishes(self, result):
        assert result.stats.vehicles == 4
        assert result.stats.enrollments == 4
        assert all(v.done_at is not None for v in result.vehicles)
        assert all(v.records_sent == 6 for v in result.vehicles)

    def test_rekey_per_vehicle_under_record_budget(self, result):
        # 6 records under a 3-record budget: 2 sessions per vehicle.
        assert result.stats.sessions_established == 8
        assert result.stats.rekeys == 4
        assert all(v.generation == 2 for v in result.vehicles)
        assert all(v.sessions == 2 for v in result.vehicles)

    def test_timeline_events_ordered_and_complete(self, result):
        for vehicle in result.vehicles:
            times = [event.time_ms for event in vehicle.events]
            assert times == sorted(times)
            kinds = [event.kind for event in vehicle.events]
            assert kinds[0] == "arrive"
            assert kinds[-1] == "done"
            assert kinds.count("established") == 2
            assert kinds.count("rekey") == 1

    def test_latency_samples_counted(self, result):
        assert result.stats.enrollment_latency.count == 4
        assert result.stats.establishment_latency.count == 8
        assert result.stats.enrollment_latency.min_ms > 0

    def test_ca_accounting(self, result):
        stats = result.stats
        assert stats.ca_batches >= 1
        assert 1 <= stats.ca_max_batch <= 4
        assert stats.ca_busy_ms > 0
        assert 0.0 < stats.ca_utilisation <= 1.0

    def test_energy_split(self, result):
        # Four STM32 vehicles must out-consume the single RPi gateway.
        assert result.stats.vehicle_energy_mj > result.stats.ca_energy_mj > 0


class TestDeterminism:
    def test_same_seed_identical_digest(self, result):
        rerun = run_fleet(_CONFIG)
        assert rerun.stats.digest() == result.stats.digest()
        assert rerun.stats == result.stats

    def test_different_seed_different_digest(self, result):
        other = run_fleet(
            FleetConfig(
                n_vehicles=4,
                seed=b"fleet-test-other",
                records_per_vehicle=6,
                max_records=3,
                send_interval_ms=20.0,
                arrival_spread_ms=30.0,
            )
        )
        assert other.stats.digest() != result.stats.digest()


class TestAblationAndPolicy:
    def test_non_batched_path_same_logical_outcome(self, result):
        plain = run_fleet(
            FleetConfig(
                n_vehicles=4,
                seed=b"fleet-test",
                records_per_vehicle=6,
                max_records=3,
                send_interval_ms=20.0,
                arrival_spread_ms=30.0,
                pool_size=0,
            )
        )
        assert plain.stats.sessions_established == 8
        assert plain.stats.records_sent == result.stats.records_sent
        assert all(v.pool is None for v in plain.vehicles)

    def test_age_based_rekey(self):
        aged = run_fleet(
            FleetConfig(
                n_vehicles=2,
                seed=b"fleet-age",
                records_per_vehicle=4,
                max_records=100,  # records never bind
                max_age_ms=60.0,  # but keys age out between sends
                send_interval_ms=50.0,
                arrival_spread_ms=5.0,
            )
        )
        assert aged.stats.rekeys > 0
        assert all(v.records_sent == 4 for v in aged.vehicles)

    def test_batching_kicks_in_under_burst_arrivals(self):
        burst = run_fleet(
            FleetConfig(
                n_vehicles=6,
                seed=b"fleet-burst",
                records_per_vehicle=1,
                max_records=5,
                arrival_spread_ms=0.001,  # everyone at once
            )
        )
        assert burst.stats.ca_max_batch > 1


class TestConfigValidation:
    def test_bad_sizes_rejected(self):
        with pytest.raises(SimulationError):
            FleetConfig(n_vehicles=0)
        with pytest.raises(SimulationError):
            FleetConfig(records_per_vehicle=0)
        with pytest.raises(SimulationError):
            FleetConfig(send_interval_ms=0.0)
        with pytest.raises(SimulationError):
            FleetConfig(ca_batch_limit=0)

    def test_unknown_protocol_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            FleetConfig(protocol="no-such-protocol")

    def test_bad_values_raise_typed_config_errors(self):
        from repro.errors import ConfigError

        # ConfigError subclasses SimulationError, so both catches work.
        assert issubclass(ConfigError, SimulationError)
        for kwargs in (
            {"arrival_spread_ms": -1.0},
            {"record_bytes": 0},
            {"bus_ms_per_byte": -0.001},
            {"pool_size": -1},
            {"cert_validity_seconds": 0},
            {"max_age_ms": -5.0},
            {"v2v_fraction": 1.5},
            {"v2v_fraction": -0.1},
            {"shards": 2, "fail_shard": 2, "shard_fail_at_ms": 10.0},
            {"shard_rejoin_at_ms": 10.0},  # rejoin without failure
        ):
            with pytest.raises(ConfigError):
                FleetConfig(**kwargs)

    def test_config_errors_are_actionable(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="arrival_spread_ms"):
            FleetConfig(arrival_spread_ms=-2.0)
        with pytest.raises(ConfigError, match="v2v_fraction"):
            FleetConfig(v2v_fraction=2.0)
        with pytest.raises(ConfigError, match="shard_fail_at_ms"):
            FleetConfig(
                shards=2, shard_fail_at_ms=20.0, shard_rejoin_at_ms=10.0
            )

    def test_orchestrator_exposes_resources(self):
        orchestrator = FleetOrchestrator(
            FleetConfig(n_vehicles=1, seed=b"expose")
        )
        assert orchestrator.ca_resource.name == "central-ca"
        assert orchestrator.gateway_manager.role == "B"
