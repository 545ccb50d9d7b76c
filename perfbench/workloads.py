"""The benchmark's four fleet workloads and their correctness accounting.

Every workload is a closed loop with one client: the benchmark process
builds a :class:`~repro.fleet.FleetConfig` (and, for ``churn``, a
:class:`~repro.fleet.Scenario`) from the ``--seed`` argument and calls
``FleetOrchestrator(...).run()``; the next run starts only after the
previous one returned.  Only ``parallel`` forks worker processes.

Seed ``0`` is the default: it runs under the fleet seed of
``benchmarks/bench_fleet_scale.py`` (``b"bench-fleet-scale"``), whose
1,200-vehicle storm digest is pinned below.  Any other seed ``n`` runs
under ``b"perfbench-<n>"``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0

#: Vehicles of the ROADMAP's scale cell (``bench_fleet_scale.scale_config``).
STORM_VEHICLES = 1200
#: Records each ``records`` vehicle sends over its single session.
LONG_SESSION_RECORDS = 500


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` argument.
        why: the layer this workload stresses (copied to BENCHMARK.json).
        vehicles: fleet size at full scale.
        digest: pinned ``FleetStats`` digest at the default seed and
            full scale.
        adversarial: the run carries attack injections, every one of
            which must be rejected.
    """

    name: str
    why: str
    vehicles: int
    digest: str
    adversarial: bool = False


_STORM_DIGEST = (
    "3b21f7a65e1faf16c5ab4349649c4e21d491f71d50cd4794f6ea237f02b3f442"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "storm",
            "1,200-vehicle enrollment + STS storm on 4 shards: EC crypto is"
            " ~75 % of host time, so the crypto hot path shows here",
            STORM_VEHICLES,
            _STORM_DIGEST,
        ),
        Workload(
            "records",
            "500 records per single session on 1 shard: EC work is almost"
            " absent, so record crypto, pricing, trace and the sim loop"
            " dominate",
            50,
            "e44bcd02714c5d5511020277289d0dc45247c047005cafd238f76856b718b060",
        ),
        Workload(
            "churn",
            "roaming, shard failover and rejoin, replay and stale-cert"
            " attacks, re-key every 6 records, telemetry on: re-key and"
            " re-enrollment instead of first establishment",
            300,
            "3a6ae39c1497147a1286448a1bdaf2679c5429e048f926ff7e2c006099365b29",
            adversarial=True,
        ),
        Workload(
            "parallel",
            "the storm on 2 worker processes with an Observer: partitioning,"
            " snapshot transport, barrier merge and worker telemetry",
            STORM_VEHICLES,
            _STORM_DIGEST,
        ),
    )
}


def fleet_seed(seed: int) -> bytes:
    """The fleet seed bytes a ``--seed`` argument selects."""
    if seed == DEFAULT_SEED:
        return b"bench-fleet-scale"
    return b"perfbench-%d" % seed


def build(name: str, seed: int, vehicles: int | None = None):
    """``(FleetConfig, Scenario | None)`` of workload ``name``.

    ``vehicles`` overrides the fleet size (the tests run tiny fleets);
    every other parameter is fixed by the workload.
    """
    from repro.fleet import (
        BehaviorProfile,
        FleetConfig,
        ReplayStorm,
        Scenario,
        StaleCertFlood,
    )

    workload = WORKLOADS[name]
    n = workload.vehicles if vehicles is None else vehicles
    if name in ("storm", "parallel"):
        # The shape of bench_fleet_scale.scale_config, restated here so
        # an edit to that file cannot silently move this benchmark; the
        # pinned digest proves the two agree.
        config = FleetConfig(
            n_vehicles=n,
            seed=fleet_seed(seed),
            records_per_vehicle=2,
            max_records=4,
            send_interval_ms=20.0,
            arrival_spread_ms=max(200.0, n / 10.0),
            shards=4,
            stream=True,
            backend="accelerated",
            workers=2 if name == "parallel" else 1,
            observe=name == "parallel",
        )
        return config, None
    if name == "records":
        config = FleetConfig(
            n_vehicles=n,
            seed=fleet_seed(seed),
            records_per_vehicle=LONG_SESSION_RECORDS,
            max_records=LONG_SESSION_RECORDS,
            shards=1,
            stream=True,
            backend="accelerated",
        )
        return config, None
    # churn: the roamers couple the shards, so partition_plan would fall
    # back to the serial loop anyway; the run stays serial.
    config = FleetConfig(
        n_vehicles=n,
        seed=fleet_seed(seed),
        records_per_vehicle=12,
        max_records=6,
        shards=3,
        arrival_spread_ms=8_000.0,
        shard_fail_at_ms=5_200.0,
        fail_shard=0,
        shard_rejoin_at_ms=6_800.0,
        stream=True,
        backend="accelerated",
        observe=True,
    )
    scenario = Scenario(
        name="perfbench-churn",
        profiles=(BehaviorProfile(name="roamer", count=n // 3, roam_every=4),),
        injections=(
            ReplayStorm(at_ms=5_000.0, replays=32, target_shard=1),
            StaleCertFlood(at_ms=7_000.0, attempts=32),
        ),
    )
    return config, scenario


def pinned_digest(name: str, seed: int) -> str | None:
    """The digest a full-size run must produce, if pinned for ``seed``."""
    return WORKLOADS[name].digest if seed == DEFAULT_SEED else None


def quota(config, schedule, index: int) -> int:
    """Records vehicle ``index`` must deliver."""
    profile = schedule.profile_for(index) if schedule is not None else None
    if profile is not None:
        return profile.records_per_vehicle
    return config.records_per_vehicle


def outcome(orch, result) -> dict:
    """What a finished run must be checked on, as plain data.

    ``off_quota`` counts vehicles that did not deliver exactly their
    record quota.  A parallel run keeps per-vehicle state inside its
    workers; there each worker raises on an unfinished vehicle and a
    vehicle finishes only once it reached its quota, so an exact record
    total proves every quota, and a wrong total fails the whole fleet.
    """
    config, stats = orch.config, result.stats
    if result.vehicles:
        off_quota = sum(
            1
            for v in result.vehicles
            if v.records_sent != quota(config, orch.schedule, v.index)
        )
    else:
        expected = sum(
            quota(config, orch.schedule, i) for i in range(config.n_vehicles)
        )
        off_quota = 0 if stats.records_sent == expected else config.n_vehicles
    return {
        "error": None,
        "digest": stats.digest(),
        "vehicles": config.n_vehicles,
        "off_quota": off_quota,
        "records": stats.records_sent + stats.v2v_records_sent,
        "attack_attempts": stats.attack_attempts,
        "attack_rejections": stats.attack_rejections,
        "attack_successes": stats.attack_successes,
        "sim_establish_p99_ms": stats.establishment_latency.p99_ms,
        "sim_records_per_s": stats.throughput_records_per_s,
    }


def failed_vehicles(name: str, result: dict, reference: str | None) -> int:
    """Failed vehicle-runs of one run (its ``failed_frac`` numerator).

    A run that raised, produced a digest other than ``reference`` or let
    an attack through (or, on an adversarial workload, saw no attack or
    one not rejected) fails every vehicle; otherwise each vehicle off its
    record quota is one failure.
    """
    vehicles = result["vehicles"]
    if result["error"] is not None:
        return vehicles
    if reference is not None and result["digest"] != reference:
        return vehicles
    if result["attack_successes"]:
        return vehicles
    if WORKLOADS[name].adversarial and not (
        result["attack_rejections"] == result["attack_attempts"] > 0
    ):
        return vehicles
    return result["off_quota"]
