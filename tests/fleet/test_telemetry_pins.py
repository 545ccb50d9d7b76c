"""Pinned telemetry planes: the observer's output, hashed to constants.

The stats digests pin what a run *computed*; these roots pin what the
observer *reported* about it — every span, counter, gauge and histogram
bucket — through :meth:`repro.obs.Observer.digest_tree`.  Any change to
how the fleet's accounting reaches the telemetry plane (a counter
renamed, a histogram bucket moved, a span attribute re-read from a
different source) moves one of these roots.

Three shapes cover the plane:

* a serial churn run — failover, rejoin, roamers, a replay storm, a CA
  queue flood and a stale-cert flood — hashed over spans and metrics;
* a V2V run under the ``default`` policy bundle, spans and metrics;
* a 2-worker partitioned run, metrics only (spans stay in the workers).
"""

from __future__ import annotations

import pytest

from repro.fleet import (
    BehaviorProfile,
    CaQueueFlood,
    FleetConfig,
    FleetOrchestrator,
    ReplayStorm,
    Scenario,
    StaleCertFlood,
)
from repro.obs import Observer

_CHURN_ROOT = "aff28506a4c1902651b35bdb67cf62fa04ca51e8eb97e6f86edc24b4fb930008"
_V2V_ROOT = "2c5070a35b6078957c8b82cabb6ab3952ec551fa466e852e3e3ff6f69ce4a7d1"
_PARALLEL_METRICS_ROOT = (
    "b14a41fc3a7cda9ac1a8e865ddb15de1c8e210c6bf6837b5b42cf5a96ccbd55a"
)


def _churn():
    config = FleetConfig(
        n_vehicles=12,
        seed=b"telemetry-pin-churn",
        records_per_vehicle=12,
        max_records=6,
        shards=3,
        arrival_spread_ms=2_000.0,
        shard_fail_at_ms=5_000.0,
        fail_shard=0,
        shard_rejoin_at_ms=7_000.0,
        authenticate_requests=True,
    )
    scenario = Scenario(
        name="pin-churn",
        profiles=(BehaviorProfile(name="roamer", count=4, roam_every=4),),
        injections=(
            ReplayStorm(at_ms=6_000.0, replays=16, target_shard=1),
            CaQueueFlood(at_ms=6_200.0, requests=6, target_shard=2),
            StaleCertFlood(at_ms=7_500.0, attempts=12),
        ),
    )
    return config, scenario


def _v2v():
    config = FleetConfig(
        n_vehicles=10,
        seed=b"telemetry-pin-v2v",
        records_per_vehicle=6,
        max_records=3,
        send_interval_ms=20.0,
        arrival_spread_ms=200.0,
        shards=2,
        v2v_fraction=0.6,
        v2v_records=5,
        policy="default",
    )
    return config, None


def _parallel():
    config = FleetConfig(
        n_vehicles=16,
        seed=b"telemetry-pin-parallel",
        records_per_vehicle=4,
        max_records=3,
        send_interval_ms=20.0,
        arrival_spread_ms=300.0,
        shards=3,
        workers=2,
        policy="default",
    )
    return config, None


def _root(shape, include) -> str:
    config, scenario = shape()
    obs = Observer()
    FleetOrchestrator(config, scenario=scenario, obs=obs).run()
    return obs.digest_tree(include=include).root_digest


@pytest.mark.parametrize(
    "shape, include, expected",
    [
        (_churn, ("spans", "metrics"), _CHURN_ROOT),
        (_v2v, ("spans", "metrics"), _V2V_ROOT),
        (_parallel, ("metrics",), _PARALLEL_METRICS_ROOT),
    ],
    ids=["churn", "v2v-default-bundle", "parallel-2-workers"],
)
def test_telemetry_plane_root_is_pinned(shape, include, expected):
    assert _root(shape, include) == expected


def test_parallel_shape_really_partitions():
    config, _ = _parallel()
    assert FleetOrchestrator(config)._plan is not None
