"""Merge laws of the fleet accounting ledger, plus its run-level views.

A process-parallel run folds one :class:`~repro.fleet.stats.FleetLedger`
per worker at the barrier, and the observer's metric plane is rendered
from the folded ledger.  For that to reproduce the serial run bit for
bit, over random ledgers:

* ``merge`` is associative and commutative, and ``canonical()`` (what a
  worker's transport checksum covers) does not depend on merge order;
* rendering commutes with merging:
  ``render(a.merge(b)) == render(a).merge(render(b))`` as
  :class:`~repro.obs.MetricsSnapshot`;
* a histogram rebuilt from a value→count table equals one that observed
  every sample.

The run-level tests pin the two facts the ledger keeps apart from
``FleetStats``: policy decision tallies survive the barrier merge, and
the manual ``migrate()`` API's ``"api"`` pseudo-rule shows up in the
``policy.migrate`` metric but never in ``decision_counts``.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StatsError
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.fleet.policy import DECISION_POINTS
from repro.fleet.stats import (
    _FLEET_COUNTS,
    _SHARD_COUNTS,
    _SHARD_TABLES,
    FleetLedger,
)
from repro.obs import DEFAULT_BUCKETS_MS, Observer, run_lint
from repro.obs.metrics import Histogram, HistogramSnapshot

# -- strategies ---------------------------------------------------------------

_counts = st.integers(min_value=0, max_value=500)
#: Latency samples, bucket boundaries included (``value <= bound`` lands
#: in the bound's own bucket).
_samples = st.one_of(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    st.sampled_from(DEFAULT_BUCKETS_MS),
)
_INJECTIONS = (
    SimpleNamespace(kind="replay-storm", at_ms=500.0),
    SimpleNamespace(kind="ca-flood", at_ms=900.0),
)


@st.composite
def ledgers(draw, shards):
    """A ledger holding ``shards`` with random counts and tables."""
    ledger = FleetLedger(shards, _INJECTIONS)
    for name in _FLEET_COUNTS:
        setattr(ledger, name, draw(_counts))
    for table in (ledger.migration_latency, ledger.v2v_latency):
        for sample in draw(st.lists(_samples, max_size=8)):
            table.add(sample)
    for value in draw(st.lists(_samples, max_size=8)):
        ledger.vehicle_energy.add(value)
    for row in ledger.injections:
        for key in ("attempts", "rejected", "succeeded"):
            row[key] = draw(_counts)
    ledger.decision_counts.update(
        draw(
            st.dictionaries(
                st.tuples(
                    st.sampled_from(DECISION_POINTS),
                    st.sampled_from(["shard-assign", "storm-rekey", "api"]),
                ),
                st.integers(1, 50),
                max_size=5,
            )
        )
    )
    for tally in ledger.shards.values():
        for name in _SHARD_COUNTS:
            setattr(tally, name, draw(_counts))
        for name in _SHARD_TABLES:
            for sample in draw(st.lists(_samples, max_size=6)):
                getattr(tally, name).add(sample)
        tally.busy_ms = draw(_samples)
        tally.ca_energy_mj = draw(_samples)
    return ledger


@st.composite
def partitioned_ledgers(draw):
    """Three ledgers over a random partition of up to five shards."""
    owners = draw(st.lists(st.integers(0, 2), max_size=5))
    return tuple(
        draw(
            ledgers(
                [shard for shard, owner in enumerate(owners) if owner == part]
            )
        )
        for part in range(3)
    )


# -- merge laws ----------------------------------------------------------------


@given(partitioned_ledgers())
@settings(max_examples=60, deadline=None)
def test_merge_is_associative(parts):
    a, b, c = parts
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.canonical() == right.canonical()
    assert left.render() == right.render()


@given(partitioned_ledgers())
@settings(max_examples=60, deadline=None)
def test_merge_is_commutative(parts):
    a, b, _ = parts
    assert a.merge(b).canonical() == b.merge(a).canonical()
    assert a.merge(b).render() == b.merge(a).render()


@given(partitioned_ledgers())
@settings(max_examples=40, deadline=None)
def test_canonical_is_stable_under_merge_order(parts):
    renderings = {
        first.merge(*rest).canonical()
        for first, *rest in itertools.permutations(parts)
    }
    assert len(renderings) == 1


@given(partitioned_ledgers())
@settings(max_examples=60, deadline=None)
def test_render_commutes_with_merge(parts):
    a, b, _ = parts
    assert a.merge(b).render() == a.render().merge(b.render())


@given(partitioned_ledgers())
@settings(max_examples=30, deadline=None)
def test_merge_leaves_its_operands_unchanged(parts):
    before = [part.canonical() for part in parts]
    parts[0].merge(*parts[1:])
    assert [part.canonical() for part in parts] == before


def test_a_shard_held_by_two_ledgers_refuses_to_merge():
    with pytest.raises(StatsError, match="not a partition"):
        FleetLedger([0, 1]).merge(FleetLedger([1, 2]))


def test_ledgers_of_different_schedules_refuse_to_merge():
    with pytest.raises(StatsError, match="injection schedules"):
        FleetLedger([0], _INJECTIONS).merge(FleetLedger([1]))


@given(st.lists(_samples, max_size=40))
def test_histogram_from_counts_equals_observed_histogram(samples):
    observed = Histogram()
    counts: dict = {}
    for sample in samples:
        observed.observe(sample)
        counts[sample] = counts.get(sample, 0) + 1
    assert HistogramSnapshot.from_counts(counts) == observed.snapshot()


# -- run-level views -------------------------------------------------------------


def _partitionable(workers: int) -> FleetConfig:
    return FleetConfig(
        n_vehicles=12,
        seed=b"ledger-decisions",
        records_per_vehicle=4,
        max_records=2,
        send_interval_ms=20.0,
        arrival_spread_ms=200.0,
        shards=2,
        workers=workers,
        policy="default",
    )


def test_partitioned_run_keeps_the_serial_decision_tallies():
    serial = FleetOrchestrator(_partitionable(1))
    serial.run()
    parallel = FleetOrchestrator(_partitionable(2))
    assert parallel._plan is not None
    parallel.run()
    assert serial.ledger.decision_counts
    assert parallel.ledger.decision_counts == serial.ledger.decision_counts


def test_api_migration_is_a_metric_but_not_a_decision():
    obs = Observer()
    orch = FleetOrchestrator(
        FleetConfig(
            n_vehicles=4,
            seed=b"ledger-api-migrate",
            records_per_vehicle=6,
            max_records=10,
            send_interval_ms=20.0,
            arrival_spread_ms=50.0,
            shards=2,
        ),
        obs=obs,
    )
    engine_decides = orch._policy_migrate

    def direct_api_call(vehicle, shard):
        # A caller migrating vehicle 0 by hand from inside its own send
        # step, once: the path the "api" pseudo-rule attributes.
        first_time = not vehicle.migrations
        if vehicle.index == 0 and vehicle.records_sent == 2 and first_time:
            orch.migrate(vehicle, 1 - shard.index)
            return True
        return engine_decides(vehicle, shard)

    orch._policy_migrate = direct_api_call
    result = orch.run()
    assert result.stats.migrations == 1
    assert orch.ledger.api_migrations == 1
    assert not any(rule == "api" for _, rule in orch.ledger.decision_counts)
    counters = obs.metrics.snapshot().counters
    assert counters[("policy.migrate", (("rule", "api"),))] == 1
    assert run_lint(obs.deterministic_events()) == []
