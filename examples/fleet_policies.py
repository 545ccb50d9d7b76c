#!/usr/bin/env python3
"""Declarative fleet policies: swap the fleet's brain without forking it.

The policy engine (:mod:`repro.fleet.policy`) turns the orchestrator's
run-time choices — which shard a vehicle joins, when it migrates, when
sessions re-key, where failover adoption lands — into declarative
condition → action rules that round-trip through JSON.  This example
walks the layer end to end:

1. **Specs are data** — a rule serializes to canonical JSON and loads
   back losslessly;
2. **The default bundle is the legacy brain, bit for bit** — running
   with ``policy="default"`` reproduces the exact digest of a run with
   no policy selected at all;
3. **An ablation** — the same fleet under a replay storm, steered by
   the ``default`` and ``storm-hardened`` bundles: the hardened fleet
   re-keys early inside the storm window, and the engine's per-rule
   decision tallies attribute every action;
4. **Scenario-attached rules** — a one-off rule rides along on a
   :class:`~repro.fleet.Scenario` without registering a bundle.

Run:  PYTHONPATH=src python examples/fleet_policies.py
"""

from __future__ import annotations

import dataclasses
import os

from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    ReplayStorm,
    Scenario,
    StormRekey,
    load_policy,
    policy_json,
)

#: The examples smoke test (and CI) sets REPRO_EXAMPLES_QUICK=1 to run a
#: scaled-down fleet; the narrative stays identical.
QUICK = bool(os.environ.get("REPRO_EXAMPLES_QUICK"))
VEHICLES = 8 if QUICK else 16


def fleet_config(policy: str | None = None) -> FleetConfig:
    """A two-shard fleet whose sessions outlive the storm-rekey budget.

    ``max_records=6`` sits above :class:`StormRekey`'s budget of 4, so
    the storm-hardened bundle has room to re-key *earlier* than the
    managers' own cap; round-robin assignment populates both shards
    deterministically.
    """
    return FleetConfig(
        n_vehicles=VEHICLES,
        seed=b"fleet-policies-example",
        # 12 records split 6+6: the storm window overlaps the second
        # session while it still has >= 4 records to carry, so the
        # hardened bundle's budget of 4 can actually pre-empt the cap.
        records_per_vehicle=12,
        max_records=6,
        send_interval_ms=20.0,
        arrival_spread_ms=50.0,
        shards=2,
        shard_policy="round-robin",
        policy=policy,
    )


def storm_scenario() -> Scenario:
    """A mid-traffic replay storm (records start flowing ~3.7 s in)."""
    return Scenario(
        name="policy-example-storm",
        injections=(
            ReplayStorm(at_ms=4_500.0, replays=12, target_shard=1),
        ),
    )


def tallies(orchestrator: FleetOrchestrator) -> str:
    """Render the run's per-(point, rule) policy decision tallies."""
    return (
        " ".join(
            f"{point}:{rule}={count}"
            for (point, rule), count in sorted(
                orchestrator.ledger.decision_counts.items()
            )
        )
        or "(none)"
    )


def main() -> None:
    """Specs, bit-parity, the ablation, scenario-attached rules."""
    # 1. A rule is data: canonical JSON, lossless round-trip.
    rule = StormRekey(window_ms=1_500.0, budget=3)
    print(f"Policy spec (round-trips through JSON): {policy_json(rule)}")
    assert load_policy(policy_json(rule)) == rule

    # 2. The default bundle IS the legacy behavior, bit for bit.
    scenario = storm_scenario()
    implicit = FleetOrchestrator(
        fleet_config(), scenario=scenario
    ).run().stats
    explicit = FleetOrchestrator(
        fleet_config(policy="default"), scenario=scenario
    ).run().stats
    assert implicit.digest() == explicit.digest()
    print(
        f"\npolicy=None and policy='default' agree bit-for-bit:"
        f" {explicit.digest()[:16]}... (stats.policy={explicit.policy!r})"
    )

    # 3. The ablation: default vs storm-hardened under the same storm.
    print(f"\n{VEHICLES} vehicles, replay storm at 4.5 s, two bundles:\n")
    results = {}
    for bundle in ("default", "storm-hardened"):
        orchestrator = FleetOrchestrator(
            fleet_config(policy=bundle), scenario=scenario
        )
        stats = orchestrator.run().stats
        results[bundle] = stats
        assert stats.attack_successes == 0, "a replay was accepted?!"
        print(
            f"  {bundle:<15s} rekeys={stats.rekeys:<3d}"
            f" sessions={stats.sessions_established:<4d}"
            f" {stats.attack_rejections}/{stats.attack_attempts}"
            " replays rejected"
        )
        print(f"  {'':<15s} decisions: {tallies(orchestrator)}")
    assert results["storm-hardened"].rekeys >= results["default"].rekeys
    print(
        "\nThe hardened bundle re-keys inside the storm window, so a"
        " captured key protects less traffic — same fleet, same seed,"
        " different brain."
    )

    # 4. One-off rules ride on the scenario itself — no bundle needed.
    custom = dataclasses.replace(
        scenario, name="policy-example-custom", policies=(rule,)
    )
    stats = FleetOrchestrator(
        fleet_config(), scenario=custom
    ).run().stats
    print(
        f"\nScenario-attached {rule.kind!r} (budget=3):"
        f" rekeys={stats.rekeys} vs default {results['default'].rekeys};"
        f" digest (reproducible): {stats.digest()[:16]}..."
    )


if __name__ == "__main__":
    main()
