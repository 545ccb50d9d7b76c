"""Lifecycle hooks connecting the fleet orchestrator to an Observer.

The orchestrator calls one hook per lifecycle event, always guarded by
``if self._hooks is not None`` — when no observer is attached not a
single instruction beyond that check runs (the ``CostTrace``
zero-overhead contract).

The hooks record spans and heartbeats only.  Every count lives in the
run's always-on :class:`~repro.fleet.stats.FleetLedger`; :func:`publish`
renders the whole ``fleet.*``/``policy.*`` metric plane from it once,
when the run ends (serial) or at the barrier (process-parallel), and
heartbeats read their progress counts from it.

Digest-neutrality rules every hook obeys:

* **read-only** — hooks never mutate orchestrator, shard or vehicle
  state, never draw from any DRBG, and never schedule simulator events
  (an extra event would renumber the heap's tie-breaking sequence and
  change the ordering of simultaneous events);
* **sim-time only** — every span timestamp is ``sim.now`` or a value
  the orchestrator already computed (batch service windows); wall-clock
  only ever appears inside the clearly-marked ``wall`` annotations the
  deterministic views strip;
* **synchronous heartbeats** — progress beats are emitted from inside
  record/done hooks when sim-time crosses the next boundary, *not* from
  scheduled timers, for the same heap-sequence reason.
"""

from __future__ import annotations

__all__ = ["FleetInstrumentation", "publish"]


def publish(obs, ledger, stats, config, scenario, **meta) -> None:
    """Render a finished run's ledger into ``obs``: metrics and meta.

    The one tail of every observed run: the serial run publishes its own
    ledger, a process-parallel run the workers' merged ledger (``meta``
    adds the parallel-only keys).
    """
    obs.metrics.absorb(ledger.render())
    obs.meta.update(
        {
            "run": scenario.name if scenario is not None else "fleet",
            "sim_end_ms": stats.duration_ms,
            "backend": config.backend,
            "n_vehicles": config.n_vehicles,
            "shards": config.shards,
            **meta,
            "digest": stats.digest(),
        }
    )


class FleetInstrumentation:
    """Tracks span ids per fleet entity and feeds the observer.

    One instance per orchestrator run.  Span bookkeeping is keyed by
    vehicle index / shard index / V2V pair, mirroring the orchestrator's
    own single-flight invariants (one establishment, one migration, one
    re-enrollment in flight per vehicle at a time).
    """

    def __init__(self, observer) -> None:
        self.obs = observer
        self._run_span: int | None = None
        self._shard_spans: dict = {}
        self._vehicle_spans: dict = {}
        self._enroll_spans: dict = {}
        self._establish_spans: dict = {}
        self._migrate_spans: dict = {}
        self._re_enroll_spans: dict = {}
        self._v2v_spans: dict = {}
        self._next_beat_ms = 0.0

    # -- run lifecycle ------------------------------------------------------

    def run_started(self, orch) -> None:
        """Open the run span and one span per gateway shard."""
        spans = self.obs.spans
        self._run_span = spans.begin(
            "fleet",
            "run",
            orch.sim.now,
            n_vehicles=orch.config.n_vehicles,
            shards=orch.config.shards,
            scenario=(
                orch.scenario.name if orch.scenario is not None else ""
            ),
        )
        for shard in orch.shards:
            self._shard_spans[shard.index] = spans.begin(
                f"shard{shard.index}",
                "shard",
                orch.sim.now,
                parent=self._run_span,
                shard=shard.index,
            )

    def run_finished(self, orch) -> None:
        """Close shard + run spans and emit the final heartbeat.

        Ends the serial run and each process-parallel worker's partition
        alike; the metric plane and the run meta follow from the ledger
        (:func:`publish`).
        """
        from ..fleet.stats import ShardTally

        spans = self.obs.spans
        now = orch.sim.now
        for shard in orch.shards:
            # A worker holds only its own shards' tallies; the others
            # close with the zero counts of a shard it never simulated.
            tally = orch.ledger.shards.get(shard.index) or ShardTally()
            spans.end(
                self._shard_spans.pop(shard.index),
                now,
                enrollments=tally.enrollments,
                sessions=tally.sessions,
                batches=tally.batches,
            )
        spans.end(self._run_span, now)
        self._run_span = None
        self._heartbeat(orch)  # final beat, always emitted

    # -- enrollment ---------------------------------------------------------

    def vehicle_arrived(self, orch, vehicle) -> None:
        """Open the vehicle lifecycle + enrollment spans."""
        spans = self.obs.spans
        parent = spans.begin(
            vehicle.name,
            "vehicle",
            orch.sim.now,
            parent=self._run_span,
            vehicle=vehicle.index,
        )
        self._vehicle_spans[vehicle.index] = parent
        self._enroll_spans[vehicle.index] = spans.begin(
            f"{vehicle.name}:enroll",
            "enroll",
            orch.sim.now,
            parent=parent,
            vehicle=vehicle.index,
        )

    def vehicle_enrolled(self, orch, vehicle) -> None:
        """Close the enrollment span."""
        self.obs.spans.end(
            self._enroll_spans.pop(vehicle.index),
            orch.sim.now,
            shard=vehicle.shard,
        )

    def ca_batch(
        self, orch, shard, batch_size, attacks, start_ms, end_ms
    ) -> None:
        """Record one CA issuance batch span."""
        spans = self.obs.spans
        span_id = spans.begin(
            f"shard{shard.index}:issue",
            "ca-batch",
            start_ms,
            parent=self._shard_spans.get(shard.index),
            shard=shard.index,
            batch=batch_size,
            attacks=attacks,
        )
        spans.end(span_id, end_ms)

    # -- sessions -----------------------------------------------------------

    def establish_started(self, orch, vehicle, shard) -> None:
        """Open the session-establishment span."""
        self._establish_spans[vehicle.index] = self.obs.spans.begin(
            f"{vehicle.name}:establish",
            "establish",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            shard=shard.index,
        )

    def establish_finished(self, orch, vehicle, generation) -> None:
        """Close the establishment span."""
        self.obs.spans.end(
            self._establish_spans.pop(vehicle.index),
            orch.sim.now,
            generation=generation,
        )

    def rekey(self, orch, vehicle, shard) -> None:
        """Mark a re-key event."""
        self.obs.spans.event(
            f"{vehicle.name}:rekey",
            "rekey",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            shard=shard.index,
            records=vehicle.records_sent,
        )

    def record_sent(self, orch) -> None:
        """One application record went out: maybe heartbeat."""
        self._maybe_heartbeat(orch)

    def vehicle_done(self, orch, vehicle) -> None:
        """Close the vehicle lifecycle span; heartbeat."""
        self.obs.spans.end(
            self._vehicle_spans[vehicle.index],
            orch.sim.now,
            records=vehicle.records_sent,
        )
        self._maybe_heartbeat(orch)

    # -- failover / churn ---------------------------------------------------

    def shard_failed(self, orch, shard, requeued) -> None:
        """Mark the failover event."""
        self.obs.spans.event(
            f"shard{shard.index}:failed",
            "failover",
            orch.sim.now,
            parent=self._shard_spans.get(shard.index),
            shard=shard.index,
            requeued=requeued,
        )

    def handover(self, orch, vehicle, old_shard, new_shard) -> None:
        """Mark one failover handover."""
        self.obs.spans.event(
            f"{vehicle.name}:handover",
            "failover",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            from_shard=old_shard.index,
            to_shard=new_shard.index,
        )

    def rejoin(self, orch, shard) -> None:
        """Mark the shard-rejoin event."""
        self.obs.spans.event(
            f"shard{shard.index}:rejoin",
            "rejoin",
            orch.sim.now,
            parent=self._shard_spans.get(shard.index),
            shard=shard.index,
        )

    def migrate_started(self, orch, vehicle, old_shard, target) -> None:
        """Open the live-migration span."""
        self._migrate_spans[vehicle.index] = self.obs.spans.begin(
            f"{vehicle.name}:migrate",
            "migrate",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            from_shard=old_shard.index,
            to_shard=target.index,
        )

    def migrate_finished(self, orch, vehicle) -> None:
        """Close the migration span."""
        self.obs.spans.end(
            self._migrate_spans.pop(vehicle.index), orch.sim.now
        )

    def re_enroll_started(self, orch, vehicle, shard, reason) -> None:
        """Open the re-enrollment span."""
        self._re_enroll_spans[vehicle.index] = self.obs.spans.begin(
            f"{vehicle.name}:re-enroll",
            "re-enroll",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            shard=shard.index,
            reason=reason,
        )

    def re_enroll_finished(self, orch, vehicle) -> None:
        """Close the re-enrollment span."""
        self.obs.spans.end(
            self._re_enroll_spans.pop(vehicle.index), orch.sim.now
        )

    # -- policy decisions ----------------------------------------------------

    def policy_decision(
        self, now_ms, point, rule, vehicle_index, target_shard
    ) -> None:
        """Mark one policy-engine decision with a span event.

        Called from inside :meth:`repro.fleet.policy.PolicyEngine.decide`
        (and from the manual :meth:`~repro.fleet.orchestrator
        .FleetOrchestrator.migrate` API path, attributed to the pseudo
        rule ``"api"``), so the signature carries the already-snapshotted
        values rather than an orchestrator reference.  Tracelint's
        policy-balance rule checks these events against the
        ``policy.<point>`` counters the ledger renders.
        """
        attrs = {"vehicle": vehicle_index, "rule": rule}
        if target_shard is not None:
            attrs["to_shard"] = target_shard
        self.obs.spans.event(
            f"veh{vehicle_index:04d}:policy:{point}",
            "policy",
            now_ms,
            parent=self._vehicle_spans.get(vehicle_index),
            **attrs,
        )

    # -- V2V ----------------------------------------------------------------

    def v2v_started(self, orch, initiator, responder, rekey) -> None:
        """Open a V2V establishment span (parented to the run)."""
        pair = (initiator.index, responder.index)
        # Parented to the run, not a vehicle: a V2V session outlives the
        # gateway lifecycle span of either endpoint.
        self._v2v_spans[pair] = self.obs.spans.begin(
            f"{initiator.name}<->{responder.name}:v2v",
            "v2v",
            orch.sim.now,
            parent=self._run_span,
            initiator=initiator.index,
            responder=responder.index,
            rekey=rekey,
        )

    def v2v_finished(self, orch, initiator, responder, cross_shard) -> None:
        """Close the V2V span."""
        pair = (initiator.index, responder.index)
        self.obs.spans.end(
            self._v2v_spans.pop(pair),
            orch.sim.now,
            cross_shard=cross_shard,
        )

    # -- adversarial injections ---------------------------------------------

    def injection_ran(self, orch, index, kind, log) -> None:
        """Mark an adversarial injection dispatch event.

        CA-flood rejections are tallied later, when the flooded queue
        drains, so the per-kind counters come from the ledger's final
        injection rows, not from this dispatch-time snapshot.
        """
        self.obs.spans.event(
            f"injection{index}:{kind}",
            "injection",
            orch.sim.now,
            parent=self._run_span,
            kind=kind,
            attempts=log["attempts"],
            rejected=log["rejected"],
            succeeded=log["succeeded"],
        )

    # -- heartbeats ---------------------------------------------------------

    def _maybe_heartbeat(self, orch) -> None:
        """Emit a beat when sim-time crossed the next boundary.

        Called synchronously from record/done hooks — never scheduled —
        so the simulator's event-sequence numbering (and with it every
        golden digest) is untouched.
        """
        if orch.sim.now < self._next_beat_ms:
            return
        self._heartbeat(orch)
        self._next_beat_ms = orch.sim.now + self.obs.heartbeat_interval_ms

    def _heartbeat(self, orch) -> None:
        self.obs.heartbeat(
            sim_ms=orch.sim.now,
            vehicles_done=orch.ledger.vehicles_done,
            vehicles_total=orch.config.n_vehicles,
            records_sent=orch.ledger.records_sent,
        )
