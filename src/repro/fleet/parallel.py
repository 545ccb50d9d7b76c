"""Process-parallel fleet execution with bit-identical merged digests.

``FleetConfig.workers > 1`` partitions the gateway shards across worker
*processes*.  Each worker provisions the full deterministic topology
(same seed, same DRBG streams, same trust store) and then drives **only
the event streams of its own shards** — arrivals of vehicles statically
assigned to an owned shard, injections targeting an owned shard.  At the
barrier the parent folds the per-worker snapshots back together with the
proven merge laws and assembles a :class:`~repro.fleet.stats.FleetStats`
that is **bit-identical** to the single-worker run.

Why the merged digest can be exact
----------------------------------

The digest freezes three kinds of state, each with its own merge law:

* **integer counters** — addition is associative and commutative;
* **latency summaries** — accumulated in
  :class:`~repro.fleet.stats.StreamingLatency` value→count tables whose
  merge is order-independent and whose ``summary()`` replays
  ``LatencySummary.from_samples`` bit-for-bit (equal values are adjacent
  after sorting, so the float-addition sequence is identical);
* **the fleet energy float** — accumulated in
  :class:`~repro.fleet.stats.ExactSum` (Shewchuk partials), whose value
  is the *correctly rounded* exact sum and therefore independent of
  which process added which sample in which order.

What makes a configuration partitionable
----------------------------------------

:func:`partition_plan` returns a plan only when shard event streams are
provably independent.  The topology contributes three facts: at least
two shards, no V2V pairings (cross-shard sessions) and no
failover/rejoin (handovers move vehicles between shards and bump chain
epochs).  The strategies answer for themselves: every rule
:func:`~repro.fleet.policy.resolve_policies` yields for the run must
declare ``shard_local`` (see :func:`~repro.fleet.policy.register_policy`).
``ShardPolicyAssign`` is shard-local only for ``static-hash``, which
makes placement a pure function of the vehicle identity — how a worker
predicts its vehicles; ``SessionExpiryRekey`` is shard-local;
re-balancing, roaming, storm re-keying (a fleet-global storm window) and
failover spreading are not, nor is a rule that declares nothing.
Everything else — replay storms, CA-queue floods, burst/diurnal/Poisson
arrivals, convoy pins, behavior profiles — stays per-shard and
parallelises.  Configurations that fail the check fall back to the
serial loop, where digest parity is trivial.

Workers run in a :class:`concurrent.futures.ProcessPoolExecutor`; a
worker process that dies breaks the pool, and the parent raises a
:class:`~repro.errors.SimulationError` naming the workers (and their
shards) that returned no snapshot instead of waiting forever.

Transport integrity
-------------------

Every :class:`WorkerSnapshot` travels with a ``checksum`` — the SHA-256
of its canonical rendering, computed in the worker and re-verified by
the parent before merging.  A snapshot corrupted in transit (or a
worker/parent version skew) fails loudly instead of silently producing
a wrong digest.

Worker-local telemetry: workers run their own
:class:`~repro.obs.fleet.FleetInstrumentation` hooks; metric snapshots
merge into the parent observer (counters add, gauges max, histogram
sums are exact), while span streams stay worker-local — the parent
observer carries the merged metrics, the final heartbeat (annotated
with the max worker ``peak_rss_kb``) and the run meta.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
from dataclasses import dataclass

from ..backend import get_backend, use_backend
from ..errors import SimulationError
from .policy import resolve_policies
from .stats import (
    ExactSum,
    FleetStats,
    InjectionStats,
    ShardStats,
    StreamingLatency,
    merge_shard_stats,
)

__all__ = [
    "PartitionPlan",
    "WorkerSnapshot",
    "partition_plan",
    "run_parallel",
]

#: Fleet-level counters shipped verbatim from each worker; every one
#: merges by addition.
_COUNTER_FIELDS = (
    "enrollments",
    "sessions_established",
    "rekeys",
    "records_sent",
    "handovers",
    "migrations",
    "rejoins",
    "re_enrollments",
    "v2v_sessions",
    "v2v_rekeys",
    "v2v_cross_shard",
    "v2v_records_sent",
)

#: Raw per-shard accounting shipped from workers; the parent rebuilds
#: :class:`~repro.fleet.stats.ShardStats` from these at the *global*
#: end time (utilisation must be computed against the merged clock).
_SHARD_FIELDS = (
    "index",
    "name",
    "vehicles_assigned",
    "enrollments",
    "sessions_established",
    "rekeys",
    "handovers_in",
    "failed",
    "busy_ms",
    "batches",
    "max_batch",
    "energy_mj",
    "epoch",
    "migrations_in",
    "migrations_out",
)


@dataclass(frozen=True)
class PartitionPlan:
    """A viable shard→worker assignment for one run.

    ``owned[w]`` is the tuple of shard indices worker ``w`` simulates;
    shards are dealt round-robin (shard ``i`` → worker ``i % workers``)
    and the worker count is capped at the shard count, so every worker
    owns at least one shard.
    """

    workers: int
    owned: tuple[tuple[int, ...], ...]


@dataclass
class WorkerSnapshot:
    """Everything one worker's partition run produced, merge-ready.

    The latency fields are :class:`~repro.fleet.stats.StreamingLatency`
    tables and ``vehicle_energy`` an :class:`~repro.fleet.stats.ExactSum`
    — the *mergeable* forms, not rendered summaries, so the parent can
    fold any number of snapshots and only then freeze the result.
    ``checksum`` is the SHA-256 of :func:`_canonical_snapshot`, verified
    on receipt.
    """

    worker: int
    owned: tuple[int, ...]
    now: float
    events_processed: int
    shard_rows: tuple[dict, ...]
    counters: dict
    enrollment_latency: StreamingLatency
    establishment_latency: StreamingLatency
    queue_latency: StreamingLatency
    v2v_latency: StreamingLatency
    migration_latency: StreamingLatency
    vehicle_energy: ExactSum
    injection_rows: tuple[tuple[int, int, int], ...]
    metrics: object | None
    peak_rss_kb: int | None
    tree_root: str | None = None
    checksum: str = ""


def _canonical_snapshot(snap: WorkerSnapshot) -> str:
    """Canonical rendering of a snapshot's simulated-result fields.

    Pure function of the digest-relevant material (counters, shard rows,
    latency tables, energy partials, injections, clock) — host-side
    annotations (``metrics``, ``peak_rss_kb``, ``tree_root``) are
    deliberately outside the checksum, exactly as ``wall`` annotations
    are outside the run digest; the telemetry plane has its own
    integrity check (the subtree merge proof in ``_finalize_obs``).
    """
    parts = [
        f"worker={snap.worker}",
        "owned=" + ",".join(str(i) for i in snap.owned),
        f"now={snap.now!r}",
        f"events={snap.events_processed}",
        "counters="
        + ";".join(f"{key}:{snap.counters[key]}" for key in _COUNTER_FIELDS),
        "energy=" + snap.vehicle_energy.canonical(),
        "enroll=" + snap.enrollment_latency.canonical(),
        "establish=" + snap.establishment_latency.canonical(),
        "queue=" + snap.queue_latency.canonical(),
        "v2v=" + snap.v2v_latency.canonical(),
        "migrate=" + snap.migration_latency.canonical(),
        "injections="
        + ";".join(f"{a}:{r}:{s}" for a, r, s in snap.injection_rows),
    ]
    for row in snap.shard_rows:
        fields = ";".join(f"{key}:{row[key]!r}" for key in _SHARD_FIELDS)
        parts.append(
            f"shard[{row['index']}]={fields};"
            f"queue:{row['queue_latency'].canonical()}"
        )
    return "|".join(parts)


def _checksum(snap: WorkerSnapshot) -> str:
    return hashlib.sha256(_canonical_snapshot(snap).encode()).hexdigest()


def partition_plan(config, schedule) -> PartitionPlan | None:
    """A shard partition for ``config``, or ``None`` when coupled.

    Returns a :class:`PartitionPlan` only when every shard's event
    stream is provably independent of every other's (see the module
    docstring for the full argument); the orchestrator treats ``None``
    as "run the serial loop".
    """
    if config.workers <= 1 or config.shards < 2:
        return None
    if config.v2v_fraction > 0.0 or config.shard_fail_at_ms is not None:
        return None
    if not all(
        getattr(rule, "shard_local", False)
        for rule in resolve_policies(config, schedule)
    ):
        return None
    workers = min(config.workers, config.shards)
    owned: list[list[int]] = [[] for _ in range(workers)]
    for shard in range(config.shards):
        owned[shard % workers].append(shard)
    return PartitionPlan(
        workers=workers, owned=tuple(tuple(o) for o in owned)
    )


def _worker_run(payload) -> WorkerSnapshot:
    """Worker-process entry: build the fleet, drive one partition.

    Builds the *full* deterministic topology (cheap relative to the
    storm: O(shards) provisioning) with ``workers=1`` so the worker's
    orchestrator is exactly the serial one, then schedules only the
    owned shards' events.  Returns a checksummed snapshot of everything
    the barrier merge needs.
    """
    worker_index, owned, config, scenario, want_obs, max_events = payload
    from .orchestrator import FleetOrchestrator

    obs = None
    if want_obs:
        from ..obs import Observer

        obs = Observer()
    orch = FleetOrchestrator(config, scenario=scenario, obs=obs)
    owned_set = frozenset(owned)
    with use_backend(config.backend):
        orch._run_partition(owned_set, max_events)
    if orch._hooks is not None:
        orch._hooks.partition_finished(orch)
    counters = {
        "enrollments": sum(1 for v in orch.vehicles if v.enrolled),
        "sessions_established": orch._sessions_established,
        "rekeys": orch._rekeys,
        "records_sent": orch._records_sent,
        "handovers": orch._handovers,
        "migrations": orch._migrations,
        "rejoins": orch._rejoins,
        "re_enrollments": orch._re_enrollments,
        "v2v_sessions": orch._v2v_sessions,
        "v2v_rekeys": orch._v2v_rekeys,
        "v2v_cross_shard": orch._v2v_cross_shard,
        "v2v_records_sent": orch._v2v_records_sent,
    }
    shard_rows = []
    for index in sorted(owned_set):
        shard = orch.shards[index]
        shard_rows.append(
            {
                "index": shard.index,
                "name": shard.ca_name,
                "vehicles_assigned": shard.vehicles_assigned,
                "enrollments": shard.enrollments,
                "sessions_established": shard.sessions_established,
                "rekeys": shard.rekeys,
                "handovers_in": shard.handovers_in,
                "failed": shard.failed,
                "busy_ms": shard.resource.busy_ms,
                "batches": shard.batches,
                "max_batch": shard.max_batch,
                "queue_latency": shard.queue_latency,
                "energy_mj": shard.energy_mj,
                "epoch": shard.epoch,
                "migrations_in": shard.migrations_in,
                "migrations_out": shard.migrations_out,
            }
        )
    from ..obs import _peak_rss_kb

    snap = WorkerSnapshot(
        worker=worker_index,
        owned=tuple(sorted(owned_set)),
        now=orch.sim.now,
        events_processed=orch.sim.events_processed,
        shard_rows=tuple(shard_rows),
        counters=counters,
        enrollment_latency=orch._enrollment_latencies,
        establishment_latency=orch._establishment_latencies,
        queue_latency=orch._queue_latencies,
        v2v_latency=orch._v2v_latencies,
        migration_latency=orch._migration_latencies,
        vehicle_energy=orch._vehicle_energy,
        injection_rows=tuple(
            (log["attempts"], log["rejected"], log["succeeded"])
            for log in orch._injection_log
        ),
        metrics=obs.metrics.snapshot() if obs is not None else None,
        peak_rss_kb=_peak_rss_kb(),
    )
    if snap.metrics is not None:
        from ..obs.tree import DigestTree

        # The worker's metric-plane subtree root: the parent rebuilds
        # the subtree from the shipped snapshot and verifies it hashes
        # to this root before folding (see _finalize_obs).
        snap.tree_root = DigestTree.from_metrics(snap.metrics).root_digest
    snap.checksum = _checksum(snap)
    return snap


def _start_method() -> str:
    """Prefer ``fork`` (cheap, inherits the warm process) when available."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def run_parallel(
    config,
    scenario,
    schedule,
    plan: PartitionPlan,
    obs=None,
    max_events: int = 5_000_000,
):
    """Execute ``plan`` across worker processes and merge at the barrier.

    The returned :class:`~repro.fleet.orchestrator.FleetResult` carries
    a stats object bit-identical to the serial run's.  ``vehicles`` is
    empty — per-vehicle timelines live and die inside the workers
    (that is the point: the parent never materialises per-vehicle
    state) — so callers needing timelines should run ``workers=1``.
    """
    # Imported here, not at module level: a serial run never pays for
    # the executor's modules (they add to every run's peak RSS).
    from concurrent.futures.process import (
        BrokenProcessPool,
        ProcessPoolExecutor,
    )

    from .orchestrator import FleetResult

    # Resolve the ambient backend to a concrete name so spawn-started
    # workers (fresh processes, default ambient) execute the same one.
    worker_config = dataclasses.replace(
        config,
        workers=1,
        backend=config.backend or get_backend().name,
    )
    payloads = [
        (w, plan.owned[w], worker_config, scenario, obs is not None,
         max_events)
        for w in range(plan.workers)
    ]
    ctx = multiprocessing.get_context(_start_method())
    with ProcessPoolExecutor(max_workers=plan.workers, mp_context=ctx) as pool:
        futures = [pool.submit(_worker_run, payload) for payload in payloads]
        lost = [
            w
            for w, future in enumerate(futures)
            if isinstance(future.exception(), BrokenProcessPool)
        ]
        if lost:
            # A dead worker process breaks the whole pool: every worker
            # still running then loses its result too.
            named = ", ".join(
                f"worker {w} (shards {list(plan.owned[w])})" for w in lost
            )
            raise SimulationError(
                f"a worker process died; no snapshot from {named}"
            ) from futures[lost[0]].exception()
        snapshots = [future.result() for future in futures]
    for snap in snapshots:
        expected = _checksum(snap)
        if snap.checksum != expected:
            raise SimulationError(
                f"worker {snap.worker} snapshot failed its transport"
                f" checksum ({snap.checksum[:12]}… != {expected[:12]}…);"
                " refusing to merge corrupted results"
            )
    stats = _merge(config, scenario, schedule, snapshots)
    if obs is not None:
        _finalize_obs(obs, config, scenario, stats, snapshots)
    return FleetResult(stats=stats, vehicles=[], obs=obs)


def _merge(config, scenario, schedule, snapshots) -> FleetStats:
    """Fold worker snapshots into the serial run's exact FleetStats."""
    # The merged clock: the serial run ends at the last event overall,
    # each worker at the last event among its shards.
    now = max(snap.now for snap in snapshots)
    rows: dict[int, dict] = {}
    for snap in snapshots:
        for row in snap.shard_rows:
            if row["index"] in rows:
                raise SimulationError(
                    f"shard {row['index']} reported by two workers —"
                    " partition plan is not a partition"
                )
            rows[row["index"]] = row
    if sorted(rows) != list(range(config.shards)):
        raise SimulationError(
            f"parallel run covered shards {sorted(rows)} of"
            f" {config.shards} — a worker went missing"
        )
    per_shard = tuple(
        ShardStats(
            index=row["index"],
            name=row["name"],
            vehicles_assigned=row["vehicles_assigned"],
            enrollments=row["enrollments"],
            sessions_established=row["sessions_established"],
            rekeys=row["rekeys"],
            handovers_in=row["handovers_in"],
            failed=row["failed"],
            ca_busy_ms=row["busy_ms"],
            # Recomputed against the *global* clock, matching
            # Resource.utilisation(now) in the serial assembly.
            ca_utilisation=(row["busy_ms"] / now) if now > 0 else 0.0,
            ca_batches=row["batches"],
            ca_max_batch=row["max_batch"],
            queue_latency=row["queue_latency"].summary(),
            ca_energy_mj=row["energy_mj"],
            epoch=row["epoch"],
            migrations_in=row["migrations_in"],
            migrations_out=row["migrations_out"],
        )
        for row in (rows[index] for index in sorted(rows))
    )
    merged = merge_shard_stats(per_shard)
    totals = {
        key: sum(snap.counters[key] for snap in snapshots)
        for key in _COUNTER_FIELDS
    }
    enrollment = StreamingLatency()
    establishment = StreamingLatency()
    queue = StreamingLatency()
    v2v = StreamingLatency()
    migration = StreamingLatency()
    energy = ExactSum()
    for snap in snapshots:
        enrollment.merge(snap.enrollment_latency)
        establishment.merge(snap.establishment_latency)
        queue.merge(snap.queue_latency)
        v2v.merge(snap.v2v_latency)
        migration.merge(snap.migration_latency)
        energy.merge(snap.vehicle_energy)
    injections = schedule.injections if schedule is not None else ()
    injection_stats = tuple(
        InjectionStats(
            kind=spec.kind,
            at_ms=spec.at_ms,
            attempts=sum(s.injection_rows[i][0] for s in snapshots),
            rejected=sum(s.injection_rows[i][1] for s in snapshots),
            succeeded=sum(s.injection_rows[i][2] for s in snapshots),
        )
        for i, spec in enumerate(injections)
    )
    return FleetStats(
        vehicles=config.n_vehicles,
        enrollments=totals["enrollments"],
        sessions_established=totals["sessions_established"],
        rekeys=totals["rekeys"],
        records_sent=totals["records_sent"],
        duration_ms=now,
        ca_busy_ms=merged["ca_busy_ms"],
        ca_utilisation=(
            merged["ca_busy_ms"] / (now * len(per_shard))
            if now > 0
            else 0.0
        ),
        ca_batches=merged["ca_batches"],
        ca_max_batch=merged["ca_max_batch"],
        enrollment_latency=enrollment.summary(),
        establishment_latency=establishment.summary(),
        vehicle_energy_mj=energy.value,
        ca_energy_mj=merged["ca_energy_mj"],
        per_shard=per_shard,
        ca_queue_latency=queue.summary(),
        v2v_sessions=totals["v2v_sessions"],
        v2v_rekeys=totals["v2v_rekeys"],
        v2v_cross_shard=totals["v2v_cross_shard"],
        v2v_records_sent=totals["v2v_records_sent"],
        v2v_latency=v2v.summary(),
        handovers=totals["handovers"],
        migrations=totals["migrations"],
        rejoins=totals["rejoins"],
        re_enrollments=totals["re_enrollments"],
        migration_latency=migration.summary(),
        scenario=scenario.name if scenario is not None else "",
        policy=config.policy or "",
        profile_counts=(
            schedule.profile_counts if schedule is not None else ()
        ),
        injection_stats=injection_stats,
    )


def _finalize_obs(obs, config, scenario, stats, snapshots) -> None:
    """Fold worker telemetry into the parent observer.

    Mirrors ``FleetInstrumentation.run_finished`` for the parts the
    parent owns: merged metrics, per-kind injection counters, the final
    heartbeat (annotated with the fleet-wide peak RSS when available)
    and the run meta.  Span streams stay worker-local by design.

    The absorb step carries its own proof: each worker shipped the
    digest-tree root of its metric-plane subtree, so the parent
    (1) rebuilds every subtree from the received snapshot and checks it
    hashes back to the shipped root, then (2) folds the subtrees under
    the tree merge law and demands the fold equal the tree *recomputed*
    from the absorbed registry — merge ≡ recomputation, the law
    ``tests/fleet/test_divergence_parallel.py`` exercises for
    workers ∈ {1, 2, 4}.  A mismatch is a merge-law violation, not a
    transport error, and fails the run loudly.
    """
    from ..obs.tree import DigestTree

    proof_eligible = not obs.metrics.snapshot().events()
    worker_trees = []
    for snap in snapshots:
        if snap.metrics is not None:
            subtree = DigestTree.from_metrics(snap.metrics)
            if (
                snap.tree_root is not None
                and subtree.root_digest != snap.tree_root
            ):
                raise SimulationError(
                    f"worker {snap.worker} metric subtree hashes to"
                    f" {subtree.root_digest[:12]}… but shipped root"
                    f" {snap.tree_root[:12]}…; refusing to merge"
                )
            worker_trees.append(subtree)
            obs.metrics.absorb(snap.metrics)
    if worker_trees and proof_eligible:
        folded = worker_trees[0].merge(*worker_trees[1:])
        recomputed = DigestTree.from_metrics(obs.metrics.snapshot())
        if folded.root_digest != recomputed.root_digest:
            raise SimulationError(
                "worker subtree fold"
                f" ({folded.root_digest[:12]}…) does not equal the"
                " tree recomputed from the absorbed registry"
                f" ({recomputed.root_digest[:12]}…) — the digest-tree"
                " merge law failed"
            )
        obs.meta["tree_root"] = recomputed.root_digest
    for inj in stats.injection_stats:
        obs.metrics.counter(
            "fleet.injection_attempts", kind=inj.kind
        ).inc(inj.attempts)
        obs.metrics.counter(
            "fleet.injection_rejected", kind=inj.kind
        ).inc(inj.rejected)
        obs.metrics.counter(
            "fleet.injection_succeeded", kind=inj.kind
        ).inc(inj.succeeded)
    beat = obs.heartbeat(
        sim_ms=stats.duration_ms,
        vehicles_done=config.n_vehicles,
        vehicles_total=config.n_vehicles,
        records_sent=stats.records_sent,
    )
    peaks = [
        snap.peak_rss_kb
        for snap in snapshots
        if snap.peak_rss_kb is not None
    ]
    if peaks:
        wall = beat.setdefault("wall", {})
        wall["peak_rss_kb"] = max([*peaks, wall.get("peak_rss_kb", 0)])
    obs.meta.update(
        {
            "run": scenario.name if scenario is not None else "fleet",
            "sim_end_ms": stats.duration_ms,
            "backend": config.backend,
            "n_vehicles": config.n_vehicles,
            "shards": config.shards,
            "workers": len(snapshots),
            "digest": stats.digest(),
        }
    )
