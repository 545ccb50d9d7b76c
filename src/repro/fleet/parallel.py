"""Process-parallel fleet execution with bit-identical merged digests.

``FleetConfig.workers > 1`` partitions the gateway shards across worker
*processes*.  Each worker provisions the full deterministic topology
(same seed, same DRBG streams, same trust store) and then drives **only
the event streams of its own shards** — arrivals of vehicles statically
assigned to an owned shard, injections targeting an owned shard.  Each
worker ships its :class:`~repro.fleet.stats.FleetLedger`; at the barrier
the parent folds them with one :meth:`~repro.fleet.stats.FleetLedger.merge`
and reads the :class:`~repro.fleet.stats.FleetStats` off the merged
ledger, **bit-identical** to the single-worker run.

Why the merged digest can be exact
----------------------------------

The ledger holds three kinds of state, each with its own merge law:

* **integer counters** — addition is associative and commutative;
* **latency tables** — :class:`~repro.fleet.stats.StreamingLatency`
  value→count tables whose merge is order-independent and whose
  ``summary()`` replays ``LatencySummary.from_samples`` bit-for-bit
  (equal values are adjacent after sorting, so the float-addition
  sequence is identical);
* **the fleet energy float** — accumulated in
  :class:`~repro.fleet.stats.ExactSum` (Shewchuk partials), whose value
  is the *correctly rounded* exact sum and therefore independent of
  which process added which sample in which order.

Per-shard tallies (sequential float sums included) belong to the one
worker that simulated the shard and move over whole.

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
of its clock, event count and ``ledger.canonical()``, computed in the
worker and re-verified by the parent before merging.  A snapshot
corrupted in transit (or a worker/parent version skew) fails loudly
instead of silently producing a wrong digest.

Telemetry: an observed worker records its own spans and heartbeats
(they stay worker-local) and ships the digest-tree root of its rendered
ledger; the parent checks every root, renders the merged ledger into its
observer once and proves the fold of the worker subtrees equals the
merged rendering's tree (:func:`_finalize_obs`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
from dataclasses import dataclass

from ..backend import get_backend, use_backend
from ..errors import SimulationError
from .policy import resolve_policies
from .stats import FleetLedger

__all__ = [
    "PartitionPlan",
    "WorkerSnapshot",
    "partition_plan",
    "run_parallel",
]


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

    ``ledger`` holds the worker's own shards' tallies and its share of
    every fleet-level count, in mergeable form.  ``checksum`` is the
    SHA-256 of :func:`_checksum`'s rendering, verified on receipt;
    ``peak_rss_kb`` and ``tree_root`` (the digest-tree root of the
    rendered ledger, present when the run is observed) are host-side and
    telemetry annotations outside it.
    """

    worker: int
    owned: tuple[int, ...]
    now: float
    events: int
    ledger: FleetLedger
    peak_rss_kb: int | None
    tree_root: str | None = None
    checksum: str = ""


def _checksum(snap: WorkerSnapshot) -> str:
    canonical = "|".join(
        [
            f"worker={snap.worker}",
            "owned=" + ",".join(str(i) for i in snap.owned),
            f"now={snap.now!r}",
            f"events={snap.events}",
            snap.ledger.canonical(),
        ]
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


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
    owned shards' events.  Returns a checksummed snapshot of the
    worker's ledger.
    """
    worker_index, owned, config, scenario, want_obs, max_events = payload
    from ..obs import Observer, _peak_rss_kb
    from .orchestrator import FleetOrchestrator

    orch = FleetOrchestrator(
        config, scenario=scenario, obs=Observer() if want_obs else None
    )
    with use_backend(config.backend):
        orch._run_partition(frozenset(owned), max_events)
    snap = WorkerSnapshot(
        worker=worker_index,
        owned=tuple(sorted(owned)),
        now=orch.sim.now,
        events=orch.sim.events_processed,
        ledger=orch.ledger,
        peak_rss_kb=_peak_rss_kb(),
    )
    if want_obs:
        snap.tree_root = _metric_tree(orch.ledger).root_digest
    snap.checksum = _checksum(snap)
    return snap


def _metric_tree(ledger: FleetLedger):
    """The digest tree of a ledger's rendered metric plane."""
    from ..obs.tree import DigestTree

    return DigestTree.from_metrics(ledger.render())


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

    Returns ``(stats, ledger)``: the merged
    :class:`~repro.fleet.stats.FleetLedger` and its stats view,
    bit-identical to the serial run's.  Per-vehicle state lives and dies
    inside the workers (that is the point: the parent never materialises
    it).
    """
    # Imported here, not at module level: a serial run never pays for
    # the executor's modules (they add to every run's peak RSS).
    from concurrent.futures.process import (
        BrokenProcessPool,
        ProcessPoolExecutor,
    )

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
    first, *rest = (snap.ledger for snap in snapshots)
    ledger = first.merge(*rest)
    # The merged clock: the serial run ends at the last event overall,
    # each worker at the last event among its shards.
    stats = ledger.stats(
        config, scenario, schedule, max(snap.now for snap in snapshots)
    )
    if obs is not None:
        _finalize_obs(obs, config, scenario, stats, ledger, snapshots)
    return stats, ledger


def _finalize_obs(obs, config, scenario, stats, ledger, snapshots) -> None:
    """Publish the merged ledger into the parent observer, with proof.

    Each worker shipped the digest-tree root of its rendered ledger, so
    the parent (1) re-renders every received ledger and checks it hashes
    back to the shipped root, then (2) folds the worker subtrees under
    the tree merge law and demands the fold equal the tree of the merged
    ledger's rendering — merge ≡ recomputation, the law
    ``tests/fleet/test_divergence_parallel.py`` exercises for
    workers ∈ {1, 2, 4}.  A mismatch is a merge-law violation, not a
    transport error, and fails the run loudly.  The parent then carries
    the metric plane, the final heartbeat (annotated with the max worker
    ``peak_rss_kb``) and the run meta; span streams stay worker-local.
    """
    from ..obs.fleet import publish

    worker_trees = []
    for snap in snapshots:
        subtree = _metric_tree(snap.ledger)
        if subtree.root_digest != snap.tree_root:
            raise SimulationError(
                f"worker {snap.worker} metric subtree hashes to"
                f" {subtree.root_digest[:12]}… but shipped root"
                f" {str(snap.tree_root)[:12]}…; refusing to merge"
            )
        worker_trees.append(subtree)
    folded = worker_trees[0].merge(*worker_trees[1:])
    merged = _metric_tree(ledger)
    if folded.root_digest != merged.root_digest:
        raise SimulationError(
            "worker subtree fold"
            f" ({folded.root_digest[:12]}…) does not equal the tree of"
            f" the merged ledger ({merged.root_digest[:12]}…) — the"
            " digest-tree merge law failed"
        )
    obs.meta["tree_root"] = merged.root_digest
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
    publish(obs, ledger, stats, config, scenario, workers=len(snapshots))
