"""Aggregate statistics for fleet-scale orchestration runs.

Everything here is deterministic: latencies come from the discrete-event
clock, energy from the hardware cost model, and :meth:`FleetStats.digest`
hashes a canonical rendering so two runs with the same seed can be checked
for bit-identical aggregate behaviour (the reproducibility contract the
fleet benchmark enforces).

Topology runs add a per-shard breakdown (:class:`ShardStats`, one per
gateway shard) plus V2V/handover aggregates.  The digest grows extension
segments **only** for non-degenerate runs — a single-gateway, no-V2V run
hashes the exact canonical string the single-gateway orchestrator always
produced, which is what keeps ``shards=1, v2v_fraction=0`` bit-compatible
with the pre-topology fleet.

A run writes every count once, into its :class:`FleetLedger`;
:class:`FleetStats`, a parallel worker's transport checksum and the
observer's metric plane are all views of that one record.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from ..errors import StatsError
from ..primitives import sha256


def _require_finite(value: float, where: str) -> float:
    """Reject NaN/inf before it can poison digest material."""
    value = float(value)
    if not math.isfinite(value):
        raise StatsError(
            f"{where} must be finite, got {value!r}; NaN/inf samples"
            " would render into digest material and poison the"
            " reproducibility contract"
        )
    return value


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile on pre-sorted samples (deterministic).

    **Legacy rounding rule, digest-frozen.**  ``round()`` is banker's
    rounding, so an exact ``.5`` rank resolves to the *even* neighbour —
    e.g. the p50 of 4 samples reads rank ``round(1.5) == 2``, but the
    p99 of 151 samples reads rank ``round(148.5) == 148``, the *lower*
    sample.  That bias is a bug for a tail percentile, but ``p50_ms`` and
    ``p95_ms`` computed with this rule are baked into every historical
    :meth:`LatencySummary.row` digest (PR 1 onward), so the rule here
    must never change.  ``p99_ms`` is digest-excluded and uses the
    corrected :func:`_percentile_ceil` instead.
    """
    if not sorted_samples:
        return 0.0
    index = min(
        len(sorted_samples) - 1,
        max(0, round(q * (len(sorted_samples) - 1))),
    )
    return sorted_samples[index]


def _percentile_ceil(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile with round-half-**up** rank resolution.

    ``floor(rank + 0.5)`` picks the upper neighbour on exact ``.5``
    ranks, so a tail percentile can never under-report by one sample the
    way banker's rounding does (see :func:`_percentile`).  Used only for
    the digest-excluded ``p99_ms``; changing it cannot perturb any
    historical digest because :meth:`LatencySummary.row` never renders
    it.
    """
    if not sorted_samples:
        return 0.0
    rank = q * (len(sorted_samples) - 1)
    index = min(len(sorted_samples) - 1, int(rank + 0.5))
    return sorted_samples[index]


@dataclass(frozen=True)
class LatencySummary:
    """Summary of a latency sample set (milliseconds).

    ``p99_ms`` arrived with the topology benchmarks; it is deliberately
    excluded from :meth:`row` (and therefore from every digest built on
    it) so its addition cannot perturb historical digests.
    """

    count: int
    min_ms: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    max_ms: float
    p99_ms: float = 0.0

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencySummary":
        """Summarize raw samples; all-zero summary for an empty set.

        Non-finite samples raise :class:`~repro.errors.StatsError`: a
        NaN would even corrupt the *sort* the percentile ranks rely on,
        and both NaN and inf would render into digest material.
        """
        if not samples:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for sample in samples:
            _require_finite(sample, "latency samples")
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            min_ms=ordered[0],
            mean_ms=sum(ordered) / len(ordered),
            p50_ms=_percentile(ordered, 0.50),
            p95_ms=_percentile(ordered, 0.95),
            max_ms=ordered[-1],
            p99_ms=_percentile_ceil(ordered, 0.99),
        )

    def row(self) -> str:
        """One-line rendering used by reports (and digest material)."""
        return (
            f"n={self.count} min={self.min_ms:.3f} mean={self.mean_ms:.3f}"
            f" p50={self.p50_ms:.3f} p95={self.p95_ms:.3f}"
            f" max={self.max_ms:.3f} ms"
        )

    def as_dict(self) -> dict:
        """JSON-ready mapping (all fields, including ``p99_ms``)."""
        return {
            "count": self.count,
            "min_ms": self.min_ms,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencySummary":
        """Rebuild a summary from its :meth:`as_dict` mapping.

        Accepts pre-topology serialized summaries too: ``p99_ms`` only
        arrived with the topology benchmarks, so dicts written before
        then lack the key and default to ``0.0`` — the same value the
        field's dataclass default gives a freshly built summary.

        Non-finite values raise :class:`~repro.errors.StatsError` (a
        hand-edited or corrupted benchmark record must fail loudly, not
        hash ``nan`` into a digest).
        """
        return cls(
            count=data["count"],
            min_ms=_require_finite(data["min_ms"], "min_ms"),
            mean_ms=_require_finite(data["mean_ms"], "mean_ms"),
            p50_ms=_require_finite(data["p50_ms"], "p50_ms"),
            p95_ms=_require_finite(data["p95_ms"], "p95_ms"),
            max_ms=_require_finite(data["max_ms"], "max_ms"),
            p99_ms=_require_finite(data.get("p99_ms", 0.0), "p99_ms"),
        )


class StreamingLatency:
    """Constant-state streaming replacement for a raw sample list.

    Holds the sample **multiset** as a ``value -> count`` mapping instead
    of materializing one Python float object per sample.  Memory is
    bounded by the number of *distinct* sample values — which the
    discrete cost model quantizes heavily (thousands of vehicles doing
    identical priced work produce identical latencies) — not by the
    sample count, and :meth:`summary` reproduces
    :meth:`LatencySummary.from_samples` **bit-for-bit** on every
    digest-frozen field:

    * ``min``/``max`` are the smallest/largest distinct value;
    * ``mean`` replays the sequential float addition ``sum(sorted(...))``
      performs — equal values are adjacent after sorting, so repeated
      addition over the sorted distinct values is the *same* float
      operation sequence;
    * ``p50``/``p95`` (and the digest-excluded ``p99``) resolve the
      legacy nearest-rank indices through cumulative counts.

    ``merge`` adds count mappings, which is order-independent and
    associative — the property the process-parallel barrier merge
    relies on (locked by the hypothesis suite).
    """

    __slots__ = ("_counts", "_n")

    def __init__(self) -> None:
        self._counts: dict[float, int] = {}
        self._n = 0

    def add(self, value: float) -> None:
        """Record one sample; NaN/inf raise :class:`~repro.errors.StatsError`."""
        value = _require_finite(value, "latency samples")
        self._counts[value] = self._counts.get(value, 0) + 1
        self._n += 1

    @property
    def count(self) -> int:
        """Samples recorded so far."""
        return self._n

    @property
    def distinct(self) -> int:
        """Distinct sample values held (the memory bound)."""
        return len(self._counts)

    def merge(self, other: "StreamingLatency") -> None:
        """Fold another accumulator in (order-independent, associative)."""
        for value, count in other._counts.items():
            self._counts[value] = self._counts.get(value, 0) + count
        self._n += other._n

    def summary(self) -> "LatencySummary":
        """Freeze into a summary, bit-identical to the materialized path."""
        if not self._n:
            return LatencySummary.from_samples([])
        values = sorted(self._counts)
        total = 0.0
        for value in values:
            for _ in range(self._counts[value]):
                total += value
        return LatencySummary(
            count=self._n,
            min_ms=values[0],
            mean_ms=total / self._n,
            p50_ms=self._value_at(values, self._rank_legacy(0.50)),
            p95_ms=self._value_at(values, self._rank_legacy(0.95)),
            max_ms=values[-1],
            p99_ms=self._value_at(values, self._rank_ceil(0.99)),
        )

    def _rank_legacy(self, q: float) -> int:
        # The digest-frozen banker's-rounding rank of _percentile.
        return min(self._n - 1, max(0, round(q * (self._n - 1))))

    def _rank_ceil(self, q: float) -> int:
        # The round-half-up rank of _percentile_ceil (p99 only).
        return min(self._n - 1, int(q * (self._n - 1) + 0.5))

    def _value_at(self, values: list[float], rank: int) -> float:
        """The ``rank``-th (0-based) order statistic via cumulative counts."""
        seen = 0
        for value in values:
            seen += self._counts[value]
            if rank < seen:
                return value
        return values[-1]  # pragma: no cover - rank is always < n

    def canonical(self) -> str:
        """Canonical rendering for transport checkpointing (repr-exact)."""
        return ";".join(
            f"{value!r}:{self._counts[value]}" for value in sorted(self._counts)
        )


class ExactSum:
    """Exactly-rounded streaming float sum (Shewchuk partials).

    Keeps the running sum as a list of non-overlapping partials whose
    mathematical sum is *exactly* the sum of every input; :attr:`value`
    rounds once via :func:`math.fsum`.  The result equals
    ``math.fsum(inputs)`` regardless of input order, and :meth:`merge`
    (feeding another accumulator's partials in) preserves exactness —
    so per-worker partial sums fold into the same bits the single-worker
    accumulation produces.  Used for the fleet-global vehicle energy
    total, the one digest-feeding float accumulated across shard
    boundaries in interleaved event order.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, value: float) -> None:
        """Fold one term in; NaN/inf raise :class:`~repro.errors.StatsError`."""
        x = _require_finite(value, "sum terms")
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold another accumulator in exactly (order-independent)."""
        for partial in list(other._partials):
            self.add(partial)

    @property
    def value(self) -> float:
        """The correctly-rounded sum of every term added so far."""
        return math.fsum(self._partials)

    def canonical(self) -> str:
        """The exact rational sum (order-independent; all a merge reads)."""
        # Imported here: ``fractions`` pulls in ``decimal``, which an
        # unobserved serial run never needs (peak RSS).
        from fractions import Fraction

        return str(sum(map(Fraction, self._partials), Fraction(0)))


@dataclass(frozen=True)
class ShardStats:
    """One gateway shard's share of a fleet run.

    The churn fields (``epoch``, ``migrations_in``, ``migrations_out``)
    default to the values every pre-churn run had, and :meth:`row` only
    renders them when they moved off those defaults — which is what keeps
    every historical shard digest bit-stable while making any epoch roll
    or migration visible in the digest of a churn run.
    """

    index: int
    name: str
    vehicles_assigned: int
    enrollments: int
    sessions_established: int
    rekeys: int
    handovers_in: int
    failed: bool
    ca_busy_ms: float
    ca_utilisation: float
    ca_batches: int
    ca_max_batch: int
    queue_latency: LatencySummary
    ca_energy_mj: float
    # -- churn extensions (defaults keep legacy digests bit-stable) ----------
    epoch: int = 1
    migrations_in: int = 0
    migrations_out: int = 0

    @property
    def churned(self) -> bool:
        """True when this shard saw an epoch roll or any migration."""
        return (
            self.epoch != 1
            or self.migrations_in > 0
            or self.migrations_out > 0
        )

    def row(self) -> str:
        """One-line rendering used by reports and the shard digest."""
        rendered = (
            f"shard {self.index} ({self.name}){' [FAILED]' if self.failed else ''}:"
            f" {self.vehicles_assigned} assigned, {self.enrollments} enrolled,"
            f" {self.sessions_established} sessions ({self.rekeys} re-keys,"
            f" {self.handovers_in} handovers in),"
            f" busy {self.ca_busy_ms:.3f} ms"
            f" ({self.ca_utilisation * 100.0:.1f} %,"
            f" {self.ca_batches} batches, max {self.ca_max_batch}),"
            f" queue [{self.queue_latency.row()}],"
            f" energy {self.ca_energy_mj:.3f} mJ"
        )
        if self.churned:
            rendered += (
                f", epoch {self.epoch},"
                f" migrations +{self.migrations_in}/-{self.migrations_out}"
            )
        return rendered

    def digest(self) -> str:
        """Stable hash of this shard's aggregate numbers."""
        return sha256(self.row().encode()).hex()

    def as_dict(self) -> dict:
        """JSON-ready mapping of this shard's breakdown."""
        return {
            "index": self.index,
            "name": self.name,
            "vehicles_assigned": self.vehicles_assigned,
            "enrollments": self.enrollments,
            "sessions_established": self.sessions_established,
            "rekeys": self.rekeys,
            "handovers_in": self.handovers_in,
            "failed": self.failed,
            "ca_busy_ms": self.ca_busy_ms,
            "ca_utilisation": self.ca_utilisation,
            "ca_batches": self.ca_batches,
            "ca_max_batch": self.ca_max_batch,
            "queue_latency": self.queue_latency.as_dict(),
            "ca_energy_mj": self.ca_energy_mj,
            "epoch": self.epoch,
            "migrations_in": self.migrations_in,
            "migrations_out": self.migrations_out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardStats":
        """Rebuild a shard breakdown from its :meth:`as_dict` mapping."""
        return cls(
            index=data["index"],
            name=data["name"],
            vehicles_assigned=data["vehicles_assigned"],
            enrollments=data["enrollments"],
            sessions_established=data["sessions_established"],
            rekeys=data["rekeys"],
            handovers_in=data["handovers_in"],
            failed=data["failed"],
            ca_busy_ms=data["ca_busy_ms"],
            ca_utilisation=data["ca_utilisation"],
            ca_batches=data["ca_batches"],
            ca_max_batch=data["ca_max_batch"],
            queue_latency=LatencySummary.from_dict(data["queue_latency"]),
            ca_energy_mj=data["ca_energy_mj"],
            epoch=data.get("epoch", 1),
            migrations_in=data.get("migrations_in", 0),
            migrations_out=data.get("migrations_out", 0),
        )


@dataclass(frozen=True)
class InjectionStats:
    """Outcome accounting of one adversarial scenario injection.

    ``attempts`` counts the attack operations the adversary actually ran
    against the live fleet, ``rejected`` how many the defenses threw out
    (sequence/MAC checks, chain-epoch retirement, proof-of-possession
    screening), and ``succeeded`` the forgeries that got through — which
    the scenario benchmarks assert to be zero.
    """

    kind: str
    at_ms: float
    attempts: int
    rejected: int
    succeeded: int

    def row(self) -> str:
        """One-line rendering used by reports and the scenario digest."""
        return (
            f"{self.kind}@{self.at_ms:.3f}ms: attempts={self.attempts}"
            f" rejected={self.rejected} succeeded={self.succeeded}"
        )

    def as_dict(self) -> dict:
        """JSON-ready mapping of this injection's accounting."""
        return {
            "kind": self.kind,
            "at_ms": self.at_ms,
            "attempts": self.attempts,
            "rejected": self.rejected,
            "succeeded": self.succeeded,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InjectionStats":
        """Rebuild the accounting from its :meth:`as_dict` mapping."""
        return cls(
            kind=data["kind"],
            at_ms=data["at_ms"],
            attempts=data["attempts"],
            rejected=data["rejected"],
            succeeded=data["succeeded"],
        )


def merge_shard_stats(shards: "tuple[ShardStats, ...] | list[ShardStats]") -> dict:
    """Cross-shard merge: fold per-shard breakdowns into fleet-level CA totals.

    Counts sum across shards and the max batch is the fleet-wide
    maximum; the float totals (busy time, energy) accumulate via
    :func:`math.fsum` over the shards sorted by their canonical order
    (shard index), so the merge is **order-independent**: float addition
    is not associative, and the plain ``sum`` this used to run could
    drift from the sequential digest under a permuted or parallel merge.
    ``fsum`` is exactly rounded, hence permutation-invariant even before
    the canonical sort (the sort makes the intent explicit and keeps any
    future non-exact reducer honest).  For a single shard this is the
    identity — the degenerate fleet reports exactly its one resource's
    numbers.
    """
    ordered = sorted(shards, key=lambda s: s.index)
    return {
        "vehicles_assigned": sum(s.vehicles_assigned for s in shards),
        "enrollments": sum(s.enrollments for s in shards),
        "sessions_established": sum(s.sessions_established for s in shards),
        "rekeys": sum(s.rekeys for s in shards),
        "handovers_in": sum(s.handovers_in for s in shards),
        "ca_busy_ms": math.fsum(s.ca_busy_ms for s in ordered),
        "ca_batches": sum(s.ca_batches for s in shards),
        "ca_max_batch": max((s.ca_max_batch for s in shards), default=0),
        "ca_energy_mj": math.fsum(s.ca_energy_mj for s in ordered),
        "failed_shards": sum(1 for s in shards if s.failed),
        "migrations_in": sum(s.migrations_in for s in shards),
        "migrations_out": sum(s.migrations_out for s in shards),
        "max_epoch": max((s.epoch for s in shards), default=1),
    }


def _empty_latency() -> LatencySummary:
    return LatencySummary.from_samples([])


@dataclass(frozen=True)
class FleetStats:
    """Aggregate outcome of one :class:`~repro.fleet.FleetOrchestrator` run.

    The pre-topology fields keep their exact meaning (``sessions_established``
    counts vehicle↔gateway establishments; V2V sessions are reported
    separately) so single-gateway digests stay bit-stable.

    Examples:
        Stats are a pure function of the config seed, round-trip through
        ``as_dict``/``from_dict`` losslessly, and :meth:`digest` is the
        reproducibility anchor every benchmark asserts on::

            >>> from repro.fleet import FleetConfig, FleetStats, run_fleet
            >>> stats = run_fleet(FleetConfig(
            ...     n_vehicles=2, seed=b"docs-stats", records_per_vehicle=2,
            ...     max_records=2, arrival_spread_ms=5.0)).stats
            >>> stats.records_sent
            4
            >>> FleetStats.from_dict(stats.as_dict()).digest() == stats.digest()
            True

        The crypto backend never enters the digest (bit-parity
        contract)::

            >>> fast = run_fleet(FleetConfig(
            ...     n_vehicles=2, seed=b"docs-stats", records_per_vehicle=2,
            ...     max_records=2, arrival_spread_ms=5.0,
            ...     backend="accelerated")).stats
            >>> fast.digest() == stats.digest()
            True
    """

    vehicles: int
    enrollments: int
    sessions_established: int
    rekeys: int
    records_sent: int
    duration_ms: float
    ca_busy_ms: float
    ca_utilisation: float
    ca_batches: int
    ca_max_batch: int
    enrollment_latency: LatencySummary
    establishment_latency: LatencySummary
    vehicle_energy_mj: float
    ca_energy_mj: float
    # -- topology extensions (defaults keep legacy construction valid) -------
    per_shard: tuple[ShardStats, ...] = ()
    ca_queue_latency: LatencySummary = field(default_factory=_empty_latency)
    v2v_sessions: int = 0
    v2v_rekeys: int = 0
    v2v_cross_shard: int = 0
    v2v_records_sent: int = 0
    v2v_latency: LatencySummary = field(default_factory=_empty_latency)
    handovers: int = 0
    # -- churn extensions (defaults keep legacy construction valid) ----------
    migrations: int = 0
    rejoins: int = 0
    re_enrollments: int = 0
    migration_latency: LatencySummary = field(default_factory=_empty_latency)
    # -- scenario extensions (defaults keep legacy construction valid) -------
    #: Scenario name (metadata only — never hashed, so the same workload
    #: digests identically whether it ran as a named scenario or not).
    scenario: str = ""
    profile_counts: tuple[tuple[str, int], ...] = ()
    injection_stats: tuple[InjectionStats, ...] = ()
    # -- policy extension (defaults keep legacy construction valid) ----------
    #: Policy bundle name (metadata only — never hashed: the ``default``
    #: bundle reproduces the legacy strategies bit-for-bit, so the same
    #: workload digests identically with the engine on or off, and
    #: alternative bundles are compared by their *behavioral* deltas).
    policy: str = ""

    @property
    def throughput_records_per_s(self) -> float:
        """Application records delivered per simulated second."""
        seconds = self.duration_ms / 1000.0
        # Guard the *computed* denominator: a subnormal duration can
        # underflow to exactly 0.0 even though duration_ms > 0.
        if seconds <= 0:
            return 0.0
        return self.records_sent / seconds

    @property
    def sessions_per_s(self) -> float:
        """Session establishments (incl. re-keys) per simulated second."""
        seconds = self.duration_ms / 1000.0
        if seconds <= 0:
            return 0.0
        return self.sessions_established / seconds

    @property
    def is_topology_run(self) -> bool:
        """True when sharding, V2V, failover or churn shaped this run."""
        return (
            len(self.per_shard) > 1
            or self.v2v_sessions > 0
            or self.handovers > 0
            or self.is_churn_run
        )

    @property
    def is_churn_run(self) -> bool:
        """True when live migration, re-enrollment or a rejoin happened."""
        return (
            self.migrations > 0
            or self.rejoins > 0
            or self.re_enrollments > 0
        )

    @property
    def is_scenario_run(self) -> bool:
        """True when behavior profiles or injections shaped this run.

        A scenario that only swaps the arrival process (no profiles, no
        injections) is deliberately *not* a scenario run for digest
        purposes: its behavior difference is already fully visible in the
        base aggregates, and the legacy uniform scenario must hash
        bit-identically to the pre-scenario orchestrator.
        """
        return bool(self.profile_counts) or bool(self.injection_stats)

    @property
    def attack_attempts(self) -> int:
        """Total adversarial attempts across every injection."""
        return sum(s.attempts for s in self.injection_stats)

    @property
    def attack_rejections(self) -> int:
        """Total rejected adversarial attempts across every injection."""
        return sum(s.rejected for s in self.injection_stats)

    @property
    def attack_successes(self) -> int:
        """Total successful forgeries (zero on every healthy defense)."""
        return sum(s.succeeded for s in self.injection_stats)

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"fleet: {self.vehicles} vehicles, {self.enrollments} enrolled,"
            f" {self.sessions_established} sessions"
            f" ({self.rekeys} re-keys), {self.records_sent} records",
            f"  sim duration        : {self.duration_ms:.3f} ms",
            f"  throughput          : {self.throughput_records_per_s:.2f}"
            f" records/s, {self.sessions_per_s:.2f} sessions/s",
            f"  CA busy             : {self.ca_busy_ms:.3f} ms"
            f" ({self.ca_utilisation * 100.0:.1f} % utilisation,"
            f" {self.ca_batches} issuance batches,"
            f" max batch {self.ca_max_batch})",
            f"  enrollment latency  : {self.enrollment_latency.row()}",
            f"  establish latency   : {self.establishment_latency.row()}",
            f"  energy              : vehicles {self.vehicle_energy_mj:.3f} mJ,"
            f" CA {self.ca_energy_mj:.3f} mJ",
        ]
        if self.ca_queue_latency.count:
            lines.append(
                f"  CA queue latency    : {self.ca_queue_latency.row()}"
            )
        if self.is_topology_run:
            if self.v2v_sessions:
                lines.append(
                    f"  V2V                 : {self.v2v_sessions} sessions"
                    f" ({self.v2v_rekeys} re-keys,"
                    f" {self.v2v_cross_shard} cross-shard),"
                    f" {self.v2v_records_sent} records"
                )
                lines.append(
                    f"  V2V latency         : {self.v2v_latency.row()}"
                )
            if self.handovers:
                lines.append(
                    f"  handovers           : {self.handovers}"
                    " (gateway failover)"
                )
            if self.is_churn_run:
                lines.append(
                    f"  churn               : {self.migrations} migrations,"
                    f" {self.re_enrollments} re-enrollments,"
                    f" {self.rejoins} gateway rejoins"
                )
                if self.migration_latency.count:
                    lines.append(
                        f"  migration latency   :"
                        f" {self.migration_latency.row()}"
                    )
            for shard in self.per_shard:
                lines.append(f"  {shard.row()}")
        if self.scenario:
            lines.append(f"  scenario            : {self.scenario}")
        if self.policy:
            lines.append(f"  policy              : {self.policy}")
        if self.profile_counts:
            rendered = ", ".join(
                f"{name}={count}" for name, count in self.profile_counts
            )
            lines.append(f"  profiles            : {rendered}")
        for injection in self.injection_stats:
            lines.append(f"  injection           : {injection.row()}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready mapping of the whole aggregate (machine-readable
        benchmark output; ``BENCH_*.json`` files are built from this)."""
        return {
            "vehicles": self.vehicles,
            "enrollments": self.enrollments,
            "sessions_established": self.sessions_established,
            "rekeys": self.rekeys,
            "records_sent": self.records_sent,
            "duration_ms": self.duration_ms,
            "throughput_records_per_s": self.throughput_records_per_s,
            "sessions_per_s": self.sessions_per_s,
            "ca_busy_ms": self.ca_busy_ms,
            "ca_utilisation": self.ca_utilisation,
            "ca_batches": self.ca_batches,
            "ca_max_batch": self.ca_max_batch,
            "enrollment_latency": self.enrollment_latency.as_dict(),
            "establishment_latency": self.establishment_latency.as_dict(),
            "ca_queue_latency": self.ca_queue_latency.as_dict(),
            "energy_mj": {
                "vehicles": self.vehicle_energy_mj,
                "ca": self.ca_energy_mj,
            },
            "v2v": {
                "sessions": self.v2v_sessions,
                "rekeys": self.v2v_rekeys,
                "cross_shard": self.v2v_cross_shard,
                "records_sent": self.v2v_records_sent,
                "latency": self.v2v_latency.as_dict(),
            },
            "handovers": self.handovers,
            "churn": {
                "migrations": self.migrations,
                "rejoins": self.rejoins,
                "re_enrollments": self.re_enrollments,
                "migration_latency": self.migration_latency.as_dict(),
            },
            "per_shard": [shard.as_dict() for shard in self.per_shard],
            "scenario": {
                "name": self.scenario,
                "profiles": [
                    [name, count] for name, count in self.profile_counts
                ],
                "injections": [
                    injection.as_dict() for injection in self.injection_stats
                ],
            },
            "policy": self.policy,
            "digest": self.digest(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetStats":
        """Rebuild the aggregate from its :meth:`as_dict` mapping.

        Derived fields (throughputs, the digest) are recomputed, so a
        round-tripped instance compares equal to — and digests identically
        to — the original; the regression-gate tooling relies on this.

        Back-compat: dicts serialized before the topology/churn/scenario
        layers lack their sections entirely (``per_shard``, ``v2v``,
        ``ca_queue_latency``, ``handovers``, ``churn``, ``scenario``).
        Each missing section falls back to the same defaults the
        dataclass gives a freshly built pre-topology instance — the
        ``p99_ms`` precedent in :meth:`LatencySummary.from_dict` — so a
        frozen legacy record still round-trips to its original digest
        instead of KeyErroring.
        """
        churn = data.get("churn", {})
        scenario = data.get("scenario", {})
        v2v = data.get("v2v", {})
        empty_latency = _empty_latency().as_dict()
        return cls(
            vehicles=data["vehicles"],
            enrollments=data["enrollments"],
            sessions_established=data["sessions_established"],
            rekeys=data["rekeys"],
            records_sent=data["records_sent"],
            duration_ms=data["duration_ms"],
            ca_busy_ms=data["ca_busy_ms"],
            ca_utilisation=data["ca_utilisation"],
            ca_batches=data["ca_batches"],
            ca_max_batch=data["ca_max_batch"],
            enrollment_latency=LatencySummary.from_dict(
                data["enrollment_latency"]
            ),
            establishment_latency=LatencySummary.from_dict(
                data["establishment_latency"]
            ),
            vehicle_energy_mj=data["energy_mj"]["vehicles"],
            ca_energy_mj=data["energy_mj"]["ca"],
            per_shard=tuple(
                ShardStats.from_dict(shard)
                for shard in data.get("per_shard", [])
            ),
            ca_queue_latency=LatencySummary.from_dict(
                data.get("ca_queue_latency", empty_latency)
            ),
            v2v_sessions=v2v.get("sessions", 0),
            v2v_rekeys=v2v.get("rekeys", 0),
            v2v_cross_shard=v2v.get("cross_shard", 0),
            v2v_records_sent=v2v.get("records_sent", 0),
            v2v_latency=LatencySummary.from_dict(
                v2v.get("latency", empty_latency)
            ),
            handovers=data.get("handovers", 0),
            migrations=churn.get("migrations", 0),
            rejoins=churn.get("rejoins", 0),
            re_enrollments=churn.get("re_enrollments", 0),
            migration_latency=LatencySummary.from_dict(
                churn["migration_latency"]
            )
            if "migration_latency" in churn
            else _empty_latency(),
            scenario=scenario.get("name", ""),
            profile_counts=tuple(
                (name, count) for name, count in scenario.get("profiles", [])
            ),
            injection_stats=tuple(
                InjectionStats.from_dict(entry)
                for entry in scenario.get("injections", [])
            ),
            policy=data.get("policy", ""),
        )

    def digest(self) -> str:
        """Stable hash of the aggregate numbers (reproducibility checks).

        Floats are rendered with fixed precision so the digest is
        insensitive to representation noise but sensitive to any real
        behavioural change.  The canonical string of a degenerate run
        (one shard, no V2V, no handovers) is byte-identical to the
        pre-topology rendering; sharded/V2V/failover runs append
        extension segments, including every per-shard digest.
        """
        canonical = "|".join(
            [
                f"v={self.vehicles}",
                f"enr={self.enrollments}",
                f"sess={self.sessions_established}",
                f"rekey={self.rekeys}",
                f"rec={self.records_sent}",
                f"dur={self.duration_ms:.6f}",
                f"cabusy={self.ca_busy_ms:.6f}",
                f"cau={self.ca_utilisation:.6f}",
                f"cab={self.ca_batches}",
                f"cam={self.ca_max_batch}",
                f"enl={self.enrollment_latency.row()}",
                f"esl={self.establishment_latency.row()}",
                f"ve={self.vehicle_energy_mj:.6f}",
                f"cae={self.ca_energy_mj:.6f}",
            ]
        )
        if self.is_topology_run:
            extension = [
                f"qlat={self.ca_queue_latency.row()}",
                f"v2v={self.v2v_sessions}",
                f"v2vr={self.v2v_rekeys}",
                f"v2vx={self.v2v_cross_shard}",
                f"v2vrec={self.v2v_records_sent}",
                f"v2vlat={self.v2v_latency.row()}",
                f"ho={self.handovers}",
            ]
            if self.is_churn_run:
                # Churn sub-segment: only churn runs hash it, so every
                # pre-churn topology digest stays bit-identical.  Epoch
                # awareness rides in through the per-shard digests below
                # (ShardStats.row renders epoch/migration counters).
                extension.extend(
                    [
                        f"mig={self.migrations}",
                        f"rej={self.rejoins}",
                        f"reenr={self.re_enrollments}",
                        f"miglat={self.migration_latency.row()}",
                    ]
                )
            extension.extend(
                f"shard{shard.index}={shard.digest()}"
                for shard in self.per_shard
            )
            canonical = canonical + "|" + "|".join(extension)
        if self.is_scenario_run:
            # Scenario sub-segment: only runs shaped by profiles or
            # injections hash it, so every historical digest — including
            # a named scenario that merely swaps the arrival process —
            # stays bit-identical.  The scenario *name* is metadata and
            # deliberately excluded.
            scenario_extension = [
                "profiles="
                + ",".join(
                    f"{name}:{count}" for name, count in self.profile_counts
                ),
                *(
                    f"inj{index}={injection.row()}"
                    for index, injection in enumerate(self.injection_stats)
                ),
            ]
            canonical = canonical + "|" + "|".join(scenario_extension)
        return sha256(canonical.encode()).hex()


#: Per-shard integers of a :class:`ShardTally`: counters, and the
#: ``max_batch`` high watermark.
_SHARD_COUNTS = (
    "vehicles_assigned",
    "enrollments",
    "rekeys",
    "records_sent",
    "record_bytes",
    "handovers_in",
    "migrations_in",
    "migrations_out",
    "batched_requests",
    "failures",
    "rejoins",
    "max_batch",
)

#: Per-shard value→count tables of a :class:`ShardTally`.
_SHARD_TABLES = (
    "enrollment_latency",
    "establishment_latency",
    "queue_wait",
    "batch_service",
)

#: Per-shard metric-plane counters: metric name → tally attribute.
_SHARD_METRICS = (
    ("fleet.enrollments", "first_enrollments"),
    ("fleet.ca_batches", "batches"),
    ("fleet.ca_batched_requests", "batched_requests"),
    ("fleet.sessions", "sessions"),
    ("fleet.rekeys", "rekeys"),
    ("fleet.records_sent", "records_sent"),
    ("fleet.record_bytes", "record_bytes"),
    ("fleet.shard_failures", "failures"),
    ("fleet.rejoins", "rejoins"),
    ("fleet.migrations_out", "migrations_out"),
    ("fleet.migrations_in", "migrations_in"),
)

#: Per-shard metric-plane histograms: metric name → tally table.
_SHARD_HISTOGRAMS = (
    ("fleet.enrollment_latency_ms", "enrollment_latency"),
    ("fleet.ca_batch_service_ms", "batch_service"),
    ("fleet.ca_queue_wait_ms", "queue_wait"),
    ("fleet.establishment_latency_ms", "establishment_latency"),
)

#: Fleet-level integer counters of a :class:`FleetLedger`.
_FLEET_COUNTS = (
    "arrivals",
    "vehicles_done",
    "handover_events",
    "re_enrollments",
    "re_enrollments_coalesced",
    "v2v_rekeys",
    "v2v_cross_shard",
    "v2v_records_sent",
    "api_migrations",
)

#: Outcome columns of one injection row.
_INJECTION_COUNTS = ("attempts", "rejected", "succeeded")


class ShardTally:
    """One gateway shard's accounting inside a :class:`FleetLedger`.

    Integer counters and value→count tables the orchestrator writes as
    the shard works, plus two gauges: ``max_batch`` (the issuance high
    watermark) and ``busy_ms`` (the shard resource's busy time, copied
    when the run ends).  ``ca_energy_mj`` is a sequential float sum on
    purpose — its bits are in the shard digest.  ``enrollments`` counts
    every issuance the shard delivered, re-enrollments included; first
    enrollments, sessions and batches are the sample counts of their
    latency tables, so each of those facts is written once.
    """

    __slots__ = (*_SHARD_COUNTS, *_SHARD_TABLES, "busy_ms", "ca_energy_mj")

    def __init__(self) -> None:
        for name in _SHARD_COUNTS:
            setattr(self, name, 0)
        for name in _SHARD_TABLES:
            setattr(self, name, StreamingLatency())
        self.busy_ms = 0.0
        self.ca_energy_mj = 0.0

    @property
    def first_enrollments(self) -> int:
        """Vehicles whose first enrollment completed at this shard."""
        return self.enrollment_latency.count

    @property
    def sessions(self) -> int:
        """Vehicle↔gateway sessions established at this shard."""
        return self.establishment_latency.count

    @property
    def batches(self) -> int:
        """Issuance batches this shard's CA served."""
        return self.batch_service.count

    def canonical(self) -> str:
        """Canonical rendering (repr-exact floats, sorted tables)."""
        counts = [f"{name}:{getattr(self, name)}" for name in _SHARD_COUNTS]
        tables = [
            f"{name}:{getattr(self, name).canonical()}"
            for name in _SHARD_TABLES
        ]
        floats = [f"busy:{self.busy_ms!r}", f"energy:{self.ca_energy_mj!r}"]
        return ";".join(counts + tables + floats)


class FleetLedger:
    """The one accounting record of a fleet run.

    The orchestrator, its shards and the policy engine write each fact
    here exactly once; everything else is a view:

    * :meth:`stats` — the run's :class:`FleetStats` (serial run and
      barrier merge alike);
    * :meth:`canonical` — what a parallel worker's transport checksum
      covers;
    * :meth:`render` — the observer's ``fleet.*``/``policy.*`` metric
      plane, histograms rebuilt exactly from the value→count tables.

    ``shards`` holds one :class:`ShardTally` per shard the ledger
    simulated (all of them in a serial run, a worker's own in a
    partition).  :meth:`merge` is associative and commutative, so worker
    ledgers fold into the serial run's ledger in any order.  Where the
    metric plane and ``FleetStats`` count different facts both are kept
    under their own names: ``handover_events`` counts the handovers
    announced with a failover span event, ``api_migrations`` the
    migrations started through the manual
    :meth:`~repro.fleet.FleetOrchestrator.migrate` API (the ``"api"``
    pseudo-rule, never part of ``decision_counts``).
    """

    __slots__ = (
        *_FLEET_COUNTS,
        "shards",
        "injections",
        "decision_counts",
        "vehicle_energy",
        "migration_latency",
        "v2v_latency",
    )

    def __init__(self, shards=(), injections=()) -> None:
        for name in _FLEET_COUNTS:
            setattr(self, name, 0)
        self.shards: dict[int, ShardTally] = {
            index: ShardTally() for index in shards
        }
        #: Per-injection outcome rows, index-aligned with the schedule.
        self.injections: list[dict] = [
            {"kind": spec.kind, "at_ms": spec.at_ms,
             **dict.fromkeys(_INJECTION_COUNTS, 0)}
            for spec in injections
        ]
        #: ``(point, rule kind) -> fires`` of the policy engine.
        self.decision_counts: Counter = Counter()
        self.vehicle_energy = ExactSum()
        self.migration_latency = StreamingLatency()
        self.v2v_latency = StreamingLatency()

    @property
    def records_sent(self) -> int:
        """Vehicle→gateway application records, over every shard."""
        return sum(tally.records_sent for tally in self.shards.values())

    def merge(self, *others: "FleetLedger") -> "FleetLedger":
        """Fold this ledger and ``others`` into a new one.

        Counters, decision tallies and injection rows add; tables and
        the energy sum merge exactly.  Shard tallies move over whole
        (the result shares them): a shard belongs to exactly one
        operand, and one held by two means the operands are not a
        partition of one run (:class:`~repro.errors.StatsError`).
        """
        merged = FleetLedger()
        merged.injections = [
            {**row, **dict.fromkeys(_INJECTION_COUNTS, 0)}
            for row in self.injections
        ]
        for ledger in (self, *others):
            if _injection_specs(ledger) != _injection_specs(merged):
                raise StatsError(
                    "cannot merge ledgers of different injection"
                    " schedules"
                )
            for index, tally in ledger.shards.items():
                if index in merged.shards:
                    raise StatsError(
                        f"shard {index} is held by two ledgers — the"
                        " operands are not a partition of one run"
                    )
                merged.shards[index] = tally
            for name in _FLEET_COUNTS:
                total = getattr(merged, name) + getattr(ledger, name)
                setattr(merged, name, total)
            for row, other in zip(merged.injections, ledger.injections):
                for key in _INJECTION_COUNTS:
                    row[key] += other[key]
            merged.decision_counts.update(ledger.decision_counts)
            merged.vehicle_energy.merge(ledger.vehicle_energy)
            merged.migration_latency.merge(ledger.migration_latency)
            merged.v2v_latency.merge(ledger.v2v_latency)
        return merged

    def canonical(self) -> str:
        """Canonical rendering, independent of merge order."""
        parts = [f"{name}={getattr(self, name)}" for name in _FLEET_COUNTS]
        parts += [
            f"energy={self.vehicle_energy.canonical()}",
            f"migration={self.migration_latency.canonical()}",
            f"v2v={self.v2v_latency.canonical()}",
            "decisions="
            + ";".join(
                f"{point}/{rule}:{fires}"
                for (point, rule), fires in sorted(
                    self.decision_counts.items()
                )
            ),
            "injections="
            + ";".join(
                f"{row['kind']}@{row['at_ms']!r}:"
                + ":".join(str(row[key]) for key in _INJECTION_COUNTS)
                for row in self.injections
            ),
        ]
        parts += [
            f"shard[{index}]={self.shards[index].canonical()}"
            for index in sorted(self.shards)
        ]
        return "|".join(parts)

    def stats(self, config, scenario, schedule, now: float) -> FleetStats:
        """The run's :class:`FleetStats`, a pure function of the ledger.

        ``now`` is the run's end on the simulated clock (for a parallel
        run, the latest end over the workers): utilisations are computed
        against it.  The ledger must cover every shard of ``config``.
        """
        from .topology import shard_ca_name

        if sorted(self.shards) != list(range(config.shards)):
            raise StatsError(
                f"the ledger covers shards {sorted(self.shards)} of"
                f" {config.shards} — a worker went missing"
            )
        tallies = [self.shards[index] for index in range(config.shards)]
        per_shard = tuple(
            ShardStats(
                index=index,
                name=shard_ca_name(index, config.shards),
                vehicles_assigned=tally.vehicles_assigned,
                enrollments=tally.enrollments,
                sessions_established=tally.sessions,
                rekeys=tally.rekeys,
                handovers_in=tally.handovers_in,
                failed=tally.failures > tally.rejoins,
                ca_busy_ms=tally.busy_ms,
                # Unclamped: a resource over-committed past ``now``
                # shows as > 1.0.
                ca_utilisation=tally.busy_ms / now if now > 0 else 0.0,
                ca_batches=tally.batches,
                ca_max_batch=tally.max_batch,
                queue_latency=tally.queue_wait.summary(),
                ca_energy_mj=tally.ca_energy_mj,
                epoch=1 + tally.rejoins,
                migrations_in=tally.migrations_in,
                migrations_out=tally.migrations_out,
            )
            for index, tally in enumerate(tallies)
        )
        merged = merge_shard_stats(per_shard)

        def fleet_table(name: str) -> StreamingLatency:
            table = StreamingLatency()
            for tally in tallies:
                table.merge(getattr(tally, name))
            return table

        enrollment = fleet_table("enrollment_latency")
        return FleetStats(
            vehicles=config.n_vehicles,
            enrollments=enrollment.count,
            sessions_established=merged["sessions_established"],
            rekeys=merged["rekeys"],
            records_sent=self.records_sent,
            duration_ms=now,
            ca_busy_ms=merged["ca_busy_ms"],
            # Mean per-shard utilisation: summed busy time over the time
            # available across all shard resources.  For one shard this
            # is exactly the resource's own utilisation (single-gateway
            # digest parity); for M shards it stays a 0–1-ish load figure
            # instead of an M-fold inflated one.
            ca_utilisation=(
                merged["ca_busy_ms"] / (now * len(per_shard))
                if now > 0
                else 0.0
            ),
            ca_batches=merged["ca_batches"],
            ca_max_batch=merged["ca_max_batch"],
            enrollment_latency=enrollment.summary(),
            establishment_latency=fleet_table(
                "establishment_latency"
            ).summary(),
            vehicle_energy_mj=self.vehicle_energy.value,
            ca_energy_mj=merged["ca_energy_mj"],
            per_shard=per_shard,
            ca_queue_latency=fleet_table("queue_wait").summary(),
            v2v_sessions=self.v2v_latency.count,
            v2v_rekeys=self.v2v_rekeys,
            v2v_cross_shard=self.v2v_cross_shard,
            v2v_records_sent=self.v2v_records_sent,
            v2v_latency=self.v2v_latency.summary(),
            handovers=merged["handovers_in"],
            migrations=merged["migrations_in"],
            rejoins=sum(tally.rejoins for tally in tallies),
            re_enrollments=self.re_enrollments,
            migration_latency=self.migration_latency.summary(),
            scenario=scenario.name if scenario is not None else "",
            policy=config.policy or "",
            profile_counts=(
                schedule.profile_counts if schedule is not None else ()
            ),
            injection_stats=tuple(
                InjectionStats(**row) for row in self.injections
            ),
        )

    def render(self):
        """The ``fleet.*``/``policy.*`` metric plane as a ``MetricsSnapshot``.

        An instrument appears exactly when it would have been touched
        during the run (a counter with at least one increment, a
        histogram with at least one sample); injection counters appear
        for every scheduled kind, zero or not.  Histograms rebuild
        exactly from the value→count tables
        (:meth:`~repro.obs.metrics.HistogramSnapshot.from_counts`).
        """
        from ..obs.metrics import HistogramSnapshot, MetricsSnapshot

        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}

        def count(name, value, labels=()):
            if value:
                key = (name, labels)
                counters[key] = counters.get(key, 0) + value

        def table(name, samples, labels=()):
            if samples.count:
                histograms[(name, labels)] = HistogramSnapshot.from_counts(
                    samples._counts
                )

        count("fleet.arrivals", self.arrivals)
        count("fleet.vehicles_done", self.vehicles_done)
        count("fleet.handovers", self.handover_events)
        count("fleet.migrations", self.migration_latency.count)
        count("fleet.re_enrollments", self.re_enrollments)
        count("fleet.re_enrollments_coalesced", self.re_enrollments_coalesced)
        count("fleet.v2v_sessions", self.v2v_latency.count)
        count("fleet.v2v_cross_shard", self.v2v_cross_shard)
        count("fleet.v2v_records_sent", self.v2v_records_sent)
        table("fleet.migration_latency_ms", self.migration_latency)
        table("fleet.v2v_latency_ms", self.v2v_latency)
        for (point, rule), fires in self.decision_counts.items():
            count(f"policy.{point}", fires, (("rule", rule),))
        count("policy.migrate", self.api_migrations, (("rule", "api"),))
        for row in self.injections:
            for key in _INJECTION_COUNTS:
                name = (f"fleet.injection_{key}", (("kind", row["kind"]),))
                counters[name] = counters.get(name, 0) + row[key]
        for index, tally in self.shards.items():
            labels = (("shard", str(index)),)
            for name, attr in _SHARD_METRICS:
                count(name, getattr(tally, attr), labels)
            for name, attr in _SHARD_HISTOGRAMS:
                table(name, getattr(tally, attr), labels)
            if tally.max_batch:
                gauges[("fleet.ca_max_batch", labels)] = float(tally.max_batch)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )


def _injection_specs(ledger: FleetLedger) -> list:
    return [(row["kind"], row["at_ms"]) for row in ledger.injections]
