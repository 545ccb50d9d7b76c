"""The digest-tree merge proof across worker counts.

The parallel orchestrator's ``_finalize_obs`` verifies, on every
observed parallel run, that (1) each worker's shipped metric-subtree
root re-hashes from its rendered ledger and (2) the fold of the worker
subtrees equals the tree of the merged ledger's rendering —
merge ≡ recomputation.  These tests drive that proof for
``workers ∈ {1, 2, 4}`` and pin the metric plane bit-identical to the
serial run's.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.fleet import FleetConfig, FleetOrchestrator, run_fleet
from repro.fleet import parallel as parallel_mod
from repro.obs import Observer


def _config(workers: int) -> FleetConfig:
    """A partitionable shape: static shard homes, no V2V, no churn."""
    return FleetConfig(
        n_vehicles=24,
        seed=b"divergence-parallel",
        records_per_vehicle=3,
        max_records=4,
        send_interval_ms=20.0,
        arrival_spread_ms=300.0,
        shards=4,
        workers=workers,
    )


@pytest.fixture(scope="module")
def runs():
    """``{workers: (stats digest, observer)}`` for workers 1, 2 and 4."""
    out = {}
    for workers in (1, 2, 4):
        obs = Observer()
        result = FleetOrchestrator(_config(workers), obs=obs).run()
        out[workers] = (result.stats.digest(), obs)
    return out


class TestMergeProof:
    def test_stats_digest_identical_across_worker_counts(self, runs):
        digests = {digest for digest, _ in runs.values()}
        assert len(digests) == 1

    def test_metric_plane_bit_identical_across_worker_counts(self, runs):
        roots = {
            workers: obs.digest_tree(include=("metrics",)).root_digest
            for workers, (_, obs) in runs.items()
        }
        assert len(set(roots.values())) == 1, roots

    def test_parallel_runs_record_the_proven_root(self, runs):
        # The merge proof ran and stored the recomputed root, which
        # must equal the serial run's metric tree root.
        serial_root = runs[1][1].digest_tree(
            include=("metrics",)
        ).root_digest
        for workers in (2, 4):
            obs = runs[workers][1]
            assert obs.meta.get("tree_root") == serial_root, (
                f"workers={workers} merge proof root mismatch"
            )

    def test_really_ran_parallel(self):
        assert FleetOrchestrator(_config(2))._plan is not None


class TestTamperDetection:
    @pytest.fixture()
    def captured(self, monkeypatch):
        """Run workers=2 once, capturing ``_finalize_obs``'s arguments."""
        seen = {}
        real = parallel_mod._finalize_obs

        def recorder(obs, config, scenario, stats, ledger, snapshots):
            seen.update(
                obs=obs, config=config, scenario=scenario,
                stats=stats, ledger=ledger, snapshots=list(snapshots),
            )
            return real(obs, config, scenario, stats, ledger, snapshots)

        monkeypatch.setattr(parallel_mod, "_finalize_obs", recorder)
        FleetOrchestrator(_config(2), obs=Observer()).run()
        assert seen["snapshots"], "parallel path did not run"
        return seen

    def test_worker_snapshots_ship_subtree_roots(self, captured):
        from repro.obs import DigestTree

        for snap in captured["snapshots"]:
            assert snap.tree_root is not None
            assert (
                DigestTree.from_metrics(snap.ledger.render()).root_digest
                == snap.tree_root
            )

    def test_tampered_snapshot_root_refused(self, captured):
        forged = [
            dataclasses.replace(snap, tree_root="0" * 64)
            for snap in captured["snapshots"]
        ]
        with pytest.raises(SimulationError, match="refusing to merge"):
            parallel_mod._finalize_obs(
                Observer(), captured["config"], captured["scenario"],
                captured["stats"], captured["ledger"], forged,
            )

    def test_honest_replay_passes_and_records_root(self, captured):
        fresh = Observer()
        parallel_mod._finalize_obs(
            fresh, captured["config"], captured["scenario"],
            captured["stats"], captured["ledger"], captured["snapshots"],
        )
        assert fresh.meta["tree_root"]


class TestSerialPath:
    def test_serial_run_fleet_has_no_proof_meta(self):
        # The proof is a parallel-only artifact; serial runs keep their
        # meta clean and get the same root via digest_tree() on demand.
        obs = Observer()
        run_fleet(_config(1), obs=obs)
        assert "tree_root" not in obs.meta
