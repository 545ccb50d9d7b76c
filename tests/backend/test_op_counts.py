"""Exact host-work counts of the accelerated EC path, and its k*P memo.

Wall-clock is noisy; the number of OpenSSL calls a run makes is not.
These tests run a small storm-shaped fleet (the shape of the scale
bench: 4 shards, streaming, two records per vehicle) on a fresh
accelerated backend with a counting shim over the ``cryptography`` EC
module, and pin how many ``derive_private_key`` / ``exchange`` / ECDSA
verify calls and pure-Python ``sqrt_mod`` calls it takes.  A change that
makes the crypto path compute more than its callers read fails here
with a count, not a timing.

Per vehicle the pinned run needs one full ``k*P`` (its own key
reconstruction: two ECDH evaluations — the gateway's second
reconstruction of the same key is a memo hit), two x-only ECDH
premasters (one evaluation each) and two OpenSSL verifies.  Setting up
the four shards reconstructs eight certificate keys (sixteen
evaluations) that every later use finds in the memo.  Compressed points
decode through OpenSSL, so ``sqrt_mod`` is never called.

A records-shaped fleet (one long session per vehicle on one shard) pins
the record path the same way: it counts ``cryptography`` ``Cipher``
constructions.  Each session half builds one cipher, and each
establishment builds four more for the two encrypted STS responses
(sealed by one side, opened by the other); records build none, so the
count does not grow with the records a session carries.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.backend import (
    accelerated,
    ec_accelerated,
    register_backend,
    unregister_backend,
    use_backend,
)
from repro.backend.accelerated import AcceleratedBackend
from repro.backend.ec_accelerated import AcceleratedEc
from repro.ec import SECP256R1, Point, encoding, mul_base
from repro.ec.scalarmult import _mul_wnaf_untraced
from repro.fleet import FleetConfig, run_fleet
from repro.protocols import session

pytestmark = pytest.mark.skipif(
    not ec_accelerated.OPENSSL_EC, reason="needs cryptography's EC module"
)

VEHICLES = 24

#: The scale bench's storm shape (``bench_fleet_scale.scale_config``) at
#: 24 vehicles.
STORM = FleetConfig(
    n_vehicles=VEHICLES,
    seed=b"bench-fleet-scale",
    records_per_vehicle=2,
    max_records=4,
    send_interval_ms=20.0,
    arrival_spread_ms=200.0,
    shards=4,
    stream=True,
)
STORM_DIGEST = (
    "fd000cd0e1d0db6cd7827fb742ae37383ba2312b4b2b466f48266deb2aac0b90"
)


class _CountingEc:
    """Stands in for ``cryptography``'s ``ec`` module, counting calls."""

    def __init__(self, real, counts):
        self._real = real
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._real, name)

    def derive_private_key(self, value, curve):
        self._counts["derive_private_key"] += 1
        return _CountingPrivateKey(
            self._real.derive_private_key(value, curve), self._counts
        )

    def ECDSA(self, algorithm):  # noqa: N802 - mirrors cryptography's name
        self._counts["verify"] += 1
        return self._real.ECDSA(algorithm)


class _CountingPrivateKey:
    def __init__(self, key, counts):
        self._key = key
        self._counts = counts

    def exchange(self, algorithm, peer):
        self._counts["exchange"] += 1
        return self._key.exchange(algorithm, peer)

    def public_key(self):
        return self._key.public_key()


@pytest.fixture(scope="module")
def storm_counts():
    """OpenSSL and ``sqrt_mod`` calls of one storm run, plus its digest."""
    counts = collections.Counter()
    real_ec, real_sqrt = ec_accelerated._x_ec, encoding.sqrt_mod

    def counting_sqrt(a, p):
        counts["sqrt_mod"] += 1
        return real_sqrt(a, p)

    # A freshly registered backend: its memo and key caches start empty,
    # so the counts do not depend on what ran earlier in the process.
    register_backend("op-count", AcceleratedBackend)
    ec_accelerated._x_ec = _CountingEc(real_ec, counts)
    encoding.sqrt_mod = counting_sqrt
    try:
        with use_backend("op-count"):
            digest = run_fleet(STORM).stats.digest()
    finally:
        ec_accelerated._x_ec, encoding.sqrt_mod = real_ec, real_sqrt
        unregister_backend("op-count")
    return counts, digest


class TestStormOpCounts:
    def test_digest_is_the_reference_digest(self, storm_counts):
        # The reference backend's digest of STORM: the shim and the
        # fresh backend change host work only.
        _, digest = storm_counts
        assert digest == STORM_DIGEST

    def test_exact_openssl_counts(self, storm_counts):
        counts, _ = storm_counts
        # Per-vehicle share + one-off shard set-up (measured at 24 and
        # 48 vehicles: the counts grow by exactly the per-vehicle share).
        assert dict(counts) == {
            "derive_private_key": 15 * VEHICLES + 47,
            "exchange": 4 * VEHICLES + 16,
            "verify": 2 * VEHICLES,
        }

    def test_no_pure_python_square_roots(self, storm_counts):
        counts, _ = storm_counts
        assert counts["sqrt_mod"] == 0


def _point(k):
    return mul_base(k, SECP256R1)


class TestProductMemo:
    def test_hit_equals_a_fresh_computation(self):
        engine = AcceleratedEc()
        point, k = _point(0xA11CE), 0xB0B
        first = engine.mul(SECP256R1, k, point)
        again = engine.mul(SECP256R1, k, point)
        assert again is first  # served from the memo
        assert again == AcceleratedEc().mul(SECP256R1, k, point)
        assert again == _mul_wnaf_untraced(k, point)

    def test_stays_bounded(self, monkeypatch):
        limit = 8
        monkeypatch.setattr(ec_accelerated, "_PRODUCT_CACHE_LIMIT", limit)
        engine = AcceleratedEc()
        point = _point(7)
        for k in range(2, 2 + 2 * limit):
            engine.mul(SECP256R1, k, point)
        assert len(engine._products) == limit
        # The oldest inputs were evicted, the newest kept.
        keys = {key[1] for key in engine._products}
        assert keys == set(range(2 + limit, 2 + 2 * limit))

    def test_recently_used_entries_survive_eviction(self, monkeypatch):
        limit = 4
        monkeypatch.setattr(ec_accelerated, "_PRODUCT_CACHE_LIMIT", limit)
        engine = AcceleratedEc()
        point = _point(11)
        hot = engine.mul(SECP256R1, 2, point)
        for k in range(3, 3 + 2 * limit):
            assert engine.mul(SECP256R1, 2, point) is hot
            engine.mul(SECP256R1, k, point)
        assert engine.mul(SECP256R1, 2, point) is hot

    def test_never_serves_a_same_named_aliased_curve(self):
        # Same name and equation, another generator (2G): a point valid
        # on the canonical curve is valid on the alias with the same
        # coordinates, so only the full-value key keeps them apart.
        g2 = _point(2)
        alias = dataclasses.replace(SECP256R1, gx=g2.x, gy=g2.y)
        engine = AcceleratedEc()
        point, k = _point(0x5EED), 0x1234
        canonical = engine.mul(SECP256R1, k, point)
        aliased = engine.mul(alias, k, Point(alias, point.x, point.y))
        assert canonical.curve is SECP256R1
        assert aliased.curve is alias
        assert aliased == _mul_wnaf_untraced(k, Point(alias, point.x, point.y))
        assert len(engine._products) == 2


RECORD_VEHICLES = 6


def _records_run(records: int) -> collections.Counter:
    """``Cipher`` constructions and session halves of one records run."""
    counts = collections.Counter()
    real_cipher, real_init = accelerated._CrCipher, session.SecureSession.__init__

    def counting_cipher(algorithm, mode, *args, **kwargs):
        counts["Cipher"] += 1
        return real_cipher(algorithm, mode, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["session_halves"] += 1
        real_init(self, *args, **kwargs)

    config = FleetConfig(
        n_vehicles=RECORD_VEHICLES,
        seed=b"bench-fleet-scale",
        records_per_vehicle=records,
        max_records=records,  # one session per vehicle, no re-key
        shards=1,
        stream=True,
    )
    register_backend("op-count", AcceleratedBackend)
    accelerated._CrCipher = counting_cipher
    session.SecureSession.__init__ = counting_init
    try:
        with use_backend("op-count"):
            stats = run_fleet(config).stats
    finally:
        accelerated._CrCipher = real_cipher
        session.SecureSession.__init__ = real_init
        unregister_backend("op-count")
    assert stats.records_sent == RECORD_VEHICLES * records
    return counts


@pytest.mark.skipif(
    not accelerated.AES_ACCELERATED, reason="needs cryptography's AES"
)
class TestRecordPathOpCounts:
    @pytest.fixture(scope="class")
    def runs(self):
        return {records: _records_run(records) for records in (2, 8)}

    def test_one_cipher_per_session_half(self, runs):
        for counts in runs.values():
            assert counts["session_halves"] == 2 * RECORD_VEHICLES
            assert counts["Cipher"] == (
                counts["session_halves"] + 4 * RECORD_VEHICLES
            )

    def test_independent_of_records_per_session(self, runs):
        assert runs[2] == runs[8]
