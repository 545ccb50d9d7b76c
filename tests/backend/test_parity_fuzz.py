"""Hypothesis cross-backend parity fuzz: same bytes, same trace events.

Every property here computes one primitive twice — once under the
``reference`` backend, once under ``accelerated`` — over random keys,
lengths and chunkings, and asserts that **both** the output bytes and
the recorded :mod:`repro.trace` event counts are identical.  This is the
contract that makes backend selection invisible to hardware pricing,
energy accounting and every golden fleet digest.

SHA-2 streaming is fuzzed with random ``update()`` split points and
``copy()`` forks because the accelerated backend counts compressed
blocks analytically per call boundary — exactly the places where an
off-by-one in buffered-byte accounting would hide.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import trace
from repro.backend import use_backend
from repro.primitives import (
    Hmac,
    HmacDrbg,
    cbc_decrypt,
    cbc_encrypt,
    cmac,
    ctr_crypt,
    ecb_decrypt,
    ecb_encrypt,
    hkdf,
    hmac,
    new_hash,
    x963_kdf,
)
from repro.primitives.drbg import rfc6979_nonce

BACKENDS = ("reference", "accelerated")
HASH_NAMES = ("sha224", "sha256", "sha384", "sha512")

aes_keys = st.binary(min_size=16, max_size=16) | st.binary(
    min_size=24, max_size=24
) | st.binary(min_size=32, max_size=32)
messages = st.binary(min_size=0, max_size=400)
hash_names = st.sampled_from(HASH_NAMES)


def run_on(backend: str, fn):
    """Run ``fn`` under ``backend`` inside a fresh trace scope."""
    with use_backend(backend):
        with trace.trace(backend) as t:
            out = fn()
    return out, t.as_dict()


def assert_parity(fn):
    """``fn``'s bytes and trace counts must not depend on the backend."""
    (ref_out, ref_trace) = run_on("reference", fn)
    (acc_out, acc_trace) = run_on("accelerated", fn)
    assert ref_out == acc_out
    assert ref_trace == acc_trace
    return ref_out


class TestSha2Parity:
    @settings(max_examples=40, deadline=None)
    @given(name=hash_names, message=st.binary(max_size=700))
    def test_one_shot_digest(self, name, message):
        from repro.primitives import sha224, sha256, sha384, sha512

        one_shot = {"sha224": sha224, "sha256": sha256,
                    "sha384": sha384, "sha512": sha512}[name]
        assert_parity(lambda: one_shot(message))

    @settings(max_examples=40, deadline=None)
    @given(
        name=hash_names,
        chunks=st.lists(st.binary(max_size=200), max_size=6),
        fork_point=st.integers(min_value=0, max_value=6),
        tail=st.binary(max_size=70),
    )
    def test_streaming_with_splits_copies_and_redigests(
        self, name, chunks, fork_point, tail
    ):
        def scenario():
            h = new_hash(name)
            fork = None
            for index, chunk in enumerate(chunks):
                if index == fork_point:
                    fork = h.copy()
                h.update(chunk)
            first = h.digest()  # digest() must be repeatable ...
            second = h.digest()  # ... and emit final blocks both times
            forked = b""
            if fork is not None:
                forked = fork.update(tail).digest()
            return first + second + forked + h.hexdigest().encode()

        assert_parity(scenario)

    @settings(max_examples=20, deadline=None)
    @given(name=hash_names, size=st.integers(min_value=0, max_value=300))
    def test_block_boundary_lengths(self, name, size):
        # Exercise exact block/padding boundaries around the fuzzed size.
        sizes = {size, 55, 56, 63, 64, 111, 112, 127, 128}

        def scenario():
            return b"".join(
                new_hash(name, b"\xa5" * s).digest() for s in sorted(sizes)
            )

        assert_parity(scenario)


class TestMacParity:
    @settings(max_examples=40, deadline=None)
    @given(
        key=st.binary(min_size=0, max_size=200),
        message=messages,
        name=hash_names,
    )
    def test_hmac_one_shot_including_long_keys(self, key, message, name):
        assert_parity(lambda: hmac(key, message, name))

    @settings(max_examples=25, deadline=None)
    @given(
        key=st.binary(min_size=1, max_size=150),
        chunks=st.lists(st.binary(max_size=120), max_size=5),
        name=hash_names,
    )
    def test_hmac_streaming_matches_one_shot(self, key, chunks, name):
        def scenario():
            mac = Hmac(key, name)
            for chunk in chunks:
                mac.update(chunk)
            streamed = mac.digest()
            assert streamed == hmac(key, b"".join(chunks), name)
            return streamed

        assert_parity(scenario)

    @settings(max_examples=40, deadline=None)
    @given(
        key=aes_keys,
        message=messages,
        tag_length=st.integers(min_value=1, max_value=16),
    )
    def test_cmac(self, key, message, tag_length):
        assert_parity(lambda: cmac(key, message, tag_length))


class TestKdfParity:
    @settings(max_examples=30, deadline=None)
    @given(
        ikm=st.binary(min_size=1, max_size=80),
        salt=st.binary(max_size=80),
        info=st.binary(max_size=40),
        length=st.integers(min_value=1, max_value=150),
        name=hash_names,
    )
    def test_hkdf(self, ikm, salt, info, length, name):
        assert_parity(lambda: hkdf(ikm, salt, info, length, name))

    @settings(max_examples=30, deadline=None)
    @given(
        secret=st.binary(min_size=1, max_size=66),
        shared=st.binary(max_size=40),
        length=st.integers(min_value=1, max_value=150),
        name=hash_names,
    )
    def test_x963(self, secret, shared, length, name):
        assert_parity(lambda: x963_kdf(secret, shared, length, name))


class TestDrbgParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.binary(min_size=1, max_size=48),
        personalization=st.binary(max_size=32),
        additional=st.binary(max_size=32),
        sizes=st.lists(
            st.integers(min_value=0, max_value=120), min_size=1, max_size=4
        ),
        name=hash_names,
    )
    def test_generate_stream_and_scalars(
        self, seed, personalization, additional, sizes, name
    ):
        def scenario():
            drbg = HmacDrbg(seed, personalization, name)
            out = b"".join(drbg.generate(n, additional) for n in sizes)
            drbg.reseed(b"entropy", additional)
            out += drbg.generate(33)
            out += str(drbg.random_scalar(2**255 - 19)).encode()
            return out

        assert_parity(scenario)

    @settings(max_examples=25, deadline=None)
    @given(
        private_key=st.integers(min_value=1, max_value=2**256 - 190),
        message_hash=st.binary(min_size=32, max_size=32),
        extra=st.binary(max_size=16),
        name=hash_names,
    )
    def test_rfc6979_nonces(self, private_key, message_hash, extra, name):
        order = 2**256 - 189

        def scenario():
            nonce = rfc6979_nonce(
                private_key, message_hash, order, name, extra
            )
            assert 1 <= nonce < order
            return str(nonce).encode()

        assert_parity(scenario)


class TestAesParity:
    @settings(max_examples=40, deadline=None)
    @given(
        key=aes_keys,
        n_blocks=st.integers(min_value=1, max_value=8),
        filler=st.binary(min_size=16, max_size=16),
    )
    def test_ecb_roundtrip(self, key, n_blocks, filler):
        plaintext = (filler * n_blocks)[: 16 * n_blocks]

        def scenario():
            ciphertext = ecb_encrypt(key, plaintext)
            assert ecb_decrypt(key, ciphertext) == plaintext
            return ciphertext

        assert_parity(scenario)

    @settings(max_examples=40, deadline=None)
    @given(
        key=aes_keys,
        iv=st.binary(min_size=16, max_size=16),
        message=st.binary(max_size=200),
    )
    def test_cbc_roundtrip_with_padding(self, key, iv, message):
        def scenario():
            ciphertext = cbc_encrypt(key, iv, message)
            assert cbc_decrypt(key, iv, ciphertext) == message
            return ciphertext

        assert_parity(scenario)

    @settings(max_examples=40, deadline=None)
    @given(
        key=aes_keys,
        nonce=st.binary(min_size=16, max_size=16),
        message=st.binary(max_size=200),
    )
    def test_ctr_roundtrip(self, key, nonce, message):
        def scenario():
            ciphertext = ctr_crypt(key, nonce, message)
            assert ctr_crypt(key, nonce, ciphertext) == message
            return ciphertext

        assert_parity(scenario)

    @settings(max_examples=10, deadline=None)
    @given(key=aes_keys, message=st.binary(max_size=80))
    def test_ctr_counter_wraparound(self, key, message):
        # A nonce at the very top of the counter space must wrap mod
        # 2^128 identically in pure Python and OpenSSL.
        nonce = b"\xff" * 16
        assert_parity(lambda: ctr_crypt(key, nonce, message))

    @settings(max_examples=25, deadline=None)
    @given(key=aes_keys, block=st.binary(min_size=16, max_size=16))
    def test_single_block_primitives(self, key, block):
        from repro.backend import get_backend

        def scenario():
            cipher = get_backend().create_cipher(key)
            ciphertext = cipher.encrypt_block(block)
            assert cipher.decrypt_block(ciphertext) == block
            return ciphertext

        assert_parity(scenario)


# -- session-bound cipher parity ---------------------------------------------
#
# A SecureSession builds its cipher once and runs every record's CTR
# keystream through it; on the accelerated backend that is one
# persistent ECB context fed the counter blocks.  The keystream, its
# aes.block count and every record (and every rejection) must not depend
# on the backend.

import pytest  # noqa: E402  (section-local: the cipher tests parametrize)

from repro.backend import get_backend  # noqa: E402
from repro.errors import AuthenticationError  # noqa: E402
from repro.protocols import open_record_with_key, session_pair  # noqa: E402
from repro.protocols.wire import (  # noqa: E402
    derive_session_key,
    enc_key,
    mac_key,
)

CTR_LENGTHS = (0, 1, 15, 16, 17, 31, 32, 33, 255)
CTR_NONCES = {
    "zero": bytes(16),
    "ramp": bytes(range(16)),
    # The low 64 bits roll over: the counter is the whole 128-bit block.
    "carry64": bytes(8) + b"\xff" * 8,
    # The top of the counter space: wraps to zero mod 2^128.
    "wrap": b"\xff" * 16,
}

#: NIST SP 800-38A, F.5.1 (CTR-AES128.Encrypt): four blocks, the counter
#: carries out of its last byte after the first.
NIST_CTR_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_CTR_NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
NIST_CTR_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
NIST_CTR_CIPHERTEXT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)

SESSION_KEY = derive_session_key(b"parity-premaster", b"parity-salt")


class TestCipherParity:
    @pytest.mark.parametrize("length", CTR_LENGTHS)
    @pytest.mark.parametrize("nonce", CTR_NONCES.values(), ids=CTR_NONCES)
    def test_ctr_keystream(self, nonce, length):
        key = bytes(range(16))

        def scenario():
            cipher = get_backend().create_cipher(key)
            stream = cipher.ctr_keystream(nonce, length)
            # The same cipher again: no state may carry between calls.
            assert cipher.ctr_keystream(nonce, length) == stream
            return stream

        results = [run_on(backend, scenario) for backend in BACKENDS]
        assert results[0] == results[1]
        stream, counts = results[0]
        assert len(stream) == length
        assert counts.get("aes.block", 0) == 2 * -(-length // 16)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nist_ctr_vector(self, backend):
        with use_backend(backend):
            cipher = get_backend().create_cipher(NIST_CTR_KEY)
            stream = cipher.ctr_keystream(NIST_CTR_NONCE, 64)
        ciphertext = bytes(x ^ y for x, y in zip(NIST_CTR_PLAINTEXT, stream))
        assert ciphertext == NIST_CTR_CIPHERTEXT

    def test_cipher_construction_records_no_events(self):
        def scenario():
            get_backend().create_cipher(bytes(16))

        for backend in BACKENDS:
            assert run_on(backend, scenario)[1] == {}


def _transcript(plaintexts):
    """Records both ways over one fresh session pair, each opened."""
    a, b = session_pair(SESSION_KEY)
    records = []
    for plaintext in plaintexts:
        for sender, receiver in ((a, b), (b, a)):
            record = sender.encrypt(plaintext)
            assert receiver.decrypt(record) == plaintext
            records.append(record)
    return records


def _outcome(fn):
    """``fn()``'s value, or the type and message of what it raised."""
    try:
        return ("ok", fn())
    except AuthenticationError as exc:
        return ("AuthenticationError", str(exc))


def _forged_direction_record():
    """A correctly MACed record whose direction byte names no role."""
    body = (0).to_bytes(4, "big") + b"\x0c" + b"ciphertext"
    return body + hmac(mac_key(SESSION_KEY), body)[:16]


def _rejection_cases():
    """name -> (record, endpoint that receives it), on the active backend."""
    a, b = session_pair(SESSION_KEY)
    first, second = a.encrypt(b"first"), a.encrypt(b"second")
    tampered = first[:-1] + bytes([first[-1] ^ 1])
    return {
        "tampered-tag": (tampered, b),
        "reflected-role": (first, a),
        "out-of-order": (second, b),
        "short": (first[:20], b),
        "bad-direction": (_forged_direction_record(), b),
    }


class TestSessionParity:
    def test_records_are_byte_identical(self):
        plaintexts = [b"", b"x", b"a" * 15, b"b" * 16, b"c" * 33, bytes(range(200))]
        assert_parity(lambda: _transcript(plaintexts))

    @settings(max_examples=15, deadline=None)
    @given(plaintexts=st.lists(st.binary(max_size=80), max_size=6))
    def test_random_transcripts(self, plaintexts):
        assert_parity(lambda: _transcript(plaintexts))

    @pytest.mark.parametrize(
        "case",
        ["tampered-tag", "reflected-role", "out-of-order", "short", "bad-direction"],
    )
    def test_rejections_match(self, case):
        def through_decrypt():
            record, receiver = _rejection_cases()[case]
            return _outcome(lambda: receiver.decrypt(record))

        def through_raw_open():
            record, _ = _rejection_cases()[case]
            return _outcome(
                lambda: open_record_with_key(
                    enc_key(SESSION_KEY), mac_key(SESSION_KEY), record
                )
            )

        decrypted = assert_parity(through_decrypt)
        opened = assert_parity(through_raw_open)
        assert decrypted[0] == "AuthenticationError"
        stateful = {
            "reflected-role": (b"first", 0, "A"),
            "out-of-order": (b"second", 1, "A"),
        }
        if case in stateful:
            # Role and order are endpoint state: the raw open succeeds
            # and hands back exactly what the session's check rejects.
            assert opened == ("ok", stateful[case])
        else:
            assert opened == decrypted


# -- elliptic-curve parity ---------------------------------------------------
#
# The EC seam promises the same contract as the primitives: identical
# point bytes AND identical ec.mul_* trace counts under both backends.
# Edge scalars straddle every special case of the accelerated paths —
# k == 1 / k == n-1 short-circuits, the k+1 ECDH companion scalar of the
# Okeya-Sakurai y-recovery, and the k % n == 0 degeneracy the *callers*
# must collapse before any backend sees it.

import dataclasses  # noqa: E402

from repro.ec import (  # noqa: E402
    CURVES,
    decode_point,
    encode_point,
    legendre_symbol,
    mul_base,
    mul_double,
    mul_point,
    mul_point_x,
)
from repro.ecdsa import (  # noqa: E402
    Signature,
    shared_secret_bytes,
    sign,
    verify,
    verify_batch,
)
from repro.errors import PointDecodingError  # noqa: E402

#: A curve the accelerated backend cannot hand to OpenSSL (its name is
#: not one OpenSSL knows), so every new path takes its fallback.
NON_OPENSSL = dataclasses.replace(CURVES["secp256r1"], name="custom-p256")
ALL_CURVES = [CURVES[name] for name in sorted(CURVES)] + [NON_OPENSSL]
CURVE_IDS = [curve.name for curve in ALL_CURVES]


def _edge_scalars(curve):
    n = curve.n
    return [1, 2, n - 2, n - 1, n, n + 1]


def _raw_signature(curve, r, s):
    """A Signature that skips the constructor's range check."""
    signature = object.__new__(Signature)
    for field, value in (("curve", curve), ("r", r), ("s", s)):
        object.__setattr__(signature, field, value)
    return signature


def _non_residue_x(curve):
    """The smallest ``x`` whose curve right-hand side is a non-residue."""
    x = 0
    while legendre_symbol(curve.rhs(x), curve.p) != -1:
        x += 1
    return x


def _decode_outcome(curve, data):
    try:
        return encode_point(decode_point(curve, data), compressed=False)
    except PointDecodingError as exc:
        return ("PointDecodingError", str(exc))


class TestEcParity:
    @pytest.mark.parametrize("curve_name", sorted(CURVES))
    def test_edge_scalars_mul_base_and_mul(self, curve_name):
        curve = CURVES[curve_name]
        g = curve.generator

        def scenario():
            out = b""
            for k in _edge_scalars(curve):
                out += encode_point(mul_base(k, curve))
                out += encode_point(mul_point(k, g))
            return out

        assert_parity(scenario)

    @pytest.mark.parametrize("curve_name", sorted(CURVES))
    def test_edge_scalars_on_arbitrary_point(self, curve_name):
        # Arbitrary (non-generator) points take the ECDH + y-recovery
        # path under OpenSSL rather than the derive_private_key one.
        curve = CURVES[curve_name]

        def scenario():
            q = mul_base(0xB0A710AD % curve.n, curve)
            out = b""
            for k in _edge_scalars(curve):
                out += encode_point(mul_point(k, q), compressed=False)
                out += encode_point(mul_double(k, curve.generator, k, q))
            return out

        assert_parity(scenario)

    @settings(max_examples=8, deadline=None)
    @given(
        curve_name=st.sampled_from(sorted(CURVES)),
        seed=st.integers(min_value=1, max_value=2**64),
    )
    def test_random_scalars_fuzz(self, curve_name, seed):
        curve = CURVES[curve_name]
        k = seed * 0x9E3779B97F4A7C15 % curve.n or 1

        def scenario():
            q = mul_point(k, curve.generator)
            return encode_point(q) + encode_point(
                mul_double(k, curve.generator, curve.n - k, q)
            )

        assert_parity(scenario)

    def test_verify_batch_with_edge_private_keys(self):
        curve = CURVES["secp256r1"]
        n = curve.n
        keys = [1, 2, n - 2, n - 1]

        def scenario():
            items = []
            for index, d in enumerate(keys):
                message = b"edge-key %d" % index
                signature = sign(curve, d, message)
                public = mul_base(d, curve)
                assert verify(public, message, signature)
                items.append((public, message, signature))
            # One deliberately corrupted item: parity must hold for the
            # False lane too (it skips the double multiplication).
            bad_sig = Signature(curve, items[0][2].r, (items[0][2].s + 1) % n or 1)
            items.append((items[0][0], items[0][1], bad_sig))
            results = verify_batch(items)
            assert results == [True, True, True, True, False]
            return b"".join(
                sig.to_bytes() for _, _, sig in items
            ) + bytes(results)

        assert_parity(scenario)

    @pytest.mark.parametrize("curve", ALL_CURVES, ids=CURVE_IDS)
    def test_x_only_matches_full_multiplication(self, curve):
        def scenario():
            q = mul_base(0xB0A710AD % curve.n, curve)
            out = []
            for k in [0] + _edge_scalars(curve):
                x = mul_point_x(k, q)
                full = mul_point(k, q)
                assert x == full.x
                out.append(x)
                if 1 <= k < curve.n:
                    assert shared_secret_bytes(k, q) == x.to_bytes(
                        curve.field_bytes, "big"
                    )
            return out

        assert_parity(scenario)

    @settings(max_examples=6, deadline=None)
    @given(
        curve=st.sampled_from(ALL_CURVES),
        xs=st.lists(st.integers(min_value=0), min_size=1, max_size=4),
    )
    def test_decompression_random_x_both_parities(self, curve, xs):
        width = curve.field_bytes

        def scenario():
            out = []
            for x in xs:
                x %= curve.p
                for prefix in (2, 3):
                    data = bytes([prefix]) + x.to_bytes(width, "big")
                    out.append(_decode_outcome(curve, data))
            return out

        assert_parity(scenario)

    @pytest.mark.parametrize("curve", ALL_CURVES, ids=CURVE_IDS)
    def test_decompression_error_lanes(self, curve):
        width = curve.field_bytes
        bad_x = _non_residue_x(curve)

        def scenario():
            out = []
            for x in (0, bad_x, curve.p - 1, curve.p, curve.p + 1):
                for prefix in (2, 3):
                    data = bytes([prefix]) + x.to_bytes(width, "big")
                    out.append(_decode_outcome(curve, data))
            return out

        outcomes = assert_parity(scenario)
        # The non-residue and both x >= p lanes raise on either parity.
        assert all(isinstance(o, tuple) for o in outcomes[2:4] + outcomes[6:])

    @pytest.mark.parametrize("curve", ALL_CURVES, ids=CURVE_IDS)
    def test_verify_lanes(self, curve):
        n = curve.n
        d = 0xC0FFEE % n
        public = mul_base(d, curve)
        other = mul_base(d + 1, curve)
        message = b"verify lanes"
        good = sign(curve, d, message)

        def scenario():
            lanes = [
                (public, message, good),
                (public, message + b"!", good),
                (other, message, good),
            ]
            lanes += [
                (public, message, _raw_signature(curve, r, good.s))
                for r in (0, n, n + 1)
            ]
            lanes += [
                (public, message, _raw_signature(curve, good.r, s))
                for s in (0, n)
            ]
            singles = [verify(*lane) for lane in lanes]
            assert singles == [True] + [False] * (len(lanes) - 1)
            assert verify_batch(lanes) == singles
            # The predicate itself, on x values straddling the range.
            u, v = 0x1234 % n, 0x5678 % n
            x = mul_double(u, curve.generator, v, public).x
            predicates = [
                mul_double(u, curve.generator, v, public, x_mod_n=r)
                for r in (x % n, (x + 1) % n, 0, n, n + 1)
            ]
            assert predicates == [True, False, False, False, False]
            return singles + predicates

        assert_parity(scenario)

    @pytest.mark.parametrize(
        "curve_name, hash_name",
        [
            ("secp256r1", "sha384"),
            ("secp256r1", "sha512"),
            ("secp384r1", "sha256"),
        ],
    )
    def test_verify_digest_truncation(self, curve_name, hash_name):
        curve = CURVES[curve_name]
        d = 0xFACADE % curve.n
        public = mul_base(d, curve)

        def scenario():
            out = []
            for index in range(4):
                message = b"truncate %d" % index
                signature = sign(curve, d, message, hash_name)
                out.append(signature.to_bytes())
                out.append(verify(public, message, signature, hash_name))
                out.append(
                    verify(public, message + b"?", signature, hash_name)
                )
            assert out[1::3] == [True] * 4
            assert out[2::3] == [False] * 4
            return out

        assert_parity(scenario)
