"""ECDSA signing and verification (SEC 1 §4.1, nonces per RFC 6979).

Signatures are the authentication backbone of both the paper's STS design
(Algorithms 1 and 2) and the static S-ECDSA baseline.  Verification is
priced as a Strauss–Shamir double multiplication (``u1*G + u2*Q``), the
optimization every embedded ECC library applies.

Trace events: ``ecdsa.sign`` / ``ecdsa.verify`` wrap the scalar
multiplications recorded by the EC layer.

Backend note: every scalar multiplication here (``mul_base`` in signing,
``mul_double``/``mul_double_batch`` in verification) dispatches through
the :mod:`repro.backend` EC seam.  Verification asks the seam only the
predicate ``x(u1*G + u2*Q) mod n == r`` (``x_mod_n=r``), which the
accelerated backend answers with one OpenSSL ECDSA verify instead of
building the point.  Bytes, results and trace events (``ecdsa.verify``,
the hash blocks, one ``mod.inv`` and one ``ec.mul_double``) are
identical on both backends, so the simulated cost is unchanged — nothing
in this module is backend-aware.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import trace
from ..ec import (
    Curve,
    Point,
    inverse_mod,
    mul_base,
    mul_double,
    mul_double_batch,
)
from ..errors import SignatureError
from ..backend import HASH_INFO
from ..primitives import new_hash
from ..primitives.drbg import rfc6979_nonce
from ..utils import bytes_to_int, int_to_bytes


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature ``(r, s)`` over ``curve``."""

    curve: Curve
    r: int
    s: int

    def __post_init__(self) -> None:
        if not (1 <= self.r < self.curve.n and 1 <= self.s < self.curve.n):
            raise SignatureError("signature components out of range")

    def to_bytes(self) -> bytes:
        """Fixed-width ``r || s`` encoding (64 bytes on secp256r1).

        This is the raw encoding the paper's Table II assumes for its
        64-byte ``Sign``/``Resp`` fields (as opposed to ASN.1 DER).
        """
        width = self.curve.scalar_bytes
        return int_to_bytes(self.r, width) + int_to_bytes(self.s, width)

    @classmethod
    def from_bytes(cls, curve: Curve, data: bytes) -> "Signature":
        """Parse a fixed-width ``r || s`` encoding."""
        width = curve.scalar_bytes
        if len(data) != 2 * width:
            raise SignatureError(
                f"signature must be {2 * width} bytes, got {len(data)}"
            )
        return cls(curve, bytes_to_int(data[:width]), bytes_to_int(data[width:]))

    @property
    def wire_size(self) -> int:
        """Size of :meth:`to_bytes` output."""
        return 2 * self.curve.scalar_bytes


def _hash_to_int(message_hash: bytes, n: int) -> int:
    """Convert a hash to an integer per SEC 1 (truncate to order bits)."""
    e = bytes_to_int(message_hash)
    excess = len(message_hash) * 8 - n.bit_length()
    if excess > 0:
        e >>= excess
    return e


def sign(
    curve: Curve,
    private_key: int,
    message: bytes,
    hash_name: str = "sha256",
    extra_entropy: bytes = b"",
) -> Signature:
    """Sign ``message`` with deterministic RFC 6979 nonces.

    Args:
        curve: domain parameters.
        private_key: scalar in ``[1, n-1]``.
        message: the raw message (hashed internally).
        hash_name: digest used both for the message and the nonce HMAC.
        extra_entropy: optional additional nonce entropy (RFC 6979 §3.6),
            used by tests to exercise distinct nonces for one message.
    """
    if not 1 <= private_key < curve.n:
        raise SignatureError("private key out of range")
    if hash_name not in HASH_INFO:
        raise SignatureError(f"unknown hash {hash_name!r}")
    trace.record("ecdsa.sign")
    message_hash = new_hash(hash_name, message).digest()
    e = _hash_to_int(message_hash, curve.n)
    attempt = 0
    while True:
        entropy = extra_entropy + (bytes([attempt]) if attempt else b"")
        k = rfc6979_nonce(private_key, message_hash, curve.n, hash_name, entropy)
        point = mul_base(k, curve)
        r = point.x % curve.n
        if r == 0:
            attempt += 1
            continue
        k_inv = inverse_mod(k, curve.n)
        s = (k_inv * (e + r * private_key)) % curve.n
        if s == 0:
            attempt += 1
            continue
        return Signature(curve, r, s)


def _verify_scalars(
    public_key: Point, message: bytes, signature: Signature, hash_name: str
) -> tuple[int, int] | None:
    """Verification prelude: ``(u1, u2)`` or ``None`` for a sure reject.

    Records ``ecdsa.verify``, the message hash and the ``s`` inversion
    whenever the key and signature curves allow a verification at all.
    """
    curve = public_key.curve
    if public_key.is_infinity or signature.curve.name != curve.name:
        return None
    trace.record("ecdsa.verify")
    message_hash = new_hash(hash_name, message).digest()
    e = _hash_to_int(message_hash, curve.n)
    try:
        s_inv = inverse_mod(signature.s, curve.n)
    except Exception:
        return None
    return (e * s_inv) % curve.n, (signature.r * s_inv) % curve.n


def verify(
    public_key: Point,
    message: bytes,
    signature: Signature,
    hash_name: str = "sha256",
) -> bool:
    """Verify an ECDSA signature; returns True/False (never raises on bad sig)."""
    scalars = _verify_scalars(public_key, message, signature, hash_name)
    if scalars is None:
        return False
    u1, u2 = scalars
    return mul_double(
        u1, public_key.curve.generator, u2, public_key, x_mod_n=signature.r
    )


def verify_batch(
    items,
    hash_name: str = "sha256",
) -> list[bool]:
    """Verify many ECDSA signatures in one backend call.

    Args:
        items: iterable of ``(public_key, message, signature)`` triples;
            all public keys must live on one curve.
        hash_name: digest for every message.

    Each verification still decides its own ``u1*G + u2*Q`` predicate —
    the asymptotic cost is unchanged and one ``ecdsa.verify`` event is
    recorded per item, exactly like calling :func:`verify` in a loop —
    but the terms go to the backend together through
    :func:`~repro.ec.mul_double_batch`, where the reference path shares
    one Montgomery-trick :func:`~repro.ec.batch_inverse` across the
    per-item Jacobian→affine conversions.  This is the CA-side win when a
    whole queue of enrollment-request signatures is authenticated at once.

    Returns a per-item list of booleans (malformed items verify False,
    mirroring :func:`verify`'s never-raises contract).
    """
    items = list(items)
    if not items:
        return []
    if hash_name not in HASH_INFO:
        raise SignatureError(f"unknown hash {hash_name!r}")
    results = [False] * len(items)
    terms = []
    rs = []
    indices = []
    curve_name = items[0][0].curve.name
    for index, (public_key, message, signature) in enumerate(items):
        curve = public_key.curve
        if curve.name != curve_name:
            raise SignatureError(
                "verify_batch requires all public keys on one curve"
            )
        scalars = _verify_scalars(public_key, message, signature, hash_name)
        if scalars is None:
            continue
        u1, u2 = scalars
        terms.append((u1, curve.generator, u2, public_key))
        rs.append(signature.r)
        indices.append(index)
    if terms:
        matches = mul_double_batch(terms, terms[0][3].curve, x_mod_n=rs)
        for index, match in zip(indices, matches):
            results[index] = match
    return results


def verify_strict(
    public_key: Point,
    message: bytes,
    signature: Signature,
    hash_name: str = "sha256",
) -> None:
    """Like :func:`verify` but raises :class:`SignatureError` on failure."""
    if not verify(public_key, message, signature, hash_name):
        raise SignatureError("ECDSA signature verification failed")
