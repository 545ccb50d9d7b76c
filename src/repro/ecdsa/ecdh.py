"""Elliptic-curve Diffie–Hellman shared-secret computation.

Two flavours matching the paper's terminology:

* :func:`static_shared_secret` — the **SKD** primitive
  (``Sk = Prk_a * Puk_b``, paper Section II-A): the secret is tied to the
  certificate key pair, so it stays constant for the whole certificate
  session.  This is what S-ECDSA/SCIANC/PORAMB build on.
* :func:`ephemeral_shared_secret` — the **DKD** primitive
  (``K_PM = X_A * XG_B``, paper Eq. 3): both inputs are fresh per
  communication session, giving perfect forward secrecy.  This is the STS
  premaster computation.

Both reduce to one general-point scalar multiplication; the distinction is
*which* scalars go in, which is exactly the paper's security argument.
The secret is the X coordinate alone, so both compute it through the
x-only :func:`~repro.ec.mul_point_x`: the accelerated backend answers
with a single OpenSSL ECDH evaluation and no Y recovery, while the
recorded ``ec.mul_point`` event — and so the simulated cost — is the
same as for a full multiplication.
"""

from __future__ import annotations

from ..ec import Point, mul_point, mul_point_x
from ..errors import CryptoError
from ..utils import int_to_bytes


def _check_inputs(private_scalar: int, peer_public: Point) -> None:
    if peer_public.is_infinity:
        raise CryptoError("peer public key is the point at infinity")
    if not 1 <= private_scalar < peer_public.curve.n:
        raise CryptoError("ECDH private scalar out of range")


def shared_point(private_scalar: int, peer_public: Point) -> Point:
    """Raw ECDH: ``private * PeerPublic`` with subgroup sanity checks."""
    _check_inputs(private_scalar, peer_public)
    point = mul_point(private_scalar, peer_public)
    if point.is_infinity:
        raise CryptoError("ECDH produced the point at infinity")
    return point


def shared_secret_bytes(private_scalar: int, peer_public: Point) -> bytes:
    """ECDH shared secret as the X coordinate octet string (SEC 1).

    Computes only ``x(private * PeerPublic)`` (:func:`~repro.ec.mul_point_x`),
    which is all SEC 1 §3.3.1 reads; the ``ec.mul_point`` event and the
    error checks are those of :func:`shared_point`.
    """
    _check_inputs(private_scalar, peer_public)
    x = mul_point_x(private_scalar, peer_public)
    if x is None:
        raise CryptoError("ECDH produced the point at infinity")
    return int_to_bytes(x, peer_public.curve.field_bytes)


def static_shared_secret(
    own_private: int, peer_certificate_public: Point
) -> bytes:
    """SKD secret: certificate private key × peer certificate public key."""
    return shared_secret_bytes(own_private, peer_certificate_public)


def ephemeral_shared_secret(
    own_ephemeral_private: int, peer_ephemeral_public: Point
) -> bytes:
    """DKD premaster: fresh scalar × fresh peer point (paper Eq. 3)."""
    return shared_secret_bytes(own_ephemeral_private, peer_ephemeral_public)
