"""SEC 1 point encoding: octet-string conversions for curve points.

Implements the three SEC 1 §2.3.3/2.3.4 forms:

* uncompressed — ``0x04 || X || Y`` (``2*mlen + 1`` bytes),
* compressed — ``0x02/0x03 || X`` (``mlen + 1`` bytes; the prefix carries
  the parity of Y),
* infinity — the single byte ``0x00``.

The paper's minimal 101-byte certificate encoding relies on compressed
points (33 bytes on secp256r1), so compression must round-trip exactly.
Decompression (the square root that recovers Y) dispatches through the
backend seam (``ec_decompress``): OpenSSL under the accelerated backend,
:func:`~repro.ec.modular.sqrt_mod` otherwise, with the same
:class:`~repro.errors.PointDecodingError` for an X that has no point.
"""

from __future__ import annotations

from ..backend import get_backend
from ..errors import PointDecodingError
from ..utils import bytes_to_int, int_to_bytes
from .curve import Curve
from .modular import NonResidueError, sqrt_mod
from .point import Point

UNCOMPRESSED = 0x04
COMPRESSED_EVEN = 0x02
COMPRESSED_ODD = 0x03
INFINITY = 0x00


def encode_point(point: Point, compressed: bool = True) -> bytes:
    """Encode a point as a SEC 1 octet string."""
    if point.is_infinity:
        return bytes([INFINITY])
    mlen = point.curve.field_bytes
    x_bytes = int_to_bytes(point.x, mlen)
    if compressed:
        prefix = COMPRESSED_ODD if point.y & 1 else COMPRESSED_EVEN
        return bytes([prefix]) + x_bytes
    return bytes([UNCOMPRESSED]) + x_bytes + int_to_bytes(point.y, mlen)


def decode_point(curve: Curve, data: bytes) -> Point:
    """Decode a SEC 1 octet string into a point on ``curve``.

    Raises:
        PointDecodingError: on any malformed input, wrong length, off-curve
            coordinates, or non-residue X for a compressed encoding.
    """
    if not data:
        raise PointDecodingError("empty point encoding")
    mlen = curve.field_bytes
    prefix = data[0]
    if prefix == INFINITY:
        if len(data) != 1:
            raise PointDecodingError("infinity encoding must be exactly 0x00")
        return Point.infinity(curve)
    if prefix == UNCOMPRESSED:
        if len(data) != 1 + 2 * mlen:
            raise PointDecodingError(
                f"uncompressed point must be {1 + 2 * mlen} bytes,"
                f" got {len(data)}"
            )
        x = bytes_to_int(data[1 : 1 + mlen])
        y = bytes_to_int(data[1 + mlen :])
        if not curve.contains(x, y):
            raise PointDecodingError("decoded coordinates are not on curve")
        return Point(curve, x, y)
    if prefix in (COMPRESSED_EVEN, COMPRESSED_ODD):
        if len(data) != 1 + mlen:
            raise PointDecodingError(
                f"compressed point must be {1 + mlen} bytes, got {len(data)}"
            )
        x = bytes_to_int(data[1:])
        if x >= curve.p:
            raise PointDecodingError("compressed X exceeds field modulus")
        return get_backend().ec_decompress(curve, x, prefix == COMPRESSED_ODD)
    raise PointDecodingError(f"unknown point encoding prefix {prefix:#04x}")


def _sqrt_decompress(curve: Curve, x: int, odd: bool) -> Point:
    """Reference decompression: ``y = sqrt(x^3 + ax + b)``, parity ``odd``."""
    try:
        y = sqrt_mod(curve.rhs(x), curve.p)
    except NonResidueError as exc:
        raise PointDecodingError(
            "compressed X has no matching curve point"
        ) from exc
    if (y & 1) != odd:
        y = curve.p - y
    return Point(curve, x, y)


def point_size(curve: Curve, compressed: bool = True) -> int:
    """Wire size in bytes of a non-infinity point encoding."""
    return 1 + curve.field_bytes * (1 if compressed else 2)
