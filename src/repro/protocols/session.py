"""Authenticated-encryption session channel over an established key.

Once a KD protocol completes, both stations hold ``SESSION_KEY_SIZE`` bytes
of key material.  :class:`SecureSession` turns that into a bidirectional
encrypt-then-MAC record channel (AES-128-CTR + HMAC-SHA-256), the "Encrypted
Session" of the paper's Fig. 1 and the App-Data traffic of the Fig. 6 CAN
stack.  The security attack simulations decrypt recorded channels with
recovered keys, so this layer must be byte-exact and deterministic.

Record layout::

    seq(4) || direction(1) || ciphertext(len(plaintext)) || tag(16)
"""

from __future__ import annotations

from ..backend import get_backend
from ..errors import AuthenticationError, ProtocolError
from ..primitives import hmac
from ..utils import constant_time_equal, int_to_bytes, xor_bytes
from .wire import SESSION_KEY_SIZE, enc_key, mac_key

HEADER_SIZE = 5
TAG_SIZE = 16
_DIR = {"A": b"\x0a", "B": b"\x0b"}
_ROLE_OF = {byte: role for role, byte in _DIR.items()}


def record_overhead() -> int:
    """Bytes a record adds over its plaintext."""
    return HEADER_SIZE + TAG_SIZE


class SecureSession:
    """One endpoint of an established secure session.

    The AES cipher is built once, from the encryption key, and lives and
    dies with the session object: no cipher or key schedule outlives the
    session, so dropping a session still forgets its keys (the forward
    secrecy the KD protocols pay for).

    Args:
        session_key: the KD protocol output (:data:`SESSION_KEY_SIZE` bytes).
        role: this endpoint's role, ``"A"`` or ``"B"``; the sender role is
            bound into each record's nonce and MAC, preventing reflection.
    """

    def __init__(self, session_key: bytes, role: str) -> None:
        if len(session_key) != SESSION_KEY_SIZE:
            raise ProtocolError(
                f"session key must be {SESSION_KEY_SIZE} bytes,"
                f" got {len(session_key)}"
            )
        if role not in _DIR:
            raise ProtocolError(f"role must be 'A' or 'B', got {role!r}")
        self.role = role
        self._cipher = get_backend().create_cipher(enc_key(session_key))
        self._mac_key = mac_key(session_key)
        self._send_seq = 0
        self._recv_seq: dict[str, int] = {r: 0 for r in _DIR}

    def encrypt(self, plaintext: bytes) -> bytes:
        """Produce the next outbound record."""
        seq = self._send_seq
        self._send_seq += 1
        header = int_to_bytes(seq, 4) + _DIR[self.role]
        ciphertext = _ctr(self._cipher, header, plaintext)
        tag = hmac(self._mac_key, header + ciphertext)[:TAG_SIZE]
        return header + ciphertext + tag

    def decrypt(self, record: bytes) -> bytes:
        """Verify and open an inbound record (enforces sequence order)."""
        plaintext, seq, direction = _open_record(
            self._cipher, self._mac_key, record
        )
        if direction == self.role:
            raise AuthenticationError("record reflected from our own role")
        expected = self._recv_seq[direction]
        if seq != expected:
            raise AuthenticationError(
                f"out-of-order record: got seq {seq}, expected {expected}"
            )
        self._recv_seq[direction] = seq + 1
        return plaintext


def _ctr(cipher, header: bytes, data: bytes) -> bytes:
    """AES-CTR under the record's nonce: direction byte, zero pad, sequence."""
    nonce = header[4:5] + b"\x00" * 11 + header[:4]
    return xor_bytes(data, cipher.ctr_keystream(nonce, len(data)))


def _open_record(cipher, authentication_key: bytes, record: bytes):
    """Verify a record's MAC and direction, then decrypt it with ``cipher``."""
    if len(record) < HEADER_SIZE + TAG_SIZE:
        raise AuthenticationError("record too short")
    header = record[:HEADER_SIZE]
    ciphertext = record[HEADER_SIZE:-TAG_SIZE]
    tag = record[-TAG_SIZE:]
    expected = hmac(authentication_key, header + ciphertext)[:TAG_SIZE]
    if not constant_time_equal(tag, expected):
        raise AuthenticationError("record MAC verification failed")
    direction = _ROLE_OF.get(header[4:5])
    if direction is None:
        raise AuthenticationError("record has invalid direction byte")
    seq = int.from_bytes(header[:4], "big")
    return _ctr(cipher, header, ciphertext), seq, direction


def open_record_with_key(
    encryption_key: bytes, authentication_key: bytes, record: bytes
) -> tuple[bytes, int, str]:
    """Open a record given raw keys (no endpoint state).

    Used by the attack simulations, which model an adversary that
    recovered the keys later; :meth:`SecureSession.decrypt` runs the same
    checks with its session-bound cipher.

    Returns:
        ``(plaintext, sequence, sender_role)``.
    """
    return _open_record(
        get_backend().create_cipher(encryption_key),
        authentication_key,
        record,
    )


def session_pair(session_key: bytes) -> tuple[SecureSession, SecureSession]:
    """Both endpoints of one established session (testing convenience)."""
    return SecureSession(session_key, "A"), SecureSession(session_key, "B")
