"""Accelerated elliptic-curve arithmetic for the ``accelerated`` backend.

Two speed tiers, selected per curve with graceful fallback:

1. **OpenSSL point math** (optional ``cryptography`` package), for the
   named curves whose parameters match a curve OpenSSL also ships:

   * ``k*G`` comes straight from ``ec.derive_private_key(k).public_key()``
     — both affine coordinates, one C call;
   * ``k*P`` for an arbitrary point uses two ECDH evaluations.  ECDH
     only exposes the *x* coordinate of the shared point, so the *y*
     coordinate of ``R = k*P`` is recovered algebraically from
     ``x(k*P)``, ``x((k+1)*P)`` and ``P`` with the Okeya–Sakurai
     y-recovery identity for short-Weierstrass curves::

         y_R = (2b + (a + x_P*x_R)(x_P + x_R) - x_S (x_P - x_R)^2) / (2 y_P)

     where ``S = (k+1)*P = R + P``.  One modular inversion, no square
     root, no sign ambiguity.  ``k in {1, n-1}`` (where ``S`` would
     degenerate or ``x_R == x_P``) short-circuits to ``±P``.
   * ``u*P + v*Q`` decomposes into the two single multiplications above
     plus one untraced affine addition.

   Where the caller reads less than a full point, less is computed:

   * **x-only** ``k*P`` (``ec_mul(..., x_only=True)``, what ECDH reads)
     is one ECDH evaluation with no y-recovery; the one-shot peer key is
     built uncached so ephemeral points cannot evict hot keys;
   * the **ECDSA verify predicate** ``x(u*G + v*Q) mod n == r``
     (``ec_mul_double(..., x_mod_n=r)``) is one OpenSSL ECDSA verify of
     a synthesised signature: ``s' = r/v`` and the prehashed digest
     ``e' = u*s'`` make OpenSSL's two scalars exactly ``u`` and ``v``;
   * **decompression** goes through ``from_encoded_point`` instead of a
     pure-Python square root, raising the same
     :class:`~repro.errors.PointDecodingError` for a non-residue ``x``.

   Full ``k*P`` results are memoised in a bounded LRU keyed on the full
   curve value, ``k`` and the point: a fleet reconstructs the same
   certificate keys many times, and a repeat costs a dict lookup.

   Every result is rebuilt as a :class:`~repro.ec.point.Point`, whose
   constructor re-validates the curve equation — an incorrect C result
   or recovery step fails loudly instead of corrupting a protocol run.

2. **Pure-Python affine-window fallback** for unknown/custom curves or
   when ``cryptography`` is not importable: fixed-base multiplication
   uses a *wider* comb (8 teeth instead of the reference 4 — an eighth
   of the doublings per multiplication, with the 255-entry affine table
   normalized through one shared-Z batch inversion), while arbitrary-
   point and double multiplications fall back to the reference
   wNAF code, which is already the fastest pure-Python schedule here.

Nothing in this module records trace events: the scalar-multiplication
wrappers in :mod:`repro.ec.scalarmult` own the ``ec.mul_*`` accounting,
so trace streams are bit-identical across backends by construction and
the simulated cost model is the same whichever path answers a call.
Byte parity is automatic because affine coordinates of a group element
are unique; ``tests/backend/test_parity_fuzz.py`` locks both down over
edge scalars (``1, 2, n-2, n-1, n, n+1``) and random scalars on every
registered curve.
"""

from __future__ import annotations

try:  # EC offload is optional; the pure-Python fallback covers its absence.
    from cryptography.hazmat.primitives.asymmetric import ec as _x_ec

    # Loading ``ec`` already loads these three modules, so the verify
    # path costs no extra imports.
    from cryptography.exceptions import InvalidSignature as _InvalidSignature
    from cryptography.hazmat.primitives.hashes import SHA512 as _SHA512
    from cryptography.hazmat.primitives.asymmetric.utils import (
        Prehashed as _Prehashed,
        encode_dss_signature as _encode_dss_signature,
    )

    OPENSSL_EC = True
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _x_ec = None
    OPENSSL_EC = False

#: Our SEC/Brainpool curve names -> ``cryptography`` curve class names.
#: Only curves whose *full* parameters match the canonical registry entry
#: are ever offloaded (see :meth:`AcceleratedEc._curve_impl`).
_OPENSSL_CURVE_CLASSES = {
    "secp192r1": "SECP192R1",
    "secp224r1": "SECP224R1",
    "secp256r1": "SECP256R1",
    "secp256k1": "SECP256K1",
    "secp384r1": "SECP384R1",
    "brainpoolP256r1": "BrainpoolP256R1",
    "brainpoolP384r1": "BrainpoolP384R1",
}

#: Comb teeth of the pure-Python fallback (reference uses 4): twice the
#: teeth means half the doublings and half the window additions per
#: multiplication, paid for by a 2^8 - 1 = 255-entry per-curve table.
_FALLBACK_TEETH = 8

#: Bound on cached OpenSSL public-key objects / fallback comb tables, so
#: a long-lived process multiplying many distinct points cannot grow
#: either cache without bound (FIFO eviction, like the wNAF table cache
#: in :mod:`repro.ec.scalarmult`).
_PUB_CACHE_LIMIT = 256
_COMB_CACHE_LIMIT = 16

#: Bound on memoised full ``k*P`` results (≈0.5 kB each).  A fleet
#: reconstructs the same certificate keys again and again: shard
#: intermediates and gateway certificates for every vehicle, and each
#: vehicle's own key twice — on enrollment and again at its gateway's
#: handshake.  An arrival storm enrolls its whole backlog in between
#: (≈1,200 other keys on the 1,200-vehicle storm), so the bound holds a
#: backlog of that size; past it, repeats are simply recomputed.
_PRODUCT_CACHE_LIMIT = 2048


def _bounded_insert(cache: dict, limit: int, key, value) -> None:
    """Insert into a bounded cache, evicting the oldest insertions first."""
    while len(cache) >= limit:
        cache.pop(next(iter(cache)))
    cache[key] = value


class AcceleratedEc:
    """Per-backend EC engine: OpenSSL when it matches, fast comb otherwise."""

    def __init__(self) -> None:
        # Curve -> cryptography curve instance, or None (= fall back).
        self._impls: dict = {}
        # (Curve, x, y) -> cached OpenSSL public-key object.
        self._pub_keys: dict = {}
        # Curve -> (columns, affine table) for the wide fallback comb.
        self._comb_tables: dict = {}
        # (Curve, k, x, y) -> memoised full k*P result.
        self._products: dict = {}

    # -- OpenSSL plumbing ---------------------------------------------------

    def _curve_impl(self, curve):
        """The OpenSSL curve for ``curve``, or ``None`` to fall back.

        A curve is offloaded only when its **full parameters** equal the
        canonical registry entry of the same name (the aliasing
        discipline every EC cache in this codebase follows) *and* a
        probe multiplication reproduces the generator — so an OpenSSL
        build without (say) Brainpool support degrades per curve instead
        of failing.
        """
        try:
            return self._impls[curve]
        except KeyError:
            pass
        impl = None
        if OPENSSL_EC:
            from ..ec.curve import CURVES

            class_name = _OPENSSL_CURVE_CLASSES.get(curve.name)
            if class_name is not None and CURVES.get(curve.name) == curve:
                candidate = getattr(_x_ec, class_name, None)
                if candidate is not None:
                    try:
                        numbers = (
                            _x_ec.derive_private_key(1, candidate())
                            .public_key()
                            .public_numbers()
                        )
                        if (numbers.x, numbers.y) == (curve.gx, curve.gy):
                            impl = candidate()
                    except Exception:
                        impl = None
        self._impls[curve] = impl
        return impl

    def _public_key(self, impl, curve, point):
        """OpenSSL public-key object for an affine point (cached)."""
        key = (curve, point.x, point.y)
        cached = self._pub_keys.get(key)
        if cached is None:
            cached = _x_ec.EllipticCurvePublicNumbers(
                point.x, point.y, impl
            ).public_key()
            _bounded_insert(self._pub_keys, _PUB_CACHE_LIMIT, key, cached)
        return cached

    def _shared_x(self, impl, k: int, public_key) -> int:
        """x coordinate of ``k*Q`` via one ECDH evaluation."""
        private = _x_ec.derive_private_key(k, impl)
        shared = private.exchange(_x_ec.ECDH(), public_key)
        return int.from_bytes(shared, "big")

    # -- backend-facing operations ------------------------------------------

    def mul_base(self, curve, k: int):
        """``k*G`` for ``1 <= k < n``."""
        from ..ec.point import Point, from_jacobian

        impl = self._curve_impl(curve)
        if impl is None:
            return from_jacobian(curve, self._comb_mul_base_jac(curve, k))
        numbers = (
            _x_ec.derive_private_key(k, impl).public_key().public_numbers()
        )
        return Point(curve, numbers.x, numbers.y)

    def mul(self, curve, k: int, point):
        """``k*P`` for ``1 <= k < n`` and non-infinity ``P`` (memoised)."""
        key = (curve, k, point.x, point.y)
        # Least-recently-used order: a hit moves to the back, so the few
        # hot keys outlive the stream of one-off vehicle keys.
        result = self._products.pop(key, None)
        if result is None:
            result = self._mul(curve, k, point)
        _bounded_insert(self._products, _PRODUCT_CACHE_LIMIT, key, result)
        return result

    def _mul(self, curve, k: int, point):
        """Uncached ``k*P``: two ECDH evaluations plus y-recovery."""
        from ..ec.point import Point
        from ..ec.scalarmult import _mul_wnaf_untraced

        impl = self._curve_impl(curve)
        # point.y == 0 would make the recovery denominator vanish; such
        # points cannot exist on the h=1 prime-order curves OpenSSL
        # handles, but the guard keeps the dispatch total.
        if impl is None or point.y == 0:
            return _mul_wnaf_untraced(k, point)
        if k == 1:
            return point
        if k == curve.n - 1:
            return -point
        public_key = self._public_key(impl, curve, point)
        x_r = self._shared_x(impl, k, public_key)
        x_s = self._shared_x(impl, k + 1, public_key)
        p = curve.p
        diff = point.x - x_r
        numerator = (
            2 * curve.b
            + (curve.a + point.x * x_r) * (point.x + x_r)
            - x_s * diff * diff
        ) % p
        y_r = numerator * pow(2 * point.y, -1, p) % p
        return Point(curve, x_r, y_r)

    def mul_x(self, curve, k: int, point):
        """``x(k*P)`` (``None`` for infinity): one ECDH evaluation.

        The peer key is built uncached: x-only callers multiply
        ephemeral points, which must not evict hot keys from the
        public-key cache.
        """
        from ..ec.scalarmult import _mul_wnaf_untraced

        impl = self._curve_impl(curve)
        if impl is None:
            return _mul_wnaf_untraced(k, point).x
        public_key = _x_ec.EllipticCurvePublicNumbers(
            point.x, point.y, impl
        ).public_key()
        return self._shared_x(impl, k, public_key)

    def mul_double(
        self, curve, u: int, p_point, v: int, q_point, x_mod_n=None
    ):
        """``u*P + v*Q``, not both terms degenerate.

        With ``x_mod_n`` returns whether the sum is finite with
        ``x mod n == x_mod_n``.  For the ECDSA shape (``P = G``,
        ``v != 0``, ``0 < x_mod_n < n``) that is one OpenSSL verify.
        """
        from ..ec.point import from_jacobian
        from ..ec.scalarmult import _mul_double_jac, _x_mod_n_matches

        impl = self._curve_impl(curve)
        if (
            x_mod_n is not None
            and impl is not None
            and v
            and 0 < x_mod_n < curve.n
            and not q_point.is_infinity
            and p_point.x == curve.gx
            and p_point.y == curve.gy
        ):
            return self._verify(impl, curve, u, v, q_point, x_mod_n)
        if impl is None:
            jac = _mul_double_jac(u, p_point, v, q_point)
            point = from_jacobian(curve, jac)
        else:
            point = self._term(curve, u, p_point)._add_raw(
                self._term(curve, v, q_point)
            )
        return point if x_mod_n is None else _x_mod_n_matches(point, x_mod_n)

    def _verify(self, impl, curve, u: int, v: int, q_point, r: int) -> bool:
        """``x(u*G + v*Q) mod n == r`` as one OpenSSL ECDSA verify.

        OpenSSL checks ``x(e*w*G + r*w*Q) mod n == r`` with
        ``w = s^-1``.  Choosing ``s = r/v`` and ``e = u*s`` (mod n)
        makes its two scalars exactly ``u`` and ``v``.  ``e`` goes in as
        a prehashed SHA-512-sized digest, left-aligned so OpenSSL's
        truncation to the order's bit length reads it back unchanged.
        """
        n = curve.n
        s = r * pow(v, -1, n) % n
        e = u * s % n
        digest = (e << (512 - n.bit_length())).to_bytes(64, "big")
        try:
            self._public_key(impl, curve, q_point).verify(
                _encode_dss_signature(r, s),
                digest,
                _x_ec.ECDSA(_Prehashed(_SHA512())),
            )
        except _InvalidSignature:
            return False
        return True

    def _term(self, curve, k: int, point):
        """One side of a double multiplication (may be degenerate)."""
        from ..ec.point import Point

        if k == 0 or point.is_infinity:
            return Point.infinity(curve)
        if point.x == curve.gx and point.y == curve.gy:
            return self.mul_base(curve, k)
        return self.mul(curve, k, point)

    def decompress(self, curve, x: int, odd: bool):
        """The point with abscissa ``x < p`` and ``y`` of parity ``odd``."""
        from ..ec.encoding import _sqrt_decompress
        from ..ec.point import Point
        from ..errors import PointDecodingError

        impl = self._curve_impl(curve)
        if impl is None:
            return _sqrt_decompress(curve, x, odd)
        prefix = b"\x03" if odd else b"\x02"
        encoded = prefix + x.to_bytes(curve.field_bytes, "big")
        try:
            numbers = _x_ec.EllipticCurvePublicKey.from_encoded_point(
                impl, encoded
            ).public_numbers()
        except ValueError as exc:
            raise PointDecodingError(
                "compressed X has no matching curve point"
            ) from exc
        return Point(curve, numbers.x, numbers.y)

    def mul_base_batch(self, curve, ks: list) -> list:
        """``[k*G for k in ks]``; zeros map to infinity."""
        from ..ec.point import JAC_INFINITY, Point, normalize_batch

        impl = self._curve_impl(curve)
        if impl is not None:
            # OpenSSL results are already affine — no normalization pass.
            return [
                Point.infinity(curve) if k == 0 else self.mul_base(curve, k)
                for k in ks
            ]
        jacs = [
            JAC_INFINITY if k == 0 else self._comb_mul_base_jac(curve, k)
            for k in ks
        ]
        return normalize_batch(curve, jacs)

    def mul_double_batch(self, curve, terms: list, x_mod_n=None) -> list:
        """Many ``u*P + v*Q`` terms; ``None`` entries are degenerate.

        ``x_mod_n`` (parallel to ``terms``) turns each result into the
        :meth:`mul_double` predicate; degenerate terms give False.
        """
        from ..ec.point import JAC_INFINITY, Point, normalize_batch
        from ..ec.scalarmult import _mul_double_jac, _x_mod_n_matches

        if self._curve_impl(curve) is None:
            jacs = [
                JAC_INFINITY if term is None else _mul_double_jac(*term)
                for term in terms
            ]
            points = normalize_batch(curve, jacs)
            if x_mod_n is None:
                return points
            return [_x_mod_n_matches(p, r) for p, r in zip(points, x_mod_n)]
        # OpenSSL results are already affine — no normalization pass.
        if x_mod_n is None:
            return [
                Point.infinity(curve)
                if term is None
                else self.mul_double(curve, *term)
                for term in terms
            ]
        return [
            term is not None and self.mul_double(curve, *term, x_mod_n=r)
            for term, r in zip(terms, x_mod_n)
        ]

    # -- pure-Python affine-window fallback ----------------------------------

    def _comb_table(self, curve):
        """Wide-comb precomputation for ``curve`` (cached, bounded).

        Same construction as the reference 4-tooth comb
        (:func:`repro.ec.scalarmult._base_table`) with 8 teeth: the
        255 tooth combinations are accumulated in Jacobian coordinates
        and normalized together through one shared batch inversion.
        """
        cached = self._comb_tables.get(curve)
        if cached is not None:
            return cached
        from ..ec.point import (
            JAC_INFINITY,
            jac_add,
            jac_double,
            normalize_batch,
            to_jacobian,
        )

        columns = -(-curve.n.bit_length() // _FALLBACK_TEETH)
        spine = [to_jacobian(curve.generator)]
        for _ in range(_FALLBACK_TEETH - 1):
            jac = spine[-1]
            for _ in range(columns):
                jac = jac_double(curve, jac)
            spine.append(jac)
        combos = []
        for pattern in range(1, 1 << _FALLBACK_TEETH):
            acc = JAC_INFINITY
            for tooth in range(_FALLBACK_TEETH):
                if (pattern >> tooth) & 1:
                    acc = jac_add(curve, acc, spine[tooth])
            combos.append(acc)
        table = (columns, normalize_batch(curve, combos))
        _bounded_insert(self._comb_tables, _COMB_CACHE_LIMIT, curve, table)
        return table

    def _comb_mul_base_jac(self, curve, k: int):
        """Wide-comb ``k*G`` left in Jacobian coordinates (``1 <= k < n``)."""
        from ..ec.point import JAC_INFINITY, jac_add_mixed, jac_double

        columns, table = self._comb_table(curve)
        acc = JAC_INFINITY
        for col in range(columns - 1, -1, -1):
            acc = jac_double(curve, acc)
            pattern = 0
            for tooth in range(_FALLBACK_TEETH):
                if (k >> (tooth * columns + col)) & 1:
                    pattern |= 1 << tooth
            if pattern:
                acc = jac_add_mixed(curve, acc, table[pattern - 1])
        return acc

    def describe(self) -> str:
        """One-line implementation summary for ``describe()`` cells."""
        if OPENSSL_EC:
            return (
                "cryptography (OpenSSL scalar mult; ECDH x-coordinates +"
                " Okeya-Sakurai y-recovery for arbitrary points, memoised;"
                " x-only ECDH, ECDSA verify and decompression in one call;"
                " wide-comb fallback for non-OpenSSL curves)"
            )
        return (
            "pure-Python affine-window fallback (8-tooth comb, shared-Z"
            " batch normalization; cryptography not importable)"
        )
