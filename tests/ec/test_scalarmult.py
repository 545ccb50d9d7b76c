"""Tests for the scalar multiplication strategies: agreement + identities."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.ec import (
    SECP192R1,
    SECP256R1,
    Point,
    mul_base,
    mul_double,
    mul_ladder,
    mul_point,
)
from repro.backend import use_backend
from repro.ec.scalarmult import _wnaf
from repro.errors import CurveError
from repro import trace

C = SECP192R1
G = C.generator
scalars = st.integers(1, C.n - 1)


class TestStrategyAgreement:
    @given(scalars)
    @settings(max_examples=25, deadline=None)
    def test_all_strategies_agree(self, k):
        expected = mul_point(k, G)
        assert mul_base(k, C) == expected
        assert mul_ladder(k, G) == expected

    def test_small_scalars_match_repeated_addition(self):
        acc = Point.infinity(C)
        for k in range(1, 20):
            acc = acc + G
            assert mul_point(k, G) == acc
            assert mul_base(k, C) == acc


class TestEdgeScalars:
    def test_zero(self):
        assert mul_point(0, G).is_infinity
        assert mul_base(0, C).is_infinity
        assert mul_ladder(0, G).is_infinity

    def test_one(self):
        assert mul_point(1, G) == G

    def test_order_is_infinity(self):
        assert mul_point(C.n, G).is_infinity
        assert mul_base(C.n, C).is_infinity

    def test_order_minus_one_is_negation(self):
        assert mul_point(C.n - 1, G) == -G

    def test_reduction_mod_order(self):
        assert mul_point(C.n + 5, G) == mul_point(5, G)

    def test_infinity_input(self):
        assert mul_point(7, Point.infinity(C)).is_infinity


class TestAlgebra:
    @given(scalars, scalars)
    @settings(max_examples=20, deadline=None)
    def test_distributivity(self, a, b):
        assert mul_point(a, G) + mul_point(b, G) == mul_point(a + b, G)

    @given(scalars, scalars)
    @settings(max_examples=15, deadline=None)
    def test_composition(self, a, b):
        assert mul_point(a, mul_point(b, G)) == mul_point(a * b % C.n, G)


class TestMulDouble:
    @given(scalars, scalars)
    @settings(max_examples=20, deadline=None)
    def test_matches_separate_mults(self, u, v):
        q = mul_point(7, G)
        expected = mul_point(u, G) + mul_point(v, q)
        assert mul_double(u, G, v, q) == expected

    def test_zero_scalars(self):
        q = mul_point(3, G)
        assert mul_double(0, G, 0, q).is_infinity
        assert mul_double(5, G, 0, q) == mul_point(5, G)
        assert mul_double(0, G, 5, q) == mul_point(5, q)

    def test_cancellation(self):
        # u*G + v*Q with Q = -G and u == v cancels to infinity.
        assert mul_double(9, G, 9, -G).is_infinity

    def test_cross_curve_rejected(self):
        with pytest.raises(CurveError):
            mul_double(1, G, 1, SECP256R1.generator)

    @pytest.mark.parametrize("backend", ["reference", "accelerated"])
    def test_same_named_aliased_curve_rejected(self, backend):
        # Same name and equation, generator 2G: Q's coordinates are valid
        # on both curves, so only a full-value comparison catches it
        # before the backend (where OpenSSL would raise a bare error).
        g2 = mul_point(2, G)
        alias = dataclasses.replace(C, gx=g2.x, gy=g2.y)
        q = mul_point(5, G)
        aliased_q = Point(alias, q.x, q.y)
        with use_backend(backend):
            with pytest.raises(CurveError):
                mul_double(1, G, 1, aliased_q)
            with pytest.raises(CurveError):
                mul_double(1, G, 1, aliased_q, x_mod_n=1)


class TestWnaf:
    @given(st.integers(1, 2**192))
    @settings(max_examples=50)
    def test_wnaf_reconstructs_scalar(self, k):
        digits = _wnaf(k, 4)
        assert sum(d << i for i, d in enumerate(digits)) == k

    @given(st.integers(1, 2**64))
    @settings(max_examples=50)
    def test_wnaf_digits_odd_or_zero(self, k):
        for d in _wnaf(k, 4):
            assert d == 0 or d % 2 == 1
            assert abs(d) < 8  # < 2^(w-1)

    @given(st.integers(1, 2**64))
    @settings(max_examples=50)
    def test_wnaf_nonadjacency(self, k):
        digits = _wnaf(k, 4)
        for i, d in enumerate(digits):
            if d != 0:
                # width-4 NAF: at least 3 zeros follow a non-zero digit
                assert all(x == 0 for x in digits[i + 1 : i + 4])


class TestTraceEvents:
    def test_event_per_strategy(self):
        with trace.trace() as t:
            mul_point(5, G)
            mul_base(5, C)
            mul_ladder(5, G)
            mul_double(5, G, 3, mul_point(11, G))
        assert t["ec.mul_point"] == 3  # mul_point + ladder + inner mul_point
        assert t["ec.mul_base"] == 1
        assert t["ec.mul_double"] == 1

    def test_zero_scalar_records_nothing(self):
        with trace.trace() as t:
            mul_point(0, G)
        assert t.total("ec.") == 0
