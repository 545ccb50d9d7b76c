"""Tests for the cost-model pricing machinery."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import HardwareModelError
from repro.hardware import (
    CostModel,
    EC_RELATIVE_WEIGHTS,
    SYM_RELATIVE_WEIGHTS,
    ec_units,
    sym_units,
)
from repro.hardware import cost as cost_module
from repro.trace import CostTrace


def make_trace(**counts) -> CostTrace:
    t = CostTrace()
    for event, n in counts.items():
        t.record(event.replace("_", "."), n)
    return t


class TestCostModel:
    MODEL = CostModel(scalar_mult_ms=100.0, hash_block_ms=0.5)

    def test_price_of_ec_events(self):
        assert self.MODEL.price_of("ec.mul_point") == 100.0
        assert self.MODEL.price_of("ec.mul_base") == 100.0
        assert self.MODEL.price_of("ec.mul_double") == pytest.approx(108.0)

    def test_price_of_sym_events(self):
        assert self.MODEL.price_of("sha2.block") == 0.5
        assert self.MODEL.price_of("aes.block") == pytest.approx(0.175)

    def test_unknown_event_is_free(self):
        assert self.MODEL.price_of("custom.event") == 0.0

    def test_extra_overrides(self):
        model = CostModel(100.0, 0.5, extra_ms={"custom.event": 3.0, "sha2.block": 1.0})
        assert model.price_of("custom.event") == 3.0
        assert model.price_of("sha2.block") == 1.5  # additive

    def test_price_trace(self):
        t = make_trace(ec_mul__point=2, sha2_block=4)
        t2 = CostTrace()
        t2.record("ec.mul_point", 2)
        t2.record("sha2.block", 4)
        assert self.MODEL.price(t2) == pytest.approx(202.0)

    def test_breakdown_sums_to_price(self):
        t = CostTrace()
        t.record("ec.mul_point", 3)
        t.record("aes.block", 10)
        t.record("mod.inv", 1)
        assert sum(self.MODEL.breakdown(t).values()) == pytest.approx(
            self.MODEL.price(t)
        )

    def test_ec_and_sym_split(self):
        t = CostTrace()
        t.record("ec.mul_point", 1)
        t.record("sha2.block", 2)
        assert self.MODEL.ec_ms(t) == pytest.approx(100.0)
        assert self.MODEL.sym_ms(t) == pytest.approx(1.0)

    def test_validate(self):
        CostModel(1.0, 0.0).validate()
        with pytest.raises(HardwareModelError):
            CostModel(0.0, 0.1).validate()
        with pytest.raises(HardwareModelError):
            CostModel(1.0, -0.1).validate()


def _unmemoised_price(model: CostModel, t: CostTrace) -> float:
    """The summation :meth:`CostModel.price` memoises, done afresh."""
    return sum(count * model.price_of(event) for event, count in t.counts.items())


class TestPriceMemo:
    EVENTS = (
        ("ec.mul_point", 3),
        ("sha2.block", 7),
        ("aes.block", 5),
        ("hmac.call", 2),
        ("mod.inv", 1),
    )

    def _trace(self, events) -> CostTrace:
        t = CostTrace()
        for event, n in events:
            t.record(event, n)
        return t

    def test_insertion_orders_each_price_bit_identically(self):
        model = CostModel(341.588, 0.05, extra_ms={"aes.block": -0.0123})
        forward = self._trace(self.EVENTS)
        backward = self._trace(reversed(self.EVENTS))
        for t in (forward, backward, forward, backward):
            # Bit-identical, not approximately equal: a hit must return
            # the float of this trace's own summation order.
            assert model.price(t) == _unmemoised_price(model, t)
        assert len(model._memo) == 2

    def test_memo_is_per_model(self):
        t = self._trace(self.EVENTS)
        cheap, dear = CostModel(1.0, 0.1), CostModel(2.0, 0.2)
        assert cheap.price(t) == _unmemoised_price(cheap, t)
        assert dear.price(t) == _unmemoised_price(dear, t)
        assert cheap.price(t) != dear.price(t)

    def test_counts_change_invalidates(self):
        model = CostModel(100.0, 0.5)
        t = self._trace(self.EVENTS)
        before = model.price(t)
        t.record("sha2.block")
        assert model.price(t) == before + 0.5

    def test_stays_bounded_past_its_cap(self, monkeypatch):
        limit = 8
        monkeypatch.setattr(cost_module, "_PRICE_MEMO_LIMIT", limit)
        model = CostModel(100.0, 0.5)
        for n in range(1, 3 * limit):
            t = self._trace([("sha2.block", n)])
            assert model.price(t) == _unmemoised_price(model, t)
            assert len(model._memo) <= limit
        assert len(model._memo) == limit
        # The newest shapes are kept, the oldest evicted.
        assert (("sha2.block", 3 * limit - 1),) in model._memo
        assert (("sha2.block", 1),) not in model._memo

    def test_equality_and_repr_ignore_the_memo(self):
        a = CostModel(100.0, 0.5, extra_ms={"x": 1.0})
        b = CostModel(100.0, 0.5, extra_ms={"x": 1.0})
        plain = repr(b)
        a.price(self._trace(self.EVENTS))
        assert a == b
        assert repr(a) == plain
        assert repr(a) == (
            "CostModel(scalar_mult_ms=100.0, hash_block_ms=0.5,"
            " extra_ms={'x': 1.0})"
        )
        assert a != CostModel(100.0, 0.5)
        # The memo is no constructor argument: replace() starts afresh.
        fresh = dataclasses.replace(a, hash_block_ms=0.5)
        assert fresh == a and fresh._memo == {}

    def test_breakdown_and_split_agree_with_price(self):
        model = CostModel(297.245, 0.014, extra_ms={"custom.event": 0.25})
        t = self._trace(self.EVENTS + (("custom.event", 4),))
        for _ in range(2):  # a miss, then a hit
            price = model.price(t)
            assert price == _unmemoised_price(model, t)
            assert sum(model.breakdown(t).values()) == pytest.approx(price)
            extras = 4 * 0.25
            assert model.sym_ms(t) == price - model.ec_ms(t) - extras


class TestUnits:
    def test_ec_units(self):
        t = CostTrace()
        t.record("ec.mul_point", 2)
        t.record("ec.mul_double", 1)
        t.record("sha2.block", 100)  # ignored
        assert ec_units(t) == pytest.approx(2 + 1.08)

    def test_sym_units(self):
        t = CostTrace()
        t.record("sha2.block", 3)
        t.record("aes.block", 2)
        t.record("ec.mul_point", 5)  # ignored
        assert sym_units(t) == pytest.approx(3 + 0.7)

    def test_weights_cover_all_traced_events(self, transcripts):
        # Every event a protocol actually records must be priced by one
        # of the weight tables (or be knowingly free).
        priced = set(EC_RELATIVE_WEIGHTS) | set(SYM_RELATIVE_WEIGHTS)
        for transcript in transcripts.values():
            for party in (transcript.party_a, transcript.party_b):
                for event in party.total_cost().counts:
                    assert event in priced, f"unpriced event {event}"
