"""Tests for the unified metrics registry (repro.obs.metrics)."""

import pytest

from repro.core.database import Database
from repro.core.parser import parse_program
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(3)
        counter.value += 2
        assert counter.value == 6

    def test_gauge_set_max(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.set_max(3)
        assert gauge.value == 5
        gauge.set_max(9)
        assert gauge.value == 9

    def test_histogram_summary(self):
        histogram = Histogram("sizes")
        for value in (4, 2, 6):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.min == 2 and histogram.max == 6
        assert histogram.mean == pytest.approx(4.0)

    def test_empty_histogram_mean(self):
        assert Histogram("empty").mean == 0.0


class TestRegistry:
    def test_get_or_create_shares_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")
        with pytest.raises(ValueError):
            registry.histogram("a")

    def test_snapshot_sorted_and_zero_filtered(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a")
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a"] == 0
        assert "a" not in registry.snapshot(zeros=False)
        assert registry.snapshot(zeros=False)["h"]["count"] == 1

    def test_render_table(self):
        registry = MetricsRegistry()
        assert registry.render_table() == "(no metrics recorded)"
        registry.counter("prove.sigma_goals").inc(7)
        registry.histogram("model.model_size").observe(3)
        table = registry.render_table()
        assert "prove.sigma_goals" in table and "7" in table
        assert "n=1" in table

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        # The bound object survives: further increments are visible.
        counter.inc()
        assert registry.snapshot()["c"] == 1

    def test_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(2)
        right.counter("c").inc(3)
        right.gauge("g").set(9)
        left.gauge("g").set(4)
        left.histogram("h").observe(1)
        right.histogram("h").observe(5)
        left.merge(right)
        snap = left.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 9
        assert snap["h"]["count"] == 2 and snap["h"]["max"] == 5.0

    def test_len_and_iter(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert len(registry) == 2
        assert {m.name for m in registry} == {"a", "b"}

    def test_shared_registry_across_engines(self):
        """One registry can serve several engines (the REPL's usage)."""
        registry = MetricsRegistry()
        rulebase = parse_program("p(X) :- q(X).")
        db = Database.from_relations({"q": ["a"]})
        LinearStratifiedProver(rulebase, metrics=registry).ask(db, "p(a)")
        PerfectModelEngine(rulebase, metrics=registry).ask(db, "p(a)")
        snap = registry.snapshot(zeros=False)
        assert any(name.startswith("prove.") for name in snap)
        assert any(name.startswith("model.") for name in snap)
