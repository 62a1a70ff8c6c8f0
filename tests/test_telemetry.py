"""Unit tests for the telemetry layer (metrics, exporter)."""

import pytest

from repro.common.telemetry import (
    DEFAULT_BUCKETS, MetricsRegistry, active_registry,
    default_registry, reset_default_registry, set_telemetry_enabled,
)


@pytest.fixture(autouse=True)
def _fresh_defaults():
    reset_default_registry()
    set_telemetry_enabled(True)
    yield
    reset_default_registry()
    set_telemetry_enabled(True)


class TestCounter:
    def test_unlabeled_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "Jobs run.")
        counter.inc()
        counter.inc(2.5)
        assert counter.total() == 3.5

    def test_labeled_counter_splits_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("frames_total", labelnames=("direction",))
        counter.inc(direction="up")
        counter.inc(3, direction="down")
        assert counter.labels(direction="up").value == 1
        assert counter.labels(direction="down").value == 3
        assert counter.total() == 4

    def test_label_cardinality_tracked(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", labelnames=("topic",))
        for topic in ("a", "b", "c", "a", "a"):
            counter.inc(topic=topic)
        assert counter.cardinality() == 3
        assert sorted(counter.samples) == [("a",), ("b",), ("c",)]

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", labelnames=("tenant",))
        with pytest.raises(ValueError):
            counter.inc(user="mallory")
        with pytest.raises(ValueError):
            counter.inc()   # missing the tenant label

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("n_total").inc(-1)

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.total() == 13


class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        """le is an upper *inclusive* bound, exactly like Prometheus."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        child = hist.labels()
        for value in (0.1, 0.5, 1.0, 1.01, 50.0):
            child.observe(value)
        # raw (non-cumulative) per-bucket counts:
        #   <=0.1 -> one (0.1); <=1.0 -> two (0.5, 1.0);
        #   <=10.0 -> one (1.01); +Inf -> one (50.0)
        assert child.counts == [1, 2, 1, 1]
        assert child.cumulative_counts() == [1, 3, 4, 5]
        assert child.count == 5
        assert child.sum == pytest.approx(52.61)

    def test_infinity_bucket_appended(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1, 2))
        assert hist.buckets[-1] == float("inf")

    def test_default_buckets_sorted_and_capped(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[-1] == float("inf")

    def test_labeled_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("d", labelnames=("step",), buckets=(1,))
        hist.observe(0.5, step="a")
        hist.observe(2.0, step="a")
        hist.observe(0.1, step="b")
        assert hist.labels(step="a").count == 2
        assert hist.labels(step="b").count == 1
        assert hist.total() == 3


class TestRegistry:
    def test_reregistration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("shared_total", labelnames=("k",))
        second = registry.counter("shared_total", labelnames=("k",))
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_label_schema_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("y_total", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("y_total", labelnames=("b",))

    def test_total_of_unknown_metric_is_zero(self):
        assert MetricsRegistry().total("never_registered") == 0.0

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("t",)).inc(t="x")
        snap = registry.snapshot()
        assert snap["c_total"][("x",)] == 1.0


class TestExporter:
    def test_counter_format(self):
        registry = MetricsRegistry()
        counter = registry.counter("bus_events_total", "Events.", ("topic",))
        counter.inc(topic="pon.frame")
        counter.inc(2, topic="host.syscall")
        text = registry.render()
        assert "# HELP bus_events_total Events." in text
        assert "# TYPE bus_events_total counter" in text
        assert 'bus_events_total{topic="pon.frame"} 1' in text
        assert 'bus_events_total{topic="host.syscall"} 2' in text

    def test_histogram_format_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("dur_seconds", "Duration.", buckets=(0.5, 1))
        hist.observe(0.25)
        hist.observe(0.75)
        hist.observe(9.0)
        text = registry.render()
        assert '# TYPE dur_seconds histogram' in text
        assert 'dur_seconds_bucket{le="0.5"} 1' in text
        assert 'dur_seconds_bucket{le="1"} 2' in text
        assert 'dur_seconds_bucket{le="+Inf"} 3' in text
        assert "dur_seconds_sum 10" in text
        assert "dur_seconds_count 3" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", labelnames=("p",)).inc(p='a"b\\c\nd')
        assert r'e_total{p="a\"b\\c\nd"} 1' in registry.render()

    def test_deterministic_ordering(self):
        registry = MetricsRegistry()
        registry.counter("z_total").inc()
        registry.counter("a_total").inc()
        text = registry.render()
        assert text.index("a_total") < text.index("z_total")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""


class TestGlobalDefaults:
    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()

    def test_disable_telemetry_yields_no_registry(self):
        set_telemetry_enabled(False)
        assert active_registry() is None
        set_telemetry_enabled(True)
        assert active_registry() is default_registry()

    def test_bus_built_while_disabled_stays_uninstrumented(self):
        from repro.common.events import EventBus
        set_telemetry_enabled(False)
        bus = EventBus()
        set_telemetry_enabled(True)
        bus.emit("t", "s", 0.0)
        assert default_registry().total("bus_events_total") == 0.0

    def test_bus_feeds_default_registry(self):
        from repro.common.events import EventBus
        bus = EventBus()
        seen = []
        bus.subscribe("t", seen.append)
        bus.subscribe("", seen.append)
        bus.emit("t", "s", 0.0)
        registry = default_registry()
        counter = registry.get("bus_events_total")
        assert counter.labels(topic="t").value == 1
        assert registry.get("bus_deliveries_total").labels(topic="t").value == 2
        assert registry.total("bus_delivery_depth") == 1  # one observation
        assert "bus_history_size" in registry
