"""Tenant-labelled traffic telemetry.

Publishes the per-tenant shares the metrics-driven abuse detector
(:class:`repro.security.monitor.abuse.ResourceAbuseDetector`) consumes,
closing the ROADMAP loop: noisy-neighbour detection reads the registry
instead of ad-hoc runtime sampling.

Metric families (all labelled by ``tenant``):

* ``traffic_tenant_offered_share`` (gauge) — fraction of total *offered*
  load this cycle. A flooding tenant shows up here even when QoS clamps
  what it actually gets — offered load is the attack signal.
* ``traffic_tenant_bandwidth_share`` (gauge) — fraction of *delivered*
  upstream bytes this cycle (what the tenant actually got).
* ``traffic_tenant_bandwidth_share_hist`` (histogram) — the distribution
  of delivered shares across cycles.
* ``traffic_tenant_downstream_throughput_bps`` (gauge) — delivered
  downstream rate over the last scheduling cycle.
* ``traffic_tenant_downstream_queue_bytes`` (gauge) — the tenant's
  downstream queue depth at the OLT after the cycle's drain (sustained
  depth means the broadcast direction is the bottleneck).

The family names are module constants so consumers (dashboards, tests)
never hand-spell them. The offered-share name is
:data:`repro.common.telemetry.OFFERED_SHARE_GAUGE`, the one definition
the abuse detector reads too, and each family is registered here only:
the fleet driver feeds its fleet-wide shares through a
:class:`TrafficTelemetry` on its own registry.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Tuple

from repro.common import telemetry
from repro.common.telemetry import OFFERED_SHARE_GAUGE

__all__ = [
    "OFFERED_SHARE_GAUGE",
    "BANDWIDTH_SHARE_GAUGE",
    "BANDWIDTH_SHARE_HIST",
    "DOWNSTREAM_THROUGHPUT_GAUGE",
    "DOWNSTREAM_QUEUE_GAUGE",
    "SHARE_BUCKETS",
    "TrafficTelemetry",
]

BANDWIDTH_SHARE_GAUGE = "traffic_tenant_bandwidth_share"
BANDWIDTH_SHARE_HIST = "traffic_tenant_bandwidth_share_hist"
DOWNSTREAM_THROUGHPUT_GAUGE = "traffic_tenant_downstream_throughput_bps"
DOWNSTREAM_QUEUE_GAUGE = "traffic_tenant_downstream_queue_bytes"

# Share-of-node buckets: fine below fair-share levels, coarse above.
SHARE_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)


def _shares(volumes: Mapping[str, int]) -> Iterator[Tuple[str, float]]:
    """Each tenant's fraction of the summed volume (0.0 when it is 0)."""
    total = sum(volumes.values())
    for tenant, nbytes in volumes.items():
        yield tenant, nbytes / total if total else 0.0


class TrafficTelemetry:
    """Registers and feeds the tenant-share metric families.

    Constructed with an explicit registry, or the process-wide one when
    telemetry is enabled; with telemetry globally disabled every method
    is a no-op (same contract as the other instrumented substrates).
    """

    def __init__(self,
                 registry: Optional[telemetry.MetricsRegistry] = None) -> None:
        metrics = registry if registry is not None else telemetry.active_registry()
        self._metrics = metrics
        if metrics is not None:
            self._offered_gauge = metrics.gauge(
                OFFERED_SHARE_GAUGE,
                "Fraction of offered upstream load, per tenant.", ("tenant",))
            self._share_gauge = metrics.gauge(
                BANDWIDTH_SHARE_GAUGE,
                "Fraction of delivered upstream bytes, per tenant.",
                ("tenant",))
            self._share_hist = metrics.histogram(
                BANDWIDTH_SHARE_HIST,
                "Delivered bandwidth share per tenant per DBA cycle.",
                ("tenant",), buckets=SHARE_BUCKETS)
            self._downstream_throughput_gauge = metrics.gauge(
                DOWNSTREAM_THROUGHPUT_GAUGE,
                "Delivered downstream bits/s over the last cycle, "
                "per tenant.", ("tenant",))
            self._downstream_queue_gauge = metrics.gauge(
                DOWNSTREAM_QUEUE_GAUGE,
                "Downstream queue depth at the OLT after the cycle's "
                "drain, per tenant.", ("tenant",))

    @property
    def enabled(self) -> bool:
        return self._metrics is not None

    def record_cycle(self, offered: Mapping[str, int],
                     delivered: Mapping[str, int]) -> None:
        """Update per-tenant share gauges/histograms for one DBA cycle."""
        if self._metrics is None:
            return
        for tenant, share in _shares(offered):
            self._offered_gauge.set(round(share, 6), tenant=tenant)
        for tenant, share in _shares(delivered):
            self._share_gauge.set(round(share, 6), tenant=tenant)
            self._share_hist.observe(share, tenant=tenant)

    def record_downstream_cycle(self, delivered: Mapping[str, int],
                                queue_depths: Mapping[str, int],
                                cycle_s: float) -> None:
        """Update the downstream throughput/queue-depth gauges."""
        if self._metrics is None:
            return
        for tenant, nbytes in delivered.items():
            self._downstream_throughput_gauge.set(
                round(nbytes * 8 / cycle_s, 3), tenant=tenant)
        for tenant, depth in queue_depths.items():
            self._downstream_queue_gauge.set(depth, tenant=tenant)
