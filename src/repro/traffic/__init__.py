"""The traffic plane: per-tenant load over the PON upstream (T8 made real).

Before this package the reproduction's attacks ran against an idle
network; now tenant workloads actually contend on the shared GPON
upstream, so "monopolizing resources" (T8) and its mitigations —
admission control, DBA fairness, metrics-driven abuse detection — are
measurable rather than asserted.

* :mod:`repro.traffic.profiles` — deterministic workload shapes (steady,
  bursty, diurnal, hostile flood) on the simulation clock;
* :mod:`repro.traffic.dba` — the GPON dynamic-bandwidth-allocation grant
  loop: strict priority + weighted fair sharing across T-CONTs;
* :mod:`repro.traffic.qos` — per-tenant token buckets, bounded admission
  queues, drops and backpressure events (both directions, one enforcer
  per direction);
* :mod:`repro.traffic.downstream` — the OLT-side downstream scheduling
  plane: bounded per-ONU queues drained strict-priority/weighted-fair by
  the same batched allocator the upstream DBA uses;
* :mod:`repro.traffic.telemetry` — tenant-labelled share gauges and
  histograms in the metrics registry;
* :mod:`repro.traffic.loadgen` — the driver producing per-tenant
  throughput/latency/drop reports and Jain fairness numbers (E18);
* :mod:`repro.traffic.fleet` — N OLT shards behind a worker pool with
  fleet-normalized abuse detection (E19/E20).
"""

from repro.traffic.dba import DbaScheduler, TCont
from repro.traffic.downstream import DownstreamQueue, DownstreamScheduler
from repro.traffic.fleet import (
    FleetReport, ParallelFleetDriver, fleet_tenant_specs, run_fleet_parallel,
)
from repro.traffic.loadgen import (
    LoadGenerator, TenantReport, TenantSpec, TrafficReport, jain_index,
    run_genio_traffic, run_traffic_experiment, standard_tenant_specs,
)
from repro.traffic.profiles import (
    BurstyProfile, DiurnalProfile, HostileFloodProfile, Request,
    RequestBatch, SteadyProfile, WorkloadProfile, make_profile,
)
from repro.traffic.qos import QosEnforcer, TenantPolicy, TokenBucket
from repro.traffic.telemetry import TrafficTelemetry

__all__ = [
    "BurstyProfile",
    "DbaScheduler",
    "DiurnalProfile",
    "DownstreamQueue",
    "DownstreamScheduler",
    "FleetReport",
    "HostileFloodProfile",
    "LoadGenerator",
    "ParallelFleetDriver",
    "QosEnforcer",
    "Request",
    "RequestBatch",
    "SteadyProfile",
    "TCont",
    "TenantPolicy",
    "TenantReport",
    "TenantSpec",
    "TokenBucket",
    "TrafficReport",
    "TrafficTelemetry",
    "WorkloadProfile",
    "fleet_tenant_specs",
    "jain_index",
    "make_profile",
    "run_fleet_parallel",
    "run_genio_traffic",
    "run_traffic_experiment",
    "standard_tenant_specs",
]
