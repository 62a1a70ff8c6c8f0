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
  the same flat-array allocator the upstream DBA uses;
* :mod:`repro.traffic.telemetry` — tenant-labelled share gauges and
  histograms in the metrics registry;
* :mod:`repro.traffic.loadgen` — the driver producing per-tenant
  throughput/latency/drop reports and Jain fairness numbers (E18);
* :mod:`repro.traffic.shard` — one self-contained OLT shard, and the
  worker loop that hosts a bucket of them;
* :mod:`repro.traffic.fleet` — N OLT shards behind a worker pool with
  fleet-normalized abuse detection (E19/E20).

The package's names resolve lazily, as in :mod:`repro`.
"""

from importlib import import_module

# Public name -> the module that defines it, imported on first access
# (PEP 562): a spawned fleet worker importing repro.traffic.shard loads
# the traffic layers it runs, never the fleet driver's security imports.
_LAZY = {
    "DbaScheduler": "repro.traffic.dba",
    "TCont": "repro.traffic.dba",
    "DownstreamQueue": "repro.traffic.downstream",
    "DownstreamScheduler": "repro.traffic.downstream",
    "FleetReport": "repro.traffic.fleet",
    "ParallelFleetDriver": "repro.traffic.fleet",
    "fleet_tenant_specs": "repro.traffic.fleet",
    "run_fleet_parallel": "repro.traffic.fleet",
    "LoadGenerator": "repro.traffic.loadgen",
    "TenantReport": "repro.traffic.loadgen",
    "TenantSpec": "repro.traffic.loadgen",
    "TrafficReport": "repro.traffic.loadgen",
    "jain_index": "repro.traffic.loadgen",
    "run_genio_traffic": "repro.traffic.loadgen",
    "run_traffic_experiment": "repro.traffic.loadgen",
    "standard_tenant_specs": "repro.traffic.loadgen",
    "BurstyProfile": "repro.traffic.profiles",
    "DiurnalProfile": "repro.traffic.profiles",
    "HostileFloodProfile": "repro.traffic.profiles",
    "Request": "repro.traffic.profiles",
    "RequestBatch": "repro.traffic.profiles",
    "SteadyProfile": "repro.traffic.profiles",
    "WorkloadProfile": "repro.traffic.profiles",
    "make_profile": "repro.traffic.profiles",
    "QosEnforcer": "repro.traffic.qos",
    "TenantPolicy": "repro.traffic.qos",
    "TokenBucket": "repro.traffic.qos",
    "TrafficTelemetry": "repro.traffic.telemetry",
}

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


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
