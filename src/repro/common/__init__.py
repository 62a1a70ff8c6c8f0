"""Shared foundation for the GENIO reproduction.

This package provides the primitives every substrate builds on:

* :mod:`repro.common.crypto` -- simulated-but-behaviourally-faithful
  cryptography (hashing, HMAC, an authenticated stream cipher standing in
  for AES-GCM, and a from-scratch RSA for signatures and key exchange).
* :mod:`repro.common.clock` -- a deterministic simulation clock.
* :mod:`repro.common.sim` -- the discrete-event scheduler that owns all
  time advancement (periodic tasks, one-shot events, batch stepping).
* :mod:`repro.common.events` -- a typed event bus used for audit trails,
  runtime monitoring and experiment instrumentation.
* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.checks` -- the argument checks every substrate
  shares (positive, finite rates and durations).
* :mod:`repro.common.ids` -- deterministic identifier generation.
* :mod:`repro.common.telemetry` -- Prometheus-style metrics (counters,
  gauges, histograms with labels) and the text exporter every
  experiment can print.
"""

from repro.common.clock import SimClock
from repro.common.errors import (
    ReproError,
    AuthenticationError,
    IntegrityError,
    AuthorizationError,
    ConfigurationError,
    NotFoundError,
)
from repro.common.events import Event, EventBus
from repro.common.sim import PeriodicTask, ScheduledEvent, Scheduler
from repro.common.ids import IdGenerator
from repro.common.telemetry import (
    MetricsRegistry,
    active_registry,
    default_registry,
    reset_default_registry,
    set_telemetry_enabled,
)

__all__ = [
    "SimClock",
    "Scheduler",
    "PeriodicTask",
    "ScheduledEvent",
    "MetricsRegistry",
    "active_registry",
    "default_registry",
    "reset_default_registry",
    "set_telemetry_enabled",
    "ReproError",
    "AuthenticationError",
    "IntegrityError",
    "AuthorizationError",
    "ConfigurationError",
    "NotFoundError",
    "Event",
    "EventBus",
    "IdGenerator",
]
