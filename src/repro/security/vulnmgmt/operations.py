"""Operational vulnerability management over simulated time.

Lesson 6's closing point is about *time*: "delays that extend the attack
window in production environments". This module runs the whole loop on
the simulation clock — CVEs publish over the weeks, awareness arrives via
whatever feed covers each component, and a periodic patch cycle applies
fixes — so the attack window (publication -> patch) becomes a measurable
quantity per feed source and patch cadence. The E15 ablation sweeps the
cadence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.clock import SimClock
from repro.common.sim import PeriodicTask, Scheduler
from repro.osmodel.host import Host
from repro.security.vulnmgmt.cvedb import CveDatabase, CveRecord
from repro.security.vulnmgmt.feeds import FeedAggregator
from repro.security.vulnmgmt.hostscan import HostScanner, ScanFinding

_DAY = 86400.0


@dataclass
class CveLifecycle:
    """One CVE's journey from publication to remediation."""

    cve_id: str
    package: str
    published_at: float
    aware_at: Optional[float] = None
    aware_via: str = ""
    patched_at: Optional[float] = None
    patchable: bool = True

    @property
    def attack_window_days(self) -> Optional[float]:
        """Days the platform stayed exposed after public disclosure."""
        if self.patched_at is None:
            return None
        return (self.patched_at - self.published_at) / _DAY


class VulnerabilityOperations:
    """Runs scan-and-patch cycles on the simulation clock."""

    def __init__(self, host: Host, scanner: HostScanner,
                 aggregator: FeedAggregator,
                 clock: Optional[SimClock] = None,
                 patch_cadence_days: float = 7.0) -> None:
        if patch_cadence_days <= 0:
            raise ValueError("patch cadence must be positive")
        self.host = host
        self.scanner = scanner
        self.aggregator = aggregator
        self.clock = clock or SimClock()
        self.patch_cadence_days = patch_cadence_days
        self.lifecycles: Dict[str, CveLifecycle] = {}
        self.cycles_run = 0

    # -- one patch cycle -----------------------------------------------------

    def run_cycle(self) -> List[str]:
        """One scheduled maintenance window: scan, act on what the team is
        *aware of by now*, patch. Returns the CVE ids patched this cycle."""
        self.cycles_run += 1
        now = self.clock.now
        scan = self.scanner.scan(self.host, now=now)
        patched: List[str] = []
        for finding in scan.prioritized():
            lifecycle = self._lifecycle_for(finding)
            if lifecycle.aware_at is None or lifecycle.aware_at > now:
                continue            # nobody knows yet — fragmented feeds
            if lifecycle.patched_at is not None:
                continue
            if self.scanner.patch(self.host, finding):
                lifecycle.patched_at = now
                patched.append(lifecycle.cve_id)
            else:
                lifecycle.patchable = False
        return patched

    def _lifecycle_for(self, finding: ScanFinding) -> CveLifecycle:
        lifecycle = self.lifecycles.get(finding.cve.cve_id)
        if lifecycle is None:
            awareness = self.aggregator.awareness(finding.cve)
            lifecycle = CveLifecycle(
                cve_id=finding.cve.cve_id, package=finding.package,
                published_at=finding.cve.published_at,
                aware_at=awareness.aware_at, aware_via=awareness.via)
            self.lifecycles[finding.cve.cve_id] = lifecycle
        return lifecycle

    # -- the campaign -----------------------------------------------------------

    def schedule(self, scheduler: Scheduler, days: float) -> PeriodicTask:
        """Register the patch cadence as a periodic task on ``scheduler``.

        Does not advance time — the scheduler's owner batch-steps the
        whole world (patch cycles interleaved with traffic, rotation,
        monitoring) and reads :meth:`attack_window_stats` afterwards.
        """
        cadence_s = self.patch_cadence_days * _DAY
        end = scheduler.now + days * _DAY
        return scheduler.every(cadence_s, self.run_cycle,
                               name=f"vulnops/{self.host.hostname}", until=end)

    def run_for(self, days: float) -> None:
        """Advance simulated time, running cycles at the configured cadence."""
        engine = Scheduler(clock=self.clock)
        self.schedule(engine, days)
        engine.run_for(days * _DAY)

    # -- metrics -----------------------------------------------------------------

    def attack_window_stats(self) -> Dict[str, object]:
        """Mean attack window overall and per awareness source."""
        patched = [l for l in self.lifecycles.values()
                   if l.attack_window_days is not None]
        by_source: Dict[str, List[float]] = {}
        for lifecycle in patched:
            by_source.setdefault(lifecycle.aware_via, []).append(
                lifecycle.attack_window_days)
        unpatched = [l.cve_id for l in self.lifecycles.values()
                     if l.patched_at is None and l.patchable]
        return {
            "patched": len(patched),
            "unpatchable": sum(1 for l in self.lifecycles.values()
                               if not l.patchable),
            "still_exposed": unpatched,
            "mean_window_days": (sum(l.attack_window_days for l in patched)
                                 / len(patched)) if patched else None,
            "mean_window_by_source": {
                source: sum(values) / len(values)
                for source, values in by_source.items()
            },
        }
