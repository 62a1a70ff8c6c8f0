"""The fragmented middleware vulnerability-feed landscape (M12, Lesson 6).

The paper catalogs four feed maturity levels GENIO had to integrate:

* **Kubernetes** — a structured, programmatically-accessible CVE feed:
  automation polls it; awareness is nearly immediate.
* **Docker** — security updates as blog-format announcements: structured
  extraction is difficult, so each item costs manual triage time.
* **Proxmox** — notifications only in the web UI: awareness waits for the
  next manual UI check.
* **ONOS** — a structured page that is *no longer updated*: anything
  published after the staleness cutoff never arrives via the vendor.
* **NVD API** — complete but generic: entries arrive after the NVD
  analysis lag and still need manual review to map onto deployed
  versions.

Each feed answers "when does the platform owner become *aware* of a CVE
published at time t?" — the time-to-awareness metric the E10 experiment
reports, and whose spread is Lesson 6's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.security.vulnmgmt.cvedb import CveDatabase, CveRecord

_HOUR = 3600.0
_DAY = 86400.0

# Awareness delays of the feeds no deployment tunes.
STRUCTURED_POLL_INTERVAL_S = 1 * _HOUR   # automation polls the structured feed
BLOG_POST_LAG_S = 2 * _DAY               # the vendor blogs after publication
BLOG_TRIAGE_S = 1 * _DAY                 # a person extracts the post
NVD_ANALYSIS_LAG_S = 3 * _DAY            # NVD analyses the entry
NVD_POLL_INTERVAL_S = 1 * _DAY           # the API is polled daily
NVD_REVIEW_S = 12 * _HOUR                # mapping onto deployed versions


class StructuredFeed:
    """Machine-readable vendor feed (the Kubernetes official CVE feed)."""

    kind = "structured"

    def __init__(self, name: str, ecosystems: Sequence[str],
                 advisory_lag: float = 4 * _HOUR) -> None:
        self.name = name
        self.ecosystems = tuple(ecosystems)
        self.advisory_lag = advisory_lag

    def covers(self, cve: CveRecord) -> bool:
        return cve.ecosystem in self.ecosystems

    def aware_at(self, cve: CveRecord) -> Optional[float]:
        if not self.covers(cve):
            return None
        return (cve.published_at + self.advisory_lag
                + STRUCTURED_POLL_INTERVAL_S)

    def manual_review_hours(self, cve: CveRecord) -> float:
        return 0.25   # structured entries map straight to versions


class BlogFeed:
    """Blog-format announcements (Docker): extraction is manual."""

    kind = "blog"

    def __init__(self, name: str, packages: Sequence[str]) -> None:
        self.name = name
        self.packages = tuple(packages)

    def covers(self, cve: CveRecord) -> bool:
        return cve.package in self.packages

    def aware_at(self, cve: CveRecord) -> Optional[float]:
        if not self.covers(cve):
            return None
        return cve.published_at + BLOG_POST_LAG_S + BLOG_TRIAGE_S

    def manual_review_hours(self, cve: CveRecord) -> float:
        return 2.0    # read the post, figure out affected versions


class WebUiFeed:
    """Web-UI-only notification (Proxmox): waits for a manual check."""

    kind = "web-ui"

    def __init__(self, name: str, packages: Sequence[str],
                 check_interval: float = 7 * _DAY) -> None:
        self.name = name
        self.packages = tuple(packages)
        self.check_interval = check_interval

    def covers(self, cve: CveRecord) -> bool:
        return cve.package in self.packages

    def aware_at(self, cve: CveRecord) -> Optional[float]:
        if not self.covers(cve):
            return None
        # Awareness at the first periodic UI check after publication.
        checks_passed = int(cve.published_at // self.check_interval) + 1
        return checks_passed * self.check_interval

    def manual_review_hours(self, cve: CveRecord) -> float:
        return 1.0


class StaleFeed:
    """A vendor feed no longer updated (ONOS)."""

    kind = "stale"

    def __init__(self, name: str, packages: Sequence[str],
                 stale_after: float = 10 * _DAY) -> None:
        self.name = name
        self.packages = tuple(packages)
        self.stale_after = stale_after

    def covers(self, cve: CveRecord) -> bool:
        return cve.package in self.packages

    def aware_at(self, cve: CveRecord) -> Optional[float]:
        if not self.covers(cve):
            return None
        if cve.published_at > self.stale_after:
            return None   # the feed simply never carries it
        return cve.published_at + 1 * _DAY

    def manual_review_hours(self, cve: CveRecord) -> float:
        return 1.0


class NvdApiFeed:
    """The NVD API: complete, delayed, and manual-review-heavy."""

    kind = "nvd"
    name = "nvd"

    def covers(self, cve: CveRecord) -> bool:
        return True   # completeness is NVD's one virtue here

    def aware_at(self, cve: CveRecord) -> Optional[float]:
        return (cve.published_at + NVD_ANALYSIS_LAG_S
                + NVD_POLL_INTERVAL_S + NVD_REVIEW_S)

    def manual_review_hours(self, cve: CveRecord) -> float:
        return 4.0    # cross-reference advisory against deployed versions


@dataclass
class AwarenessRecord:
    """How one relevant CVE reached the platform owner."""

    cve_id: str
    package: str
    published_at: float
    aware_at: Optional[float]
    via: str
    review_hours: float

    @property
    def latency_days(self) -> Optional[float]:
        if self.aware_at is None:
            return None
        return (self.aware_at - self.published_at) / _DAY


class FeedAggregator:
    """The platform owner's combined vulnerability-awareness pipeline."""

    def __init__(self, feeds: Sequence[object],
                 nvd_fallback: Optional[NvdApiFeed] = None) -> None:
        self.feeds = list(feeds)
        self.nvd_fallback = nvd_fallback

    def awareness(self, cve: CveRecord) -> AwarenessRecord:
        """Earliest awareness across configured feeds (NVD as fallback)."""
        best_time: Optional[float] = None
        best_via = "none"
        best_review = 0.0
        candidates = list(self.feeds)
        if self.nvd_fallback is not None:
            candidates.append(self.nvd_fallback)
        for feed in candidates:
            at = feed.aware_at(cve)
            if at is None:
                continue
            if best_time is None or at < best_time:
                best_time, best_via = at, feed.name
                best_review = feed.manual_review_hours(cve)
        return AwarenessRecord(
            cve_id=cve.cve_id, package=cve.package,
            published_at=cve.published_at, aware_at=best_time,
            via=best_via, review_hours=best_review)

    def awareness_report(self, cvedb: CveDatabase,
                         deployed: Dict[str, str]) -> List[AwarenessRecord]:
        """Awareness records for every CVE affecting deployed components.

        ``deployed`` maps component name -> version (any ecosystem).
        """
        records = []
        for cve in cvedb.all():
            version = deployed.get(cve.package)
            if version is None:
                continue
            if not cve.affects(cve.package, version):
                continue
            records.append(self.awareness(cve))
        return records

    @staticmethod
    def summarize(records: Sequence[AwarenessRecord]) -> Dict[str, object]:
        """Per-source mean latency and total manual effort."""
        by_source: Dict[str, List[float]] = {}
        missed = 0
        total_review = 0.0
        for record in records:
            if record.aware_at is None:
                missed += 1
                continue
            by_source.setdefault(record.via, []).append(record.latency_days or 0.0)
            total_review += record.review_hours
        return {
            "mean_latency_days": {
                source: sum(values) / len(values)
                for source, values in by_source.items()
            },
            "counts": {source: len(values) for source, values in by_source.items()},
            "missed": missed,
            "manual_review_hours": total_review,
        }


def genio_feed_landscape() -> FeedAggregator:
    """The feed configuration the paper describes for GENIO."""
    return FeedAggregator(
        feeds=[
            StructuredFeed("kubernetes-cve-feed",
                           ecosystems=("k8s",)),
            BlogFeed("docker-blog", packages=("containerd", "docker")),
            WebUiFeed("proxmox-web-ui", packages=("proxmox-ve",)),
            StaleFeed("onos-security-page", packages=("onos",)),
        ],
        nvd_fallback=NvdApiFeed(),
    )
