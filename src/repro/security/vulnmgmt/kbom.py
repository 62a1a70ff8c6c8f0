"""Kubernetes Bill of Materials (M12).

The KBOM catalogs control-plane services, node components and add-ons
with their exact versions and images, so vulnerability tracking can match
advisories *precisely* instead of flagging every advisory that mentions a
component name. :func:`match_kbom` does exact-version matching;
:func:`naive_match` reproduces the KBOM-less workflow (name-only
matching) whose extra findings are pure review burden — the "precision
gain" the paper credits KBOM with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.orchestrator.kube.cluster import CLUSTER_NAME, KubeCluster
from repro.security.vulnmgmt.cvedb import CveDatabase, CveRecord


@dataclass(frozen=True)
class KbomComponent:
    """One cataloged cluster component."""

    name: str
    version: str
    kind: str        # controlplane | node | addon
    image: str = ""


@dataclass
class Kbom:
    """The bill of materials for one cluster."""

    cluster: str
    components: Tuple[KbomComponent, ...]

    def component_versions(self) -> Dict[str, str]:
        return {c.name: c.version for c in self.components}


def generate_kbom(cluster: KubeCluster) -> Kbom:
    """Walk the cluster inventory and emit its KBOM."""
    components = tuple(
        KbomComponent(name=c.name, version=c.version, kind=c.kind, image=c.image)
        for c in cluster.components
    )
    return Kbom(cluster=CLUSTER_NAME, components=components)


@dataclass
class KbomMatch:
    """One CVE matched against the KBOM."""

    cve: CveRecord
    component: KbomComponent
    exact: bool       # version-precise (KBOM) vs name-only (naive)


def match_kbom(kbom: Kbom, cvedb: CveDatabase) -> List[KbomMatch]:
    """Exact-version matching: only CVEs whose range covers the deployed
    version are reported."""
    matches: List[KbomMatch] = []
    for component in kbom.components:
        for ecosystem in ("k8s", "middleware"):
            for cve in cvedb.matching(component.name, component.version,
                                      ecosystem):
                matches.append(KbomMatch(cve=cve, component=component, exact=True))
    return matches


def naive_match(kbom: Kbom, cvedb: CveDatabase) -> List[KbomMatch]:
    """Name-only matching: what tracking looks like without a KBOM —
    every advisory mentioning an installed component gets flagged for
    manual review regardless of version."""
    names = {c.name: c for c in kbom.components}
    matches: List[KbomMatch] = []
    for cve in cvedb.all():
        component = names.get(cve.package)
        if component is None:
            continue
        exact = cve.affects(component.name, component.version)
        matches.append(KbomMatch(cve=cve, component=component, exact=exact))
    return matches


def precision(matches: Sequence[KbomMatch]) -> float:
    """Fraction of reported matches that are version-accurate."""
    if not matches:
        return 1.0
    return sum(1 for m in matches if m.exact) / len(matches)
