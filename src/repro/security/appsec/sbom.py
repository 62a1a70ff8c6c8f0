"""Software Bill of Materials for container images (supports CRA-11).

Complements the cluster-level KBOM (M12) with a per-image SBOM in a
CycloneDX-flavoured structure: components with ecosystem-qualified purls,
layer provenance, and the link back to CVE matching so every
vulnerability report can cite the exact component entry it refers to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.security.vulnmgmt.cvedb import CveDatabase, CveRecord
from repro.virt.image import ContainerImage

_PURL_TYPES = {"debian": "deb", "pypi": "pypi", "npm": "npm",
               "maven": "maven", "k8s": "oci"}


@dataclass(frozen=True)
class SbomComponent:
    """One cataloged component."""

    name: str
    version: str
    ecosystem: str
    purl: str
    imported: bool


@dataclass
class Sbom:
    """A per-image bill of materials."""

    image: str
    image_digest: str
    components: Tuple[SbomComponent, ...]

    def to_dict(self) -> dict:
        """CycloneDX-flavoured serialisable form."""
        return {
            "bomFormat": "CycloneDX-like",
            "specVersion": "1.5-sim",
            "metadata": {"component": {"type": "container",
                                       "name": self.image,
                                       "hashes": [self.image_digest]}},
            "components": [
                {"type": "library", "name": c.name, "version": c.version,
                 "purl": c.purl,
                 "properties": [{"name": "genio:imported",
                                 "value": str(c.imported).lower()}]}
                for c in self.components
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def component_for(self, name: str) -> Optional[SbomComponent]:
        for component in self.components:
            if component.name == name:
                return component
        return None


def generate_sbom(image: ContainerImage) -> Sbom:
    """Walk the image manifest and emit its SBOM."""
    components = tuple(
        SbomComponent(
            name=package.name, version=package.version,
            ecosystem=package.ecosystem,
            purl=(f"pkg:{_PURL_TYPES.get(package.ecosystem, 'generic')}/"
                  f"{package.name}@{package.version}"),
            imported=package.imported)
        for package in image.packages
    )
    return Sbom(image=image.reference, image_digest=image.digest(),
                components=components)


@dataclass
class SbomVulnerability:
    """One CVE attached to an SBOM component."""

    component: SbomComponent
    cve: CveRecord


def attach_vulnerabilities(sbom: Sbom,
                           cvedb: CveDatabase) -> List[SbomVulnerability]:
    """Match every SBOM component against the CVE database."""
    findings: List[SbomVulnerability] = []
    for component in sbom.components:
        for cve in cvedb.matching(component.name, component.version,
                                  component.ecosystem):
            findings.append(SbomVulnerability(component=component, cve=cve))
    return findings
