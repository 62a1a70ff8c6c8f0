"""E8 — host vulnerability scanning precision/recall + signed updates
(M8/M9, Lesson 4).

Ground truth is the CVE corpus itself: for each installed package we know
exactly which CVEs apply, so the scanner's precision and recall are
measurable. Also regenerates the Lesson 4 table: default scanner config
misses ONL's non-standard packages until aliases are added, and the
signed-update channel accepts exactly the authentic image.
"""

from repro.common import crypto
from repro.osmodel.presets import stock_onl_olt_host
from repro.security.comms.pki import CertificateAuthority
from repro.security.updates import (
    RELEASE_SIGNER, OnieImage, OnieInstaller, sign_onie_image,
)
from repro.security.vulnmgmt import HostScanner, build_cve_corpus
from repro.security.vulnmgmt.hostscan import ONL_PACKAGE_ALIASES


def _ground_truth(host, corpus):
    """Every (package, cve) pair that truly affects the host."""
    truth = set()
    for package in host.packages.installed():
        for cve in corpus.all():
            if cve.ecosystem == "debian" and cve.affects(package.name,
                                                         package.version):
                truth.add((package.name, cve.cve_id))
    kernel_version = host.kernel.version.split("-")[0]
    for cve in corpus.all():
        if cve.ecosystem == "kernel" and cve.affects("linux-kernel",
                                                     kernel_version):
            truth.add(("linux-kernel", cve.cve_id))
    return truth


def test_vuln_scan_and_updates(benchmark, report):
    corpus = build_cve_corpus()
    host = stock_onl_olt_host()
    truth = _ground_truth(host, corpus)

    default_scanner = HostScanner(corpus)
    tuned_scanner = HostScanner(corpus, package_aliases=ONL_PACKAGE_ALIASES)

    default_report = benchmark(default_scanner.scan, host)
    tuned_report = tuned_scanner.scan(host)

    def metrics(scan_report):
        found = {(f.package, f.cve.cve_id) for f in scan_report.findings}
        tp = len(found & truth)
        precision = tp / len(found) if found else 1.0
        recall = tp / len(truth) if truth else 1.0
        return len(found), precision, recall

    default_n, default_p, default_r = metrics(default_report)
    tuned_n, tuned_p, tuned_r = metrics(tuned_report)

    lines = ["E8 — scan precision/recall and signed updates (M8/M9, Lesson 4)",
             "",
             f"ground truth: {len(truth)} truly-vulnerable (package, CVE) pairs",
             "",
             f"{'scanner config':<26} {'findings':>8} {'precision':>10} "
             f"{'recall':>8}  skipped packages"]
    lines.append(f"{'default (stock paths)':<26} {default_n:>8} "
                 f"{default_p:>9.0%} {default_r:>7.0%}  "
                 f"{', '.join(default_report.packages_skipped)}")
    lines.append(f"{'tuned for ONL (Lesson 4)':<26} {tuned_n:>8} "
                 f"{tuned_p:>9.0%} {tuned_r:>7.0%}  "
                 f"{', '.join(tuned_report.packages_skipped) or '(none)'}")

    # Patch and rescan.
    applied, after = tuned_scanner.patch_prioritized(host, budget=100)
    lines.append("")
    lines.append(f"after applying {applied} prioritized patches: "
                 f"{len(after.findings)} findings remain "
                 f"({len(after.critical_or_exploitable)} critical/exploitable; "
                 "kernel CVEs need the ONIE channel)")

    # Signed-update half of the experiment.
    ca = CertificateAuthority()
    signer_kp, signer_cert = ca.enroll_device(RELEASE_SIGNER)
    installer = OnieInstaller(ca)
    good = sign_onie_image(OnieImage("onl", "5.16.12-onl",
                                     payload=b"KERNEL-5.16.12"),
                           signer_kp, signer_cert)
    good_result = installer.apply_update(host, good)
    tampered = OnieImage(good.name, good.version, good.payload + b"!",
                         detached_signature=good.detached_signature,
                         signer_certificate=good.signer_certificate)
    tampered_result = installer.apply_update(host, tampered)
    rogue_kp, rogue_cert = ca.enroll_device("not-release-eng")
    rogue = sign_onie_image(OnieImage("onl", "6.6.6", payload=b"EVIL"),
                            rogue_kp, rogue_cert)
    rogue_result = installer.apply_update(host, rogue)
    unsigned_result = installer.apply_update(
        host, OnieImage("onl", "7.0", payload=b"UNSIGNED"))

    lines.append("")
    lines.append(f"{'ONIE update scenario':<30} {'applied?':<9} detail")
    for name, result in [("authentic signed image", good_result),
                         ("tampered payload", tampered_result),
                         ("wrong signer", rogue_result),
                         ("unsigned image", unsigned_result)]:
        lines.append(f"{name:<30} {'YES' if result.applied else 'no':<9} "
                     f"{result.detail}")
    kernel_rescan = tuned_scanner.scan(host)
    lines.append("")
    lines.append(f"after the signed kernel update, kernel findings: "
                 f"{sum(1 for f in kernel_rescan.findings if f.package == 'linux-kernel')}")
    report("E8_vuln_scan_updates", "\n".join(lines))

    # Shapes: perfect precision (version matching is exact), imperfect
    # recall until tuned (ONL paths), patching drains the backlog, exactly
    # the authentic update applies, kernel CVEs vanish after ONIE update.
    assert default_p == 1.0 and tuned_p == 1.0
    assert default_r < tuned_r == 1.0
    assert applied > 0 and len(after.findings) < len(truth)
    assert good_result.applied
    assert not (tampered_result.applied or rogue_result.applied
                or unsigned_result.applied)
    assert not any(f.package == "linux-kernel"
                   for f in kernel_rescan.findings)
