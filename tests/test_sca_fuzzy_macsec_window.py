"""Tests for SCA fuzzy misidentification and the MACsec replay window."""

import pytest

from repro.common import telemetry
from repro.common.errors import IntegrityError
from repro.platform.workloads import iot_analytics_image, ml_inference_image
from repro.pon.frames import Frame
from repro.pon.macsec import MacsecChannel
from repro.security.appsec.sca import ScaScanner, _normalize_name
from repro.security.vulnmgmt import build_cve_corpus


class TestFuzzyIdentification:
    def test_normalization_stems(self):
        assert _normalize_name("python3-urllib3") == "urllib"
        assert _normalize_name("urllib3") == "urllib"
        assert _normalize_name("python-jinja") == "jinja"
        assert _normalize_name("jinja2") == "jinja"
        assert _normalize_name("urllib3-mirror") == "urllib"

    def test_exact_scanner_misses_renamed_package(self):
        scanner = ScaScanner(build_cve_corpus())
        report = scanner.scan(iot_analytics_image())
        assert not any(f.package.name == "python-jinja"
                       for f in report.findings)

    def test_fuzzy_scanner_matches_but_flags_misidentification(self):
        scanner = ScaScanner(build_cve_corpus(), fuzzy_identification=True)
        report = scanner.scan(iot_analytics_image())
        fuzzy_hits = [f for f in report.findings
                      if f.package.name == "python-jinja"]
        assert fuzzy_hits
        assert all(f.misidentified for f in fuzzy_hits)
        # Misidentified findings count as noise, never as actionable:
        assert not any(f.misidentified for f in report.actionable)
        assert any(f.misidentified for f in report.noise)

    def test_fuzzy_mode_never_duplicates_exact_hits(self):
        exact = ScaScanner(build_cve_corpus())
        fuzzy = ScaScanner(build_cve_corpus(), fuzzy_identification=True)
        image = iot_analytics_image()
        exact_ids = {(f.package.name, f.cve.cve_id)
                     for f in exact.scan(image).findings}
        fuzzy_ids = {(f.package.name, f.cve.cve_id)
                     for f in fuzzy.scan(image).findings}
        assert exact_ids <= fuzzy_ids
        assert len(fuzzy_ids) == len(fuzzy.scan(image).findings)

    def test_clean_image_stays_clean_under_fuzzy(self):
        scanner = ScaScanner(build_cve_corpus(), fuzzy_identification=True)
        assert scanner.scan(ml_inference_image()).findings == []


class TestMacsecReplayWindow:
    def _protected(self, sender, n):
        return [sender.protect(Frame("a", "b", payload=f"m{i}".encode()))
                for i in range(n)]

    def test_strict_mode_rejects_reorder(self):
        sak = b"k" * 32
        sender = MacsecChannel(sak)
        receiver = MacsecChannel(sak, replay_window=0)
        f1, f2 = self._protected(sender, 2)
        receiver.validate(f2)
        with pytest.raises(IntegrityError):
            receiver.validate(f1)

    def test_window_accepts_bounded_reorder_once(self):
        sak = b"k" * 32
        sender = MacsecChannel(sak)
        telemetry.reset_default_registry()
        receiver = MacsecChannel(sak, replay_window=4)
        f1, f2, f3 = self._protected(sender, 3)
        receiver.validate(f3)
        assert receiver.validate(f1).payload == b"m0"   # late but in window
        with pytest.raises(IntegrityError, match="replayed packet number 1"):
            receiver.validate(f1)                        # replay still caught
        frames = telemetry.default_registry().get("macsec_frames_total")
        assert frames.labels(result="replay_rejected").value == 1
        telemetry.reset_default_registry()

    def test_frames_outside_window_rejected(self):
        sak = b"k" * 32
        sender = MacsecChannel(sak)
        receiver = MacsecChannel(sak, replay_window=2)
        frames = self._protected(sender, 6)
        receiver.validate(frames[5])                     # pn=6
        with pytest.raises(IntegrityError):
            receiver.validate(frames[0])                 # pn=1, way late
        assert receiver.validate(frames[4]).payload == b"m4"  # pn=5, in window

    def test_window_state_pruned_as_pn_advances(self):
        sak = b"k" * 32
        sender = MacsecChannel(sak)
        receiver = MacsecChannel(sak, replay_window=2)
        frames = self._protected(sender, 50)
        for frame in frames:
            receiver.validate(frame)
        assert len(receiver._accepted_in_window) <= 3

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            MacsecChannel(b"k" * 32, replay_window=-1)
