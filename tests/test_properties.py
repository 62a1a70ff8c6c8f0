"""Property-based tests (hypothesis) over core security invariants.

These complement the example-based suites: each property states an
invariant the security arguments rest on, and hypothesis hunts for
counterexamples across the input space.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, precondition, rule,
)

from repro.common import crypto
from repro.common.errors import IntegrityError
from repro.common.events import EventBus
from repro.osmodel.packages import compare_versions, version_in_range
from repro.osmodel.tpm import Tpm
from repro.pon.frames import Frame, GemFrame
from repro.pon.gpon import GponDecryptor, GponKeyServer
from repro.pon.macsec import MacsecChannel
from repro.security.malware.yara import YaraRule
from repro.security.sandbox.peach import TenancyConfig, peach_score
from repro.security.vulnmgmt.cvedb import CveRecord, Severity
from repro.traffic.dba import DbaScheduler, TCont
from repro.traffic.downstream import QUEUE_LIMIT_BYTES, DownstreamQueue
from repro.traffic.profiles import Request
from tests import oracles

_version = st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=4).map(
    lambda parts: ".".join(map(str, parts)))


class TestVersionOrderProperties:
    @given(_version)
    @settings(max_examples=60, deadline=None)
    def test_reflexive(self, version):
        assert compare_versions(version, version) == 0

    @given(_version, _version, _version)
    @settings(max_examples=80, deadline=None)
    def test_transitive(self, a, b, c):
        if compare_versions(a, b) <= 0 and compare_versions(b, c) <= 0:
            assert compare_versions(a, c) <= 0

    @given(_version, _version)
    @settings(max_examples=60, deadline=None)
    def test_range_boundaries(self, introduced, fixed):
        assume(compare_versions(introduced, fixed) < 0)
        assert version_in_range(introduced, introduced, fixed)
        assert not version_in_range(fixed, introduced, fixed)


class TestCveProperties:
    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_severity_total_and_monotone(self, cvss):
        severity = Severity.from_cvss(cvss)
        assert severity in Severity
        higher = Severity.from_cvss(min(10.0, cvss + 2.5))
        order = [Severity.LOW, Severity.MEDIUM, Severity.HIGH,
                 Severity.CRITICAL]
        assert order.index(higher) >= order.index(severity)

    @given(_version, _version, _version)
    @settings(max_examples=60, deadline=None)
    def test_affects_respects_fix(self, introduced, version, fixed):
        assume(compare_versions(introduced, fixed) < 0)
        cve = CveRecord("CVE-P", "pkg", "debian", introduced, fixed, 7.0)
        if cve.affects("pkg", version):
            assert compare_versions(version, fixed) < 0
            assert compare_versions(version, introduced) >= 0


class TestTpmProperties:
    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=1,
                    max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_extend_order_sensitive(self, measurements):
        assume(measurements != list(reversed(measurements)))
        forward, backward = Tpm(), Tpm()
        for m in measurements:
            forward.extend(0, m)
        for m in reversed(measurements):
            backward.extend(0, m)
        # Different order -> different PCR (collision-free in practice).
        assert forward.read_pcr(0) != backward.read_pcr(0)

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1,
                    max_size=5),
           st.binary(min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_seal_unseal_iff_same_history(self, history, extra):
        tpm = Tpm()
        for m in history:
            tpm.extend(8, m)
        tpm.seal("s", b"secret", [8])
        assert tpm.unseal("s") == b"secret"
        tpm.extend(8, extra)
        with pytest.raises(Exception):
            tpm.unseal("s")


class TestChannelProperties:
    @given(st.binary(max_size=512))
    @settings(max_examples=40, deadline=None)
    def test_macsec_roundtrip_any_payload(self, payload):
        sak = b"k" * 32
        sender, receiver = MacsecChannel(sak), MacsecChannel(sak)
        protected = sender.protect(Frame("a", "b", payload=payload))
        assert receiver.validate(protected).payload == payload

    @given(st.binary(min_size=1, max_size=256), st.integers(min_value=0))
    @settings(max_examples=40, deadline=None)
    def test_macsec_any_payload_flip_rejected(self, payload, position):
        sak = b"k" * 32
        sender, receiver = MacsecChannel(sak), MacsecChannel(sak)
        protected = sender.protect(Frame("a", "b", payload=payload))
        blob = bytearray(protected.payload)
        blob[position % len(blob)] ^= 0x01
        with pytest.raises(IntegrityError):
            receiver.validate(protected.with_payload(bytes(blob), secure=True))

    @given(st.binary(max_size=512), st.integers(min_value=1, max_value=4000))
    @settings(max_examples=40, deadline=None)
    def test_gpon_roundtrip_and_isolation(self, payload, gem_port):
        server = GponKeyServer()
        server.establish(gem_port)
        gem = server.encrypt(GemFrame(gem_port=gem_port,
                                      inner=Frame("olt", "onu",
                                                  payload=payload)))
        subscriber = GponDecryptor()
        key, index = server.export_key(gem_port)
        subscriber.install_key(gem_port, key, index)
        assert subscriber.decrypt(gem).payload == payload
        # A neighbour with a *different* key never reads the flow:
        neighbour = GponDecryptor()
        neighbour.install_key(gem_port, crypto.random_key(), index)
        with pytest.raises(IntegrityError):
            neighbour.decrypt(gem)


class TestSignatureProperties:
    KEY = crypto.RsaKeyPair.generate(bits=512, seed=0xF00)
    OTHER = crypto.RsaKeyPair.generate(bits=512, seed=0xF01)

    @given(st.binary(min_size=1, max_size=256))
    @settings(max_examples=40, deadline=None)
    def test_sign_verify_any_message(self, message):
        signature = self.KEY.sign(message)
        assert self.KEY.public.verify(message, signature)
        assert not self.OTHER.public.verify(message, signature)

    @given(st.binary(min_size=1, max_size=128), st.binary(min_size=1,
                                                          max_size=128))
    @settings(max_examples=40, deadline=None)
    def test_signature_not_transferable(self, message, other_message):
        assume(message != other_message)
        signature = self.KEY.sign(message)
        assert not self.KEY.public.verify(other_message, signature)


class TestYaraProperties:
    @given(st.binary(max_size=256), st.binary(min_size=2, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_any_rule_matches_iff_string_present(self, haystack, needle):
        rule = YaraRule("r", strings=(needle,), condition="any")
        assert rule.matches(haystack) == (needle in haystack)
        assert rule.matches(haystack + needle)

    @given(st.lists(st.binary(min_size=2, max_size=8), min_size=2,
                    max_size=5, unique=True),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_threshold_semantics(self, needles, threshold):
        assume(threshold <= len(needles))
        rule = YaraRule("r", strings=tuple(needles), condition=threshold)
        assert rule.matches(b"|".join(needles))
        if threshold > 1:
            lone = needles[0]
            assume(not any(n in lone for n in needles[1:]))
            assert not rule.matches(lone)


class TestPeachProperties:
    _flags = st.booleans()

    @given(seccomp=_flags, lsm=_flags, caps=_flags, scanned=_flags,
           monitored=_flags, deny=_flags)
    @settings(max_examples=60, deadline=None)
    def test_scores_bounded_and_monotone_in_hardening(
            self, seccomp, lsm, caps, scanned, monitored, deny):
        weaker = TenancyConfig(
            name="w", isolation_unit="container",
            seccomp_enforced=seccomp, lsm_policies_enforced=lsm,
            capabilities_minimal=caps, images_scanned=scanned,
            runtime_monitoring=monitored, network_default_deny=deny)
        assessment = peach_score(weaker)
        assert 0.0 <= assessment.overall <= 1.0
        # Flipping every knob to secure never lowers the score:
        stronger = TenancyConfig(
            name="s", isolation_unit="container",
            seccomp_enforced=True, lsm_policies_enforced=True,
            capabilities_minimal=True, images_scanned=True,
            runtime_monitoring=True, network_default_deny=True)
        assert peach_score(stronger).overall >= assessment.overall


class TestDbaBatchingProperties:
    """``DbaScheduler.grant`` runs both policies through one cached
    flat-array loop; it must be byte-identical to the per-policy
    reference allocator in ``tests/oracles.py`` (guaranteed round +
    progressive tier fill for ``fair``, backlog-weighted fill for
    ``proportional``): grant maps in alloc-id order, scheduler state and
    ``pon.dba.grant`` events."""

    _tcont_config = st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),      # priority
                  st.floats(min_value=0.1, max_value=8.0),    # weight
                  st.integers(min_value=0, max_value=200_000)),  # queued
        min_size=1, max_size=24)

    @given(st.sampled_from(["fair", "proportional"]),
           _tcont_config,
           st.integers(min_value=0, max_value=500_000))
    @settings(max_examples=120, deadline=None)
    def test_batched_grants_equal_reference(self, policy, config, capacity):
        def build():
            bus = EventBus()
            dba = DbaScheduler(policy=policy, bus=bus)
            for i, (priority, weight, queued) in enumerate(config):
                tcont = dba.register_tcont(f"S{i}", f"t-{i}",
                                           priority=priority, weight=weight)
                if queued:
                    tcont.offer(Request(tenant=f"t-{i}", size_bytes=queued,
                                        issued_at=0.0))
            return dba, bus

        (grants,) = oracles.assert_matches_oracle(
            build, [(capacity, 0.02)],
            shipped=lambda dba, *args: list(dba.grant(*args).items()),
            oracle=lambda dba, *args: list(
                oracles.grant(dba, *args).items()),
            state=oracles.dba_state)
        total_backlog = sum(q for _, _, q in config)
        assert sum(give for _, give in grants) == min(capacity,
                                                      total_backlog)


class DbaSchedulerMachine(RuleBasedStateMachine):
    """One ``DbaScheduler`` (either policy) under interleaved
    registrations, offers, grants and drains.

    A registration between grants rebuilds the grant loop's cached flat
    arrays; each grant must still equal the reference allocator's on
    the same state, be work-conserving and give no T-CONT more than its
    own backlog, and each drain must carry exactly the bytes it takes
    off the backlog."""

    def __init__(self):
        super().__init__()
        self.now = 0.0

    @initialize(policy=st.sampled_from(["fair", "proportional"]))
    def build(self, policy):
        self.dba = DbaScheduler(policy=policy)

    @rule(priority=st.integers(min_value=0, max_value=3),
          weight=st.floats(min_value=0.1, max_value=8.0),
          room=st.none() | st.integers(min_value=1, max_value=300_000))
    def register_tcont(self, priority, weight, room):
        # A bounded queue starts ``room`` bytes short of its limit, so
        # offers meet tail drops.
        factory = TCont if room is None else DownstreamQueue
        index = len(self.dba.tconts())
        tcont = self.dba.register_tcont(f"S{index}", f"t-{index}",
                                        priority=priority, weight=weight,
                                        factory=factory)
        if room is not None:
            whole, rest = divmod(QUEUE_LIMIT_BYTES - room, 120_000)
            tcont.offer([Request(tcont.tenant, size, self.now)
                         for size in [120_000] * whole + [rest] if size])

    @precondition(lambda self: self.dba.tconts())
    @rule(data=st.data(),
          sizes=st.lists(st.integers(min_value=1, max_value=120_000),
                         min_size=1, max_size=4))
    def offer(self, data, sizes):
        tcont = data.draw(st.sampled_from(self.dba.tconts()))
        self.now += 0.001
        tcont.offer([Request(tcont.tenant, size, self.now)
                     for size in sizes])

    @rule(capacity=st.integers(min_value=0, max_value=2_000_000))
    def grant(self, capacity):
        backlog = {t.alloc_id: t.queued_bytes for t in self.dba.tconts()}
        _, expected, _ = oracles.reference_grants(self.dba, capacity)
        grants = self.dba.grant(capacity, now=self.now)
        assert list(grants.items()) == list(expected.items())
        assert sum(grants.values()) == min(capacity, sum(backlog.values()))
        assert all(give <= backlog[alloc_id]
                   for alloc_id, give in grants.items())

    @precondition(lambda self: self.dba.tconts())
    @rule(data=st.data(), granted=st.integers(min_value=0, max_value=300_000))
    def drain(self, data, granted):
        tcont = data.draw(st.sampled_from(self.dba.tconts()))
        before = self.dba.total_backlog()
        queued = tcont.queued_bytes
        sent, _ = tcont.drain(granted, self.now)
        assert sent == min(granted, queued)
        assert before - sent == self.dba.total_backlog()


TestDbaSchedulerMachine = DbaSchedulerMachine.TestCase
TestDbaSchedulerMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)


class TestFleetDeterminismProperties:
    """Same seed + same fleet config => byte-identical event ordering and
    final metrics across independent runs (the reproducibility the sim
    refactor exists to guarantee)."""

    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=3, max_value=9),
           st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_same_seed_identical_trace_and_report(self, seed, n_olts,
                                                  n_tenants, hostile):
        from repro.traffic.fleet import ParallelFleetDriver
        assume(n_tenants >= n_olts)

        def run():
            driver = ParallelFleetDriver(n_olts=n_olts, n_tenants=n_tenants,
                                         seed=seed, hostile=hostile,
                                         workers=1)
            driver.bus.subscribe("", lambda event: None)
            try:
                report = driver.run(0.2)
            finally:
                driver.pool.close()
            trace = [(e.timestamp, e.topic, e.source, e.payload)
                     for e in driver.bus.history()]
            return trace, report.render(), report.alert_first_at

        first_trace, first_render, first_alerts = run()
        second_trace, second_render, second_alerts = run()
        assert first_trace == second_trace
        assert first_render == second_render
        assert first_alerts == second_alerts
