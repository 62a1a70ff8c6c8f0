"""Unit and integration tests for the PON substrate."""

import pickle

import pytest

from repro.common import crypto, telemetry
from repro.common.errors import AuthenticationError, IntegrityError, NotFoundError
from repro.pon.attacks import DownstreamHijackAttack
from repro.pon.fiber import EthernetLink, FiberSpan, FiberTap
from repro.pon.frames import RETAINED_FRAMES, Frame, FrameKind, GemFrame
from repro.pon.gpon import GponDecryptor, GponKeyServer
from repro.pon.macsec import MacsecChannel, MacsecPair, derive_sak
from repro.pon.network import PonNetwork
from repro.pon.olt import Olt
from repro.pon.onu import Onu


@pytest.fixture
def network():
    net = PonNetwork.build("olt-test", n_ports=1)
    net.attach_onu(Onu("ONU-A"))
    net.attach_onu(Onu("ONU-B"))
    return net


class TestFrames:
    def test_frame_with_payload_copy(self):
        frame = Frame(src="a", dst="b", payload=b"x")
        updated = frame.with_payload(b"yy", secure=True)
        assert frame.payload == b"x" and not frame.secure
        assert updated.payload == b"yy" and updated.secure

    def test_frame_with_header(self):
        frame = Frame(src="a", dst="b").with_header("pn", 3)
        assert frame.headers["pn"] == 3

    def test_sizes_include_overhead(self):
        frame = Frame(src="a", dst="b", payload=b"12345")
        assert frame.size == 23
        assert GemFrame(gem_port=1, inner=frame).size == 28

    def test_headers_default_to_a_fresh_dict(self):
        first, second = Frame("a", "b"), Frame("a", "b")
        assert first.headers == {} and first.headers is not second.headers

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_records_survive_a_pickle_round_trip(self, protocol):
        frame = Frame("olt", "onu", FrameKind.CONTROL, b"p", True,
                      {"pn": 7}, size_override=1500)
        gem = GemFrame(gem_port=1000, inner=frame, encrypted=True,
                       key_index=2)
        for record in (frame, gem):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert copy == record and type(copy) is type(record)
        assert pickle.loads(pickle.dumps(gem, protocol)).size == 1505

    @pytest.mark.parametrize("bad", [-1, -5, 2.5, "10"])
    def test_bad_size_override_is_refused_on_every_path(self, bad):
        frame = Frame("a", "b", size_override=10)
        for build in (lambda: Frame("a", "b", size_override=bad),
                      lambda: Frame(*frame[:6], bad),
                      lambda: Frame._make((*frame[:6], bad)),
                      lambda: frame._replace(size_override=bad)):
            with pytest.raises(ValueError, match="size_override"):
                build()

    def test_unpickling_goes_through_the_size_check(self):
        # A forged pickle of a frame that skipped the check.
        forged = tuple.__new__(Frame, ("a", "b", FrameKind.DATA, b"",
                                       False, {}, -5))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            with pytest.raises(ValueError, match="size_override"):
                pickle.loads(pickle.dumps(forged, protocol))

    def test_copies_keep_the_size_check_and_zero_is_valid(self):
        frame = Frame("a", "b", size_override=0)
        assert frame.size == 0
        assert frame.with_payload(b"xy").size == 0
        assert frame._replace(size_override=None).size == 18
        assert frame.with_header("pn", 1).headers == {"pn": 1}
        assert frame.headers == {}


class TestGponEncryption:
    def test_key_establish_and_roundtrip(self):
        server = GponKeyServer()
        server.establish(1000)
        gem = GemFrame(gem_port=1000, inner=Frame("olt", "onu", payload=b"secret"))
        encrypted = server.encrypt(gem)
        assert encrypted.encrypted and encrypted.inner.payload != b"secret"

        dec = GponDecryptor()
        key, index = server.export_key(1000)
        dec.install_key(1000, key, index)
        assert dec.decrypt(encrypted).payload == b"secret"

    def test_rotation_bumps_index_and_old_key_fails(self):
        server = GponKeyServer()
        first = server.establish(1)
        dec = GponDecryptor()
        dec.install_key(1, first.key, first.index)
        server.rotate(1)
        gem = server.encrypt(GemFrame(gem_port=1, inner=Frame("o", "u", payload=b"p")))
        with pytest.raises(IntegrityError):
            dec.decrypt(gem)

    def test_unknown_port_errors(self):
        server = GponKeyServer()
        with pytest.raises(NotFoundError):
            server.key_for(99)
        with pytest.raises(NotFoundError):
            server.rotate(99)
        with pytest.raises(NotFoundError):
            GponDecryptor().decrypt(
                GemFrame(gem_port=5, inner=Frame("a", "b"), encrypted=True)
            )

    def test_unencrypted_frame_passthrough(self):
        frame = Frame("a", "b", payload=b"clear")
        assert GponDecryptor().decrypt(GemFrame(gem_port=1, inner=frame)) is frame


class TestMacsec:
    def test_protect_validate_roundtrip(self):
        sak = derive_sak(b"shared", "link-1")
        sender, receiver = MacsecChannel(sak), MacsecChannel(sak)
        frame = Frame("olt-1", "cloud", payload=b"telemetry")
        protected = sender.protect(frame)
        assert protected.secure and protected.payload != b"telemetry"
        assert receiver.validate(protected).payload == b"telemetry"

    def test_replay_rejected(self):
        telemetry.reset_default_registry()
        sak = b"s" * 32
        sender, receiver = MacsecChannel(sak), MacsecChannel(sak)
        protected = sender.protect(Frame("a", "b", payload=b"x"))
        receiver.validate(protected)
        with pytest.raises(IntegrityError, match="replayed packet number 1"):
            receiver.validate(protected)
        frames = telemetry.default_registry().get("macsec_frames_total")
        assert frames.labels(result="replay_rejected").value == 1
        assert frames.labels(result="validated").value == 1
        telemetry.reset_default_registry()

    def test_replay_allowed_when_protection_off(self):
        sak = b"s" * 32
        sender = MacsecChannel(sak)
        receiver = MacsecChannel(sak, replay_protect=False)
        protected = sender.protect(Frame("a", "b", payload=b"x"))
        receiver.validate(protected)
        assert receiver.validate(protected).payload == b"x"

    def test_wrong_sak_rejected(self):
        protected = MacsecChannel(b"k1" * 16).protect(Frame("a", "b", payload=b"x"))
        with pytest.raises(IntegrityError):
            MacsecChannel(b"k2" * 16).validate(protected)

    def test_missing_pn_rejected(self):
        receiver = MacsecChannel(b"k" * 32)
        with pytest.raises(IntegrityError):
            receiver.validate(Frame("a", "b", payload=b"raw"))

    def test_derive_sak_is_link_specific(self):
        assert derive_sak(b"s", "l1") != derive_sak(b"s", "l2")

    def test_pair_has_independent_directions(self):
        pair = MacsecPair(b"k" * 32)
        f1 = pair.a_to_b.protect(Frame("a", "b", payload=b"1"))
        f2 = pair.b_to_a.protect(Frame("b", "a", payload=b"2"))
        assert pair.b_to_a.validate(f2).payload == b"2"
        assert pair.a_to_b.validate(f1).payload == b"1"


class TestOltActivation:
    def test_serial_mode_accepts_provisioned(self, network):
        assert network.onus["ONU-A"].activated
        last = list(network.bus.history("pon.activation", limit=1))[0]
        assert last.get("accepted") and last.get("mode") == "serial"

    def test_unprovisioned_serial_rejected(self):
        net = PonNetwork.build()
        with pytest.raises(AuthenticationError):
            net.olt.activate_onu(0, Onu("UNKNOWN"))

    def test_duplicate_port_rejected(self):
        net = PonNetwork.build()
        with pytest.raises(ValueError):
            net.olt.add_port(0, net.span(0))

    def test_missing_port_rejected(self, network):
        with pytest.raises(NotFoundError):
            network.olt.activate_onu(7, Onu("ONU-A"))

    def test_certificate_mode_without_verifier_rejects(self):
        olt = Olt("olt-x", auth_mode="certificate")
        span = FiberSpan("s", olt._clock)
        olt.add_port(0, span)
        olt.provision_serial("ONU-A")
        with pytest.raises(AuthenticationError):
            olt.activate_onu(0, Onu("ONU-A"))

    def test_invalid_auth_mode_rejected(self):
        with pytest.raises(ValueError):
            Olt("bad", auth_mode="open")


class TestTrafficFlow:
    def test_downstream_broadcast_reaches_only_owner(self, network):
        network.send_downstream("ONU-A", b"hello A")
        assert network.delivered_to("ONU-A")[0].payload == b"hello A"
        assert network.delivered_to("ONU-B") == []

    def test_plaintext_visible_to_tap(self, network):
        tap = FiberTap(name="t")
        network.span().attach_tap(tap)
        network.send_downstream("ONU-A", b"visible")
        assert tap.captured[0].inner.payload == b"visible"

    def test_encrypted_hidden_from_tap_but_delivered(self):
        net = PonNetwork.build()
        net.olt.enable_encryption()
        net.attach_onu(Onu("ONU-A"))
        tap = FiberTap(name="t")
        net.span().attach_tap(tap)
        net.send_downstream("ONU-A", b"secret")
        assert tap.captured[0].encrypted
        assert tap.captured[0].inner.payload != b"secret"
        assert net.delivered_to("ONU-A")[0].payload == b"secret"

    def test_other_onu_cannot_decrypt_foreign_flow(self):
        net = PonNetwork.build()
        net.olt.enable_encryption()
        net.attach_onu(Onu("ONU-A"))
        net.attach_onu(Onu("ONU-B"))
        net.send_downstream("ONU-A", b"for A only")
        assert net.onus["ONU-B"].undecryptable == 1
        assert net.delivered_to("ONU-B") == []

    def test_upstream_reaches_olt(self, network):
        network.send_upstream("ONU-A", b"meter reading")
        assert network.olt.upstream_frames[0].payload == b"meter reading"

    def test_upstream_from_inactive_rejected(self):
        net = PonNetwork.build()
        with pytest.raises(ValueError):
            net.send_upstream("GHOST", b"x")

    def test_downstream_sends_accumulate_on_the_span_and_histogram(self):
        telemetry.reset_default_registry()
        network = PonNetwork.build("olt-test")
        network.attach_onu(Onu("ONU-A"))
        for _ in range(10):
            network.send_downstream("ONU-A", b"x" * 100)
        assert network.span().frames_carried == 10
        assert network.span().bytes_carried == 10 * 123
        delay = telemetry.default_registry().get(
            "pon_tx_delay_seconds").labels()
        assert delay.count == 10 and delay.sum > 0
        telemetry.reset_default_registry()

    def test_upstream_sends_accumulate_on_the_counters(self):
        telemetry.reset_default_registry()
        network = PonNetwork.build("olt-test")
        network.attach_onu(Onu("ONU-A"))
        for _ in range(4):
            network.send_upstream("ONU-A", b"x" * 100)
        registry = telemetry.default_registry()
        frames = registry.get("pon_frames_total")
        wire_bytes = registry.get("pon_bytes_total")
        # 100 payload + 18 frame header; no GEM wrapping upstream.
        assert frames.labels(direction="upstream").value == 4
        assert wire_bytes.labels(direction="upstream").value == 4 * 118
        assert frames.labels(direction="downstream").value == 0
        assert network.span().frames_carried == 0
        telemetry.reset_default_registry()

    def test_send_downstream_returns_the_delay_it_accounts(self):
        telemetry.reset_default_registry()
        network = PonNetwork.build("olt-test")
        network.attach_onu(Onu("ONU-A"))
        delays = [network.send_downstream("ONU-A", b"x" * size)
                  for size in (10, 1000)]
        # A longer frame takes longer on the fiber; the histogram holds
        # exactly the delays the sends returned.
        assert 0 < delays[0] < delays[1]
        histogram = telemetry.default_registry().get(
            "pon_tx_delay_seconds").labels()
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(sum(delays))
        telemetry.reset_default_registry()

    def test_send_downstream_does_not_advance_the_clock(self, network):
        # Regression: send_downstream used to mutate global time as a
        # side effect; delivery is now synchronous and time belongs to
        # the scheduler.
        before = network.clock.now
        network.send_downstream("ONU-A", b"x" * 1000)
        assert network.clock.now == before

    def test_networks_sharing_a_clock_do_not_skew_each_other(self):
        # Two OLT shards on one fleet clock: traffic on one must not
        # shift the timestamps the other observes.
        from repro.common.clock import SimClock
        clock = SimClock()
        first = PonNetwork.build("olt-1", clock=clock)
        second = PonNetwork.build("olt-2", clock=clock)
        first.attach_onu(Onu("ONU-1A"))
        clock.advance(5.0)
        for _ in range(50):
            first.send_downstream("ONU-1A", b"x" * 1000)
        # The second plant's activation event stamps the shared clock —
        # still t=5.0, untouched by the first plant's traffic.
        second.attach_onu(Onu("ONU-2A"))
        last = list(second.bus.history("pon.activation", limit=1))[0]
        assert last.get("serial") == "ONU-2A" and last.timestamp == 5.0
        assert clock.now == 5.0
        assert first.span().frames_carried == 50

    def test_ethernet_link_carries_and_taps(self):
        from repro.common.clock import SimClock
        link = EthernetLink("l", SimClock())
        got = []
        link.attach_receiver(got.append)
        tap = FiberTap(name="t")
        link.attach_tap(tap)
        delay = link.transmit(Frame("a", "b", payload=b"x" * 100), 118)
        assert got and tap.captured and delay > 0
        assert link.tapped
        link.detach_tap(tap)
        assert not link.tapped


class TestWireBytesAccounting:
    """The span's bytes_carried and pon_bytes_total agree byte for byte.

    Regression: the network layer used to account a re-derived
    ``len(payload) + 5 + 18`` while the OLT counter accounted the
    post-encryption ``gem.size`` — with G.987.3 encryption on (48 bytes
    of AEAD expansion) the two silently diverged.
    """

    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        from repro.common import telemetry
        telemetry.reset_default_registry()
        telemetry.set_telemetry_enabled(True)
        yield
        telemetry.reset_default_registry()
        telemetry.set_telemetry_enabled(True)

    def _counter_value(self):
        from repro.common import telemetry
        counter = telemetry.default_registry().get("pon_bytes_total")
        return counter.labels(direction="downstream").value

    def test_span_matches_counter_with_encryption(self):
        net = PonNetwork.build()
        net.olt.enable_encryption()
        net.attach_onu(Onu("ONU-A"))
        for _ in range(7):
            net.send_downstream("ONU-A", b"x" * 100)
        # 100 payload + 18 frame header + 5 GEM header + 48 AEAD
        assert self._counter_value() == 7 * 171
        assert net.span().bytes_carried == self._counter_value()

    def test_span_matches_counter_without_encryption(self):
        net = PonNetwork.build()
        net.attach_onu(Onu("ONU-A"))
        for _ in range(7):
            net.send_downstream("ONU-A", b"x" * 100)
        assert self._counter_value() == 7 * 123
        assert net.span().bytes_carried == self._counter_value()

    def test_size_override_accounts_full_wire_size(self):
        net = PonNetwork.build()
        net.attach_onu(Onu("ONU-A"))
        net.send_downstream("ONU-A", b"", size_override=50_000)
        # override replaces the payload+header size; + 5 GEM header
        assert self._counter_value() == 50_005
        assert net.span().bytes_carried == self._counter_value()


class TestBadSizeOverrideChangesNothing:
    """A negative or non-integer ``size_override`` is refused by name.

    Regression: with telemetry on, a negative upstream size raised only
    at the byte counter, after the plant's own byte tally had gone
    negative and the frame had been retained; with telemetry off (every
    fleet shard) both directions accepted it silently.
    """

    @pytest.fixture(params=[True, False], ids=["telemetry", "unmetered"])
    def net(self, request):
        telemetry.reset_default_registry()
        telemetry.set_telemetry_enabled(request.param)
        try:
            net = PonNetwork.build()
            net.attach_onu(Onu("ONU-A"))
        finally:
            telemetry.set_telemetry_enabled(True)
        yield net
        telemetry.reset_default_registry()

    @pytest.mark.parametrize("bad", [-5, -7, 2.5])
    def test_upstream(self, net, bad):
        events = []
        net.bus.subscribe("pon.upstream", events.append)
        metrics = telemetry.default_registry().render()
        with pytest.raises(ValueError, match="size_override"):
            net.send_upstream("ONU-A", b"", size_override=bad)
        assert len(net.olt.upstream_frames) == 0
        assert events == []
        assert list(net.bus.history(topic="pon.upstream")) == []
        assert telemetry.default_registry().render() == metrics

    @pytest.mark.parametrize("bad", [-5, -7, 2.5])
    def test_downstream(self, net, bad):
        metrics = telemetry.default_registry().render()
        with pytest.raises(ValueError, match="size_override"):
            net.send_downstream("ONU-A", b"", size_override=bad)
        assert (net.span().frames_carried, net.span().bytes_carried) == (0, 0)
        assert len(net.onus["ONU-A"].received) == 0
        assert telemetry.default_registry().render() == metrics


class TestFrameRings:
    """The OLT and each ONU keep the newest ``RETAINED_FRAMES`` frames;
    the frame counter and the span count every frame."""

    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        telemetry.reset_default_registry()
        telemetry.set_telemetry_enabled(True)
        yield
        telemetry.reset_default_registry()

    def test_upstream_ring_keeps_the_newest_frames(self, network):
        total = RETAINED_FRAMES + 5
        for i in range(total):
            network.send_upstream("ONU-A", str(i).encode())
        frames = network.olt.upstream_frames
        assert len(frames) == RETAINED_FRAMES
        assert frames[-1].payload == str(total - 1).encode()
        assert frames[0].payload == str(total - RETAINED_FRAMES).encode()
        assert telemetry.default_registry().get("pon_frames_total").labels(
            direction="upstream").value == total

    def test_received_ring_keeps_the_newest_frames(self, network):
        total = RETAINED_FRAMES + 3
        for i in range(total):
            network.send_downstream("ONU-A", str(i).encode())
        received = network.onus["ONU-A"].received
        assert len(received) == RETAINED_FRAMES
        assert received[-1].payload == str(total - 1).encode()
        assert network.delivered_to("ONU-A")[0].payload \
            == str(total - RETAINED_FRAMES).encode()
        assert network.span().frames_carried == total

    @pytest.mark.parametrize("encrypted", [False, True],
                             ids=["plaintext", "g987.3"])
    def test_downstream_hijack_with_a_full_ring(self, encrypted):
        net = PonNetwork.build()
        if encrypted:
            net.olt.enable_encryption()
        net.attach_onu(Onu("ONU-A"))
        for _ in range(RETAINED_FRAMES):
            net.send_downstream("ONU-A", b"legit")
        victim = net.onus["ONU-A"]
        assert len(victim.received) == RETAINED_FRAMES
        result = DownstreamHijackAttack(net, "ONU-A").run()
        assert result.succeeded is not encrypted
        assert (victim.received[-1].payload == b"legit") is encrypted
        assert victim.rejected == (1 if encrypted else 0)
