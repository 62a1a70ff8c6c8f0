"""Golden output: the traffic plane's results, pinned byte for byte.

Each case hashes everything a run makes visible — for a fleet run the
rendered report, the merged bus history as ``(timestamp, topic, source,
sorted payload)`` rows and the ``repr`` of every ``TenantReport``; for
the single-OLT CLI the whole printed output — and compares the sha256
with a pinned value.

The pins guard refactors and speed-ups of the traffic core, which must
not change what the model computes. A change that is *meant* to change
the output updates the pins here and says so, with the reason, in
CHANGES.md.
"""

import hashlib

import pytest

from repro.__main__ import main
from repro.common import telemetry
from repro.traffic.fleet import ParallelFleetDriver


@pytest.fixture(autouse=True)
def _fresh_defaults():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


def fleet_digest(n_olts: int, n_tenants: int, seed: int,
                 downstream: bool = False, seconds: float = 1.0) -> str:
    """sha256 over a fleet run's render, merged history and reports.

    A catch-all subscription from before the run makes the shards ship
    every event, so the history is the whole merged stream.
    """
    driver = ParallelFleetDriver(n_olts=n_olts, n_tenants=n_tenants,
                                 seed=seed, downstream=downstream)
    driver.bus.subscribe("", lambda event: None)
    try:
        report = driver.run(seconds)
    finally:
        driver.pool.close()
    digest = hashlib.sha256(report.render().encode())
    for event in driver.bus.history():
        row = (event.timestamp, event.topic, event.source,
               sorted(event.payload.items()))
        digest.update(repr(row).encode())
    for olt in sorted(report.olts):
        traffic = report.olts[olt]
        for tenant in sorted(traffic.tenants):
            digest.update(repr(traffic.tenants[tenant]).encode())
    return digest.hexdigest()


# CPython 3.12 made ``sum()`` of floats compensated (Neumaier), which
# moves the last bits of each mean latency, so each fleet case pins one
# digest for the plain float sum and one for the compensated sum.
COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0

FLEET_CASES = {
    "4x256-seed1": (
        (4, 256, 1, False),
        "6a5ca3aac3ae3f837be0e602c514521640b1f9f5fa0b7961f50854d7eab1f236",
        "51ef3d8b24681f2f709faa361c82305163af5f6195c882f54bf0c6fba7fce5d8"),
    "4x64-seed3": (
        (4, 64, 3, False),
        "439043ced3541606ab6b12bb4d1ce74c5c924fb49206e747defe4208f498dd4b",
        "2a97916bcbd3dd223bd7d951639f0e62fd3f04dbb224f0bd2449159a6ef06c9c"),
    "4x16-seed3-downstream": (
        (4, 16, 3, True),
        "0aee3661e0890b1d140c7c12aaedd31e60c8fa78f7f3cb823a7f8e8e5455fe9c",
        "93a7a359d8fa9e33d3fe7f682d58e01434affadc941d4686efc08eb0937d663a"),
}

TRAFFIC_CLI_DIGEST = (
    "8ead14933691906aa5fd8f90ae56c9ce1761f61cc6e300527d6ea9140a08f282")

# Both defenses off: the demand-proportional DBA policy splits the
# upstream, and the hostile tenant's backlog takes most of it.
TRAFFIC_CLI_NO_DEFENSES_DIGEST = (
    "646d4fa33a8d13b662b34e7ce47b3eae951bd76f9b19d9ffa8b9152c6f120cff")


@pytest.mark.parametrize("case", sorted(FLEET_CASES))
def test_fleet_output_is_pinned(case):
    args, plain_sum, compensated_sum = FLEET_CASES[case]
    pinned = compensated_sum if COMPENSATED_SUM else plain_sum
    assert fleet_digest(*args) == pinned


def test_traffic_cli_output_is_pinned(capsys):
    assert main(["traffic", "--seed", "3", "--downstream",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRAFFIC_CLI_DIGEST


def test_traffic_cli_no_defenses_output_is_pinned(capsys):
    assert main(["traffic", "--seed", "3", "--no-dba", "--no-qos",
                 "--downstream", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == TRAFFIC_CLI_NO_DEFENSES_DIGEST)
