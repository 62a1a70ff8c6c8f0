"""Golden output: the traffic and security planes' results, pinned byte for byte.

Each case hashes everything a run makes visible — for a fleet run the
rendered report, the merged bus history as ``(timestamp, topic, source,
sorted payload)`` rows and the ``repr`` of every ``TenantReport``; for
a CLI command the whole printed output — and compares the sha256
with a pinned value.

The pins guard refactors and speed-ups of the traffic core and the
security plane, which must not change what the model computes. A change that is *meant* to change
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
    "e0175405a7d2c13ed127167fc19c9555a9f989cffac539c59693798b2a5728dd")

# Both defenses off: the demand-proportional DBA policy splits the
# upstream, and the hostile tenant's backlog takes most of it.
TRAFFIC_CLI_NO_DEFENSES_DIGEST = (
    "38cdaf7b025764191b71045c4359770e8e7d1ce73ffee17bffbe3788dad1962e")


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


# The security plane's CLI renders, each run without ``--metrics``:
# the M1-M18 pipeline report on a 2-OLT and on the 4-OLT perfbench
# deployment, the attack/defense demo, the Figure 1 inventory, the
# threat matrix and the CRA readiness report.
SECURITY_CLI_DIGESTS = {
    "secure --olts 2": (
        "b7aa8ac1cd88d89058276a6b2b8625bfd70eba9fe62f9e81f6f72925b48301de"),
    "secure --olts 4": (
        "bc6ac8f5fa4ea790eb166550eba20158a18d67370c18eede99040ff1f44db2c0"),
    "attack": (
        "071ec31b7ff097e9aed318c08bcf7393691598fcf28f4eb508f066a3f4dd5b9a"),
    "inventory": (
        "c584c962c7ad8e1c335fd4470d64639df0940f4fad623e45cd5e50b12b3ab2cf"),
    "threats": (
        "cc738ca9c5a3548f2c6653f0d4c96302fe7c57691d9c83e6827c89fd2486fcf4"),
    "cra": (
        "144745f85d146a7507ae6b946b9fe50fcd3e98a24fd42ea8bcbf379e6e296cba"),
}


@pytest.mark.parametrize("command", sorted(SECURITY_CLI_DIGESTS))
def test_security_cli_output_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == SECURITY_CLI_DIGESTS[command])
