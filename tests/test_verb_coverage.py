"""Every ``repro`` module runs under some CLI verb, or is named here.

One fresh interpreter runs each of the seven verbs with small arguments
and then lists the modules under ``src/repro`` it never loaded. A module
no verb loads is code that only examples and tests reach. The allowlist
below names the modules known to be in that state; a module that joins
them fails this test until a verb runs it or it is added here with a
reason, and a module that leaves them must be struck off the list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent

# Loaded only by examples and tests (1,047 lines together). Each waits
# for a verb: the fleet scenario's ONU join/leave and failover
# (onboarding, placement, leasing, sdn.integration), or the year of
# operations (drift, sbom, keyrotation, attestation, operations).
UNLOADED_ALLOWLIST = {
    "repro.platform.leasing",
    "repro.platform.onboarding",
    "repro.platform.placement",
    "repro.sdn.integration",
    "repro.security.access.drift",
    "repro.security.appsec.sbom",
    "repro.security.comms.keyrotation",
    "repro.security.integrity.attestation",
    "repro.security.vulnmgmt.operations",
}

VERBS = [
    ["secure", "--olts", "1"],
    ["traffic", "--seconds", "0.1"],
    ["fleet", "--olts", "1", "--tenants", "2", "--seconds", "0.1"],
    ["inventory"],
    ["threats"],
    ["attack"],
    ["cra"],
]

_PROBE = """
import contextlib, io, json, pathlib, sys
import repro
from repro.__main__ import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
package = pathlib.Path(repro.__file__).parent
names = set()
for path in package.rglob("*.py"):
    parts = path.relative_to(package.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    names.add(".".join(parts))
print(json.dumps([codes, sorted(names - set(sys.modules))]))
"""


def test_every_module_runs_under_a_verb():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(VERBS)], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    codes, unloaded = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * len(VERBS)
    unloaded = set(unloaded)
    assert unloaded - UNLOADED_ALLOWLIST == set(), \
        "modules no verb loads; run them under a verb or allowlist them"
    assert UNLOADED_ALLOWLIST - unloaded == set(), \
        "allowlisted modules a verb now loads; strike them off the list"
