"""Examples: every ``examples/*.py`` runs to completion, its stdout pinned.

Each example runs in its own interpreter, as a reader would run it,
with ``src`` on ``PYTHONPATH``. The test checks exit status 0 and the
sha256 of everything the example prints. The examples drive the
substrate constructors end to end (PON links, container runtimes,
Kubernetes, the attack library), so a refactor of those layers that
moves any printed value shows here.

A change that is *meant* to change an example's output updates its pin
and says so, with the reason, in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

# CPython 3.12 made ``sum()`` of floats compensated (Neumaier); each
# example pins one digest for the plain float sum and one for the
# compensated sum, as tests/test_golden_output.py does.
COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0

EXAMPLE_DIGESTS = {
    "appsec_pipeline.py": (
        "f2c34940617fefbe4459970d7b829a1ffcda3da45a7ce49af0db261a98beff39",
        "f2c34940617fefbe4459970d7b829a1ffcda3da45a7ce49af0db261a98beff39"),
    "business_user_onboarding.py": (
        "37e5591c4e43eb2a8eb51e7f0e6294b3dca43eff27e82863dde88c03bae2009a",
        "37e5591c4e43eb2a8eb51e7f0e6294b3dca43eff27e82863dde88c03bae2009a"),
    "far_edge_placement.py": (
        "680c4d78101e6e8123e2d945467c2f7f1b82d12fd9c2263c9929b642b9d61097",
        "680c4d78101e6e8123e2d945467c2f7f1b82d12fd9c2263c9929b642b9d61097"),
    "operations_day.py": (
        "e073e31b315c9374c18515249c7ff3211609857debf850c14fc7f4edf96880da",
        "e073e31b315c9374c18515249c7ff3211609857debf850c14fc7f4edf96880da"),
    "quickstart.py": (
        "dd956bf0d56907a7f449f56738ba80b4107ace30477571fac83a060bb4f9631f",
        "dd956bf0d56907a7f449f56738ba80b4107ace30477571fac83a060bb4f9631f"),
    "secure_onboarding.py": (
        "6fda4bd1df40713a64282304f3dabd632b54ca4195be20b9bc4415fdb9fc83d2",
        "6fda4bd1df40713a64282304f3dabd632b54ca4195be20b9bc4415fdb9fc83d2"),
    "tenant_attack_simulation.py": (
        "0dc64463cd17148e024106e6ff2b55c8495fcbf73ac3968744ed764021353966",
        "0dc64463cd17148e024106e6ff2b55c8495fcbf73ac3968744ed764021353966"),
    "vulnerability_management.py": (
        "d0ebe8ca6be7bcacadb2a072db2e8c0d6dc189309b92427416f96ebffcdbd796",
        "d0ebe8ca6be7bcacadb2a072db2e8c0d6dc189309b92427416f96ebffcdbd796"),
}


def test_every_example_is_pinned():
    assert sorted(EXAMPLE_DIGESTS) == sorted(
        path.name for path in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
def test_example_output_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(EXAMPLES / name)],
                            cwd=ROOT, env=env, capture_output=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr.decode()
    plain_sum, compensated_sum = EXAMPLE_DIGESTS[name]
    pinned = compensated_sum if COMPENSATED_SUM else plain_sum
    assert hashlib.sha256(result.stdout).hexdigest() == pinned
