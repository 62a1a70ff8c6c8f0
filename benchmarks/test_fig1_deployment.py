"""E1 — Figure 1: the GENIO deployment across cloud, edge and far-edge.

Regenerates the three-layer inventory with per-layer latency profiles and
benchmarks full-platform assembly time.
"""

from repro.platform import build_genio_deployment


def test_fig1_deployment_inventory(benchmark, report):
    deployment = benchmark(build_genio_deployment, 2, 4)
    inventory = deployment.deployment_inventory()

    lines = ["Figure 1 — GENIO deployment across cloud, edge and far-edge",
             "",
             f"{'layer':<10} {'devices':>8} {'latency':>9}  device type / role"]
    for layer in ("far-edge", "edge", "cloud"):
        info = inventory[layer]
        lines.append(
            f"{layer:<10} {len(info['devices']):>8} "
            f"{info['latency_ms']:>7.1f}ms  {info['device_type']} @ "
            f"{info['location']}")
        lines.append(f"{'':<10} {'':>8} {'':>9}  suited for: "
                     f"{info['suited_for']}")
    lines.append("")
    lines.append("far-edge ONUs: " + ", ".join(inventory["far-edge"]["devices"]))
    report("E1_fig1_deployment", "\n".join(lines))

    # The shape the paper's Figure 1 asserts:
    assert len(inventory["far-edge"]["devices"]) > \
        len(inventory["edge"]["devices"]) >= len(inventory["cloud"]["devices"])
    latencies = [inventory[l]["latency_ms"] for l in ("far-edge", "edge", "cloud")]
    assert latencies == sorted(latencies)
    assert all(onu.activated for onu in deployment.onus.values())
