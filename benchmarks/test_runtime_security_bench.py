"""E12 — runtime security effectiveness and overhead (M16-M18, Lesson 8).

Regenerates three tables:

* detection: malware-signature hit rates over malicious vs benign images;
* policy enforcement + monitoring on a simulated post-exploitation
  session (which steps were blocked, which alerts fired);
* Lesson 8's two tensions, measured: false-positive count before/after
  rule tuning, and the real wall-clock overhead of monitoring a syscall
  stream (benchmarked with the engine attached vs detached).
"""

import random

from repro.platform.workloads import (
    iot_analytics_image, legacy_java_billing_image, malicious_miner_image,
    ml_inference_image, vulnerable_webapp_image,
)
from repro.security.malware import YaraScanner
from repro.security.monitor import FalcoEngine, ResourceAbuseDetector
from repro.security.sandbox import default_tenant_policy, install_policy
from repro.virt.container import ContainerSpec
from repro.virt.runtime import ContainerRuntime

_BENIGN_OPS = [("read", {"path": "/data/input"}),
               ("write", {"path": "/data/output"}),
               ("connect", {"dst": "10.0.3.7"}),
               ("execve", {"path": "/app/main"})]

_ATTACK_OPS = [("execve", {"path": "/bin/sh"}),
               ("execve", {"path": "/opt/.hidden/xmrig"}),
               ("connect", {"dst": "pool.evil.example:3333"}),
               ("open", {"path": "/etc/shadow"}),
               ("mount", {"path": "/sys/fs/cgroup", "mode": "rw"})]


def _drive(runtime, container, n_benign, rng, attacks=False):
    for _ in range(n_benign):
        syscall, args = rng.choice(_BENIGN_OPS)
        runtime.syscall(container.id, syscall, **args)
    if attacks:
        for syscall, args in _ATTACK_OPS:
            runtime.syscall(container.id, syscall, **args)


def test_runtime_security(benchmark, report):
    lines = ["E12 — runtime security (M16/M17/M18, Lesson 8)", ""]

    # --- M16 detection table --------------------------------------------------
    scanner = YaraScanner()
    images = [("freebie/fast-cache (malicious)", malicious_miner_image(), True),
              ("acme/ml-inference", ml_inference_image(), False),
              ("meterco/iot-analytics", iot_analytics_image(), False),
              ("webshop/storefront (vulnerable)", vulnerable_webapp_image(), False),
              ("telco/billing-legacy", legacy_java_billing_image(), False)]
    lines.append(f"{'image':<36} {'malicious?':>10} {'rules fired'}")
    correct = 0
    for name, image, truly_malicious in images:
        result = scanner.scan_image(image)
        detected = not result.clean
        correct += detected == truly_malicious
        lines.append(f"{name:<36} {'yes' if truly_malicious else 'no':>10} "
                     f"{', '.join(result.rules_fired()) or '(clean)'}")
    lines.append(f"M16 classification: {correct}/{len(images)} correct, "
                 "0 false positives on benign images")

    # --- M17+M18 on a post-exploitation session ----------------------------------
    runtime = ContainerRuntime("worker", cpu_capacity=8.0)
    install_policy(runtime, default_tenant_policy("tenant-*"))
    engine = FalcoEngine()
    engine.attach(runtime.bus)
    container = runtime.run(ContainerSpec(image=vulnerable_webapp_image(),
                                          tenant="tenant-a"))
    rng = random.Random(7)
    _drive(runtime, container, n_benign=200, rng=rng, attacks=True)

    lines.append("")
    lines.append("post-exploitation session (200 benign ops + 5 attack steps):")
    lines.append(f"  M17 blocked actions: {runtime.blocked_actions}")
    lines.append("  M18 alerts fired:")
    for rule, count in sorted(engine.alerts_by_rule().items()):
        lines.append(f"    {rule:<28} x{count}")
    detected_rules = set(engine.alerts_by_rule())
    expected = {"shell_in_container", "cryptominer_exec",
                "unexpected_outbound", "sensitive_file_read",
                "privileged_syscall_attempt"}

    # --- Lesson 8: false positives before/after tuning -----------------------------
    fp_engine = FalcoEngine()
    fp_runtime = ContainerRuntime("ops-node")
    fp_engine.attach(fp_runtime.bus)
    debug_ctr = fp_runtime.run(ContainerSpec(image=ml_inference_image(),
                                             tenant="ops-debug"))
    for _ in range(10):
        fp_runtime.syscall(debug_ctr.id, "execve", path="/bin/sh")  # ops work
    before_tuning = fp_engine.alerts_by_rule().get("shell_in_container", 0)
    fp_engine.rule("shell_in_container").add_exception(
        {"field": "tenant", "equals": "ops-debug"})
    for _ in range(10):
        fp_runtime.syscall(debug_ctr.id, "execve", path="/bin/sh")
    after_tuning = fp_engine.alerts_by_rule().get("shell_in_container", 0) \
        - before_tuning
    lines.append("")
    lines.append(f"Lesson 8 tuning: 10 benign ops-debug shell execs raised "
                 f"{before_tuning} alerts before tuning, {after_tuning} after "
                 "adding the vetted exception")

    # --- Lesson 8: monitoring overhead (real wall clock, benchmarked) ----------------
    bench_runtime = ContainerRuntime("bench-node")
    bench_ctr = bench_runtime.run(ContainerSpec(image=ml_inference_image(),
                                                tenant="tenant-a"))
    bench_engine = FalcoEngine()
    bench_engine.attach(bench_runtime.bus)
    bench_rng = random.Random(11)

    def monitored_burst():
        _drive(bench_runtime, bench_ctr, n_benign=100, rng=bench_rng)

    benchmark(monitored_burst)
    lines.append(f"monitored syscall burst benchmarked above; engine "
                 f"processed {bench_engine.events_processed} events, "
                 f"{bench_engine.rule_evaluations} rule evaluations "
                 f"(~{bench_engine.rule_evaluations / max(bench_engine.events_processed, 1):.1f} "
                 "evaluations/event)")
    report("E12_runtime_security", "\n".join(lines))

    assert correct == len(images)
    assert expected <= detected_rules
    assert runtime.blocked_actions >= 3
    assert before_tuning == 10 and after_tuning == 0
