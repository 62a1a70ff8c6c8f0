"""The repository benchmark: one workload per call, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see ``workloads.py`` for why
each exists): ``fleet-wide-upstream``, ``fleet-sharded-bidir``,
``secure-pipeline``.

Every sample runs in a fresh interpreter (``sample.py``) with
``PYTHONPATH=src``; after one warm-up sample, samples repeat until
``--seconds`` have passed (at least three), and each metric is reported
as the median over samples with its quartiles. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the metric names and
units come from ``BENCHMARK.json``.

Times are host seconds scaled to a reference interpreter speed (see
``ScaledClock`` in ``workloads.py``): the shared cores swing in speed by
up to 2x, and the scaling removes that swing. Unscaled wall times are
printed beside them.

``--trace 0`` (timed) reports the end-to-end metrics:

* ``setup_s`` -- from nothing to ready to run: building the
  ``ParallelFleetDriver`` until every shard worker answers, or
  ``build_genio_deployment`` plus ``SecurityPipeline`` (with its CVE
  corpus);
* ``run_s`` -- the timed call: ``driver.run()`` or
  ``SecurityPipeline.apply()``;
* ``peak_rss_mb`` -- peak RSS of the sample process plus its largest
  shard worker.

It also prints, without gating them, the workload-specific figures:
``tenant_cycles_per_s`` (tenants x traffic cycles / ``run_s``),
``interval_p50_ms`` and ``interval_tail_ms`` (run start to the first,
then between consecutive ``driver.detector.sample_metrics`` calls: one
0.1 s simulated monitor interval each), ``pipeline_s`` (``run_s`` of
``secure-pipeline``) and ``failed_share``. Output checks run on every
sample, and every sample of one call must render the same report (same
seed). For ``fleet-sharded-bidir`` one extra sample at ``workers=1``,
outside the timed loop, must render it byte-identically too.

``--trace 1`` reports the per-layer metrics. It alternates untraced and
traced samples: in-shard layers are traced at ``workers=1`` (spawned
workers do not inherit the wrappers), the ``fleet.*`` spans come from a
traced sample at the workload's real worker count, and the tracing
overhead is traced versus untraced ``run_s`` at ``workers=1``. Span
times (``*_busy_s``, ``*_self_s`` and the other per-layer seconds) are
unscaled wall seconds. Metrics of layers a workload does not use read 0.

Each result (seed, source revision, median and quartiles per metric) is
appended to ``perfbench/out/results.jsonl``; traced samples leave their
spans in ``perfbench/out/spans-*.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120.0
# Sampling stops by this many seconds even if --seconds asks for more,
# which keeps one call well inside three minutes.
SAMPLING_CAP_S = 120.0
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
# Mitigation ids of the seven default pipeline steps, as span labels.
PIPELINE_STEPS = ("M1-M2", "M3-M4", "M5-M6-M7", "M8-M9-M12", "M10-M11",
                  "M13-M14-M15", "M16-M17-M18")

Sample = Dict[str, Any]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def source_rev() -> str:
    """The git revision, or a hash of ``src/`` outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the sample's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_sample(workload: str, seed: int, mode: str, workers: int,
               spans: Optional[Path] = None) -> Sample:
    """One sample in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workers", str(workers)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # Own process group, so the sample is stopped together with anything
    # it started (shard workers, the multiprocessing resource tracker).
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} sample timed out") from None
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"{workload} sample ({mode}, workers={workers}) "
                         f"exited {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["mode"], result["workers"] = mode, workers
    return result


def collect(kinds: Sequence[Tuple[str, int]], seconds: float,
            sample: Callable[[str, int], Sample]) -> List[Sample]:
    """Cycle through ``kinds`` until ``seconds`` pass (whole rounds).

    A first warm-up sample fills the page cache a fresh checkout starts
    without (its worker spawn reads every module cold); it is checked
    like the others but marked ``mode="warmup"`` and left out of the
    metrics.
    """
    warmup = sample(*kinds[0])
    warmup["mode"] = "warmup"
    samples: List[Sample] = [warmup]
    started = time.monotonic()
    while True:
        for mode, workers in kinds:
            samples.append(sample(mode, workers))
        elapsed = time.monotonic() - started
        enough = len(samples) > MIN_SAMPLES and elapsed >= seconds
        if enough or elapsed >= SAMPLING_CAP_S:
            return samples


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), quartiles as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """Highest listed percentile with at least 10 samples beyond it.

    Returns (percentile, nearest-rank value, samples beyond); the median
    when there are fewer than 20 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * n - 1e-9))
        if n - rank >= 10:
            return percentile, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def check_failures(samples: List[Sample]) -> Tuple[int, List[str]]:
    """Failed samples: output checks, then same-seed digest agreement."""
    reference = samples[0]["digest"]
    failed = 0
    reasons: List[str] = []
    for sample in samples:
        errors = list(sample["errors"])
        if sample["digest"] != reference:
            errors.append(f"report digest differs at workers="
                          f"{sample['workers']} ({sample['mode']})")
        if errors:
            failed += 1
            reasons.extend(errors)
    return failed, reasons


def fmt(name: str, unit: str, values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return (f"  {name:<32} {median:>14.6g} {unit:<6} "
            f"[q1 {q1:.6g}, q3 {q3:.6g}] n={len(values)}")


def interval_lines(samples: List[Sample]) -> Tuple[List[str], float, float]:
    """Printed interval figures plus (p50, tail) over all samples."""
    intervals = [x for s in samples for x in s["intervals_ms"]]
    percentile, value, beyond = tail(intervals)
    lines = [fmt("interval_p50_ms", "ms", intervals),
             f"  {'interval_tail_ms':<32} {value:>14.6g} {'ms':<6} "
             f"p{percentile:g} of {len(intervals)} intervals, "
             f"{beyond} beyond"]
    return lines, statistics.median(intervals), value


def timed(workload: str, seed: int, seconds: float,
          log: List[str]) -> Tuple[Dict[str, List[float]], List[Sample]]:
    spec = WORKLOADS[workload]
    workers = spec.workers()
    samples = collect([("timed", workers)], seconds,
                      lambda mode, w: run_sample(workload, seed, mode, w))
    timed_samples = samples[1:]
    log.append(f"timed samples: {len(timed_samples)} at workers={workers} "
               f"(+1 warm-up)")
    if spec.kind == "fleet" and workers > 1:
        # Worker invariance, outside the timed loop: the same seed at
        # workers=1 must render the byte-identical report.
        samples.append(run_sample(workload, seed, "timed", 1))
        log.append("  +1 invariance sample at workers=1 (report digest "
                   "must match)")

    log.append(fmt("setup_wall_s (unscaled)", "s",
                   [s["setup_wall_s"] for s in timed_samples]))
    log.append(fmt("run_wall_s (unscaled)", "s",
                   [s["run_wall_s"] for s in timed_samples]))
    if spec.kind == "fleet":
        log.append(fmt("tenant_cycles_per_s", "1/s",
                       [s["tenant_cycles"] / s["run_s"]
                        for s in timed_samples]))
        log.extend(interval_lines(timed_samples)[0])
        log.append(f"  offered upstream load: "
                   f"{timed_samples[0]['offered_x_line']:.2f}x line rate")
    else:
        log.append(fmt("pipeline_s", "s",
                       [s["run_s"] for s in timed_samples]))
    values = {name: [s[name] for s in timed_samples]
              for name in ("setup_s", "run_s", "peak_rss_mb")}
    return values, samples


def layer_metrics(sample: Sample) -> Dict[str, float]:
    """Per-layer metrics of one traced sample."""
    spans, counts = sample["spans"], sample["counts"]
    state = sample.get("state", {})

    def busy(name: str) -> float:
        return spans.get(name, {}).get("busy_s", 0.0)

    def self_time(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "profiles.batch_busy_s": busy("profiles.batch"),
        "profiles.requests": counts.get("profiles.requests", 0),
        "qos.admit_busy_s": busy("qos.admit"),
        "qos.admit_calls": calls("qos.admit"),
        "qos.requests_in": counts.get("qos.requests_in", 0),
        "qos.admitted_share": ratio(counts.get("qos.admitted_out", 0),
                                    counts.get("qos.requests_in", 0)),
        "qos.dropped_requests": state.get("qos.dropped_requests", 0),
        "dba.grant_busy_s": busy("dba.grant"),
        "dba.grant_calls": calls("dba.grant"),
        "dba.backlogged_per_grant": ratio(counts.get("dba.backlogged", 0),
                                          calls("dba.grant")),
        "dba.drain_busy_s": busy("dba.drain"),
        "downstream.run_cycle_busy_s": busy("downstream.run_cycle"),
        "downstream.enqueue_busy_s": busy("downstream.enqueue"),
        "downstream.tail_drops": state.get("downstream.tail_drops", 0),
        "pon.send_upstream_busy_s": busy("pon.send_upstream"),
        "pon.send_downstream_busy_s": busy("pon.send_downstream"),
        "pon.frames": counts.get("pon.frames", 0),
        "pon.retained_frames": state.get("pon.retained_frames", 0),
        "events.merge_busy_s": busy("events.merge"),
        "events.merged": counts.get("events.merged", 0),
        "events.per_tenant_cycle": ratio(counts.get("events.merged", 0),
                                         state.get("tenant_cycles", 0)),
        "events.deliveries": counts.get("events.deliveries", 0),
        "sim.run_until_busy_s": busy("sim.run_until"),
        "sim.run_until_self_s": self_time("sim.run_until"),
        "sim.events_fired": counts.get("sim.events_fired", 0),
        "fleet.spawn_s": busy("fleet.spawn"),
        "fleet.advance_busy_s": busy("fleet.advance"),
        "fleet.advance_self_s": self_time("fleet.advance"),
        "fleet.result_bytes": ratio(counts.get("fleet.result_bytes", 0),
                                    calls("fleet.advance")),
        "fleet.reports_busy_s": busy("fleet.reports"),
        "monitor.sample_busy_s": busy("monitor.sample"),
        "monitor.falco_events": state.get("monitor.falco_events", 0),
        "monitor.falco_rule_evals": state.get("monitor.falco_rule_evals", 0),
        "monitor.alerts": state.get("monitor.alerts", 0),
        "platform.build_s": busy("platform.build"),
        "pipeline.cvedb_build_s": busy("pipeline.cvedb_build"),
    }
    for step in PIPELINE_STEPS:
        metrics[f"pipeline.{step}_s"] = busy(f"pipeline.{step}")
    return metrics


def traced(workload: str, seed: int, seconds: float,
           log: List[str]) -> Tuple[Dict[str, List[float]], List[Sample]]:
    spec = WORKLOADS[workload]
    workers = spec.workers()
    kinds = [("timed", 1), ("traced", 1)]
    if workers > 1:
        kinds += [("timed", workers), ("traced", workers)]
    OUT.mkdir(exist_ok=True)

    def sample(mode: str, w: int) -> Sample:
        spans = (OUT / f"spans-{workload}-seed{seed}-w{w}.jsonl.gz"
                 if mode == "traced" else None)
        return run_sample(workload, seed, mode, w, spans=spans)

    samples = collect(kinds, seconds, sample)

    def of(mode: str, w: int) -> List[Sample]:
        return [s for s in samples if s["mode"] == mode and s["workers"] == w]

    in_shard = [layer_metrics(s) for s in of("traced", 1)]
    at_workers = [layer_metrics(s) for s in of("traced", workers)]
    values = {name: [m[name] for m in (at_workers if name.startswith("fleet.")
                                       else in_shard)]
              for name in in_shard[0]}

    untraced = [s["run_s"] for s in of("timed", 1)]
    traced_run = [s["run_s"] for s in of("traced", 1)]
    overhead = statistics.median(traced_run) / statistics.median(untraced)
    values["trace.untraced_run_s"] = untraced
    values["trace.traced_run_s"] = traced_run
    values["trace.overhead_share"] = [overhead - 1.0]

    # The workload-specific end-to-end figures, untraced at the real
    # worker count; 0 where the workload has no such figure.
    untraced_real = of("timed", workers)
    values["pipeline.apply_s"] = [0.0]
    values["fleet.tenant_cycles_per_s"] = [0.0]
    values["monitor.interval_p50_ms"] = [0.0]
    values["monitor.interval_tail_ms"] = [0.0]
    if spec.kind == "fleet":
        values["fleet.tenant_cycles_per_s"] = [
            s["tenant_cycles"] / s["run_s"] for s in untraced_real]
        lines, p50, tail_ms = interval_lines(untraced_real)
        values["monitor.interval_p50_ms"] = [p50]
        values["monitor.interval_tail_ms"] = [tail_ms]
        log.extend(lines)
    else:
        values["pipeline.apply_s"] = [s["run_s"] for s in untraced_real]

    log.append("traced run: 1 warm-up, "
               + ", ".join(f"{len(of(m, w))} {m} at workers={w}"
                           for m, w in kinds))
    log.append(f"tracing overhead: run_s x{overhead:.3f} traced vs "
               f"untraced at workers=1 "
               f"({statistics.median(traced_run):.4f}s vs "
               f"{statistics.median(untraced):.4f}s)")
    log.append("spans of the last traced sample per worker count "
               "(calls, busy s, self s):")
    last = of("traced", 1)[-1:] + (of("traced", workers)[-1:]
                                   if workers > 1 else [])
    for s in last:
        log.append(f"  workers={s['workers']}:")
        for name, row in sorted(s["spans"].items()):
            log.append(f"    {name:<26} {row['calls']:>9} "
                       f"{row['busy_s']:>10.4f} {row['self_s']:>10.4f}")
    return values, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = declared["per_layer" if args.trace else "end_to_end"]
        rev = source_rev()
        log = [f"workload {args.workload} | seed {args.seed} | rev {rev} | "
               f"trace {args.trace} | usable cores "
               f"{len(os.sched_getaffinity(0))} | python "
               f"{platform.python_version()}"]
        run = traced if args.trace else timed
        values, samples = run(args.workload, args.seed, args.seconds, log)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed, reasons = check_failures(samples)
    log.append("metrics (median [quartiles] over samples):")
    metrics = {}
    record = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        log.append(fmt(name, unit, values[name]))
        q1, median, q3 = quartiles(values[name])
        metrics[name] = {"value": median, "unit": unit}
        record[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
    log.append(f"  {'failed_share':<32} {failed / len(samples):>14.6g} "
               f"{'ratio':<6} ({failed} of {len(samples)} samples)")
    log.extend(f"  check failed: {reason}" for reason in reasons[:20])
    print("\n".join(log))

    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as out:
        out.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "rev": rev,
            "trace": args.trace, "seconds": args.seconds,
            "attempted": len(samples), "failed": failed,
            "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "metrics": record}) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
