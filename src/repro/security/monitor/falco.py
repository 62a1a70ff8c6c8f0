"""Falco-style runtime monitoring engine (M18).

Consumes the event streams the substrates publish (container syscalls,
host file mutations, logins, control-plane audit) and evaluates them
against a customizable rule set — observing *without blocking*, exactly
as the paper contrasts Falco with signature scanners and sandboxes.

Lesson 8's two tensions are first-class:

* **tuning**: every rule carries exception predicates; the experiments
  show the default rules alert on benign operational behaviour (e.g. an
  operator exec'ing a debug shell) until exceptions are added, and that
  over-broad exceptions then miss real attacks;
* **overhead**: the engine counts events and rule evaluations, and
  :meth:`FalcoEngine.overhead_estimate` converts them into a relative
  cost; the E12 bench also measures real wall-clock overhead.

Like Falco's adaptive syscall selection, the engine only collects the
events its rules can match: it holds record subscriptions on its rules'
topics alone, and counts everything else through one tally subscription
(:meth:`~repro.common.events.EventBus.subscribe_tally`), so
``events_processed`` keeps meaning "events seen" while a producer that
honours the bus's interest never builds the rest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import telemetry
from repro.common.events import Event, EventBus, topic_matches

Condition = Callable[[Event], bool]

# The CPU cost :meth:`FalcoEngine.overhead_estimate` charges per rule
# evaluation, in microseconds.
COST_PER_EVALUATION_US = 2.0


class Priority(enum.IntEnum):
    NOTICE = 1
    WARNING = 2
    ERROR = 3
    CRITICAL = 4


@dataclass(frozen=True)
class FalcoRule:
    """One detection rule.

    Frozen, so the topics an engine indexed a rule under cannot change
    behind its back; tuning still works because ``exceptions`` is a list
    that :meth:`add_exception` appends to.
    """

    name: str
    description: str
    topics: Tuple[str, ...]
    condition: Condition
    priority: Priority = Priority.WARNING
    exceptions: List[Condition] = field(default_factory=list)

    def applies_to(self, topic: str) -> bool:
        return any(topic_matches(t, topic) for t in self.topics)

    def evaluate(self, event: Event) -> bool:
        if not self.condition(event):
            return False
        return not any(exception(event) for exception in self.exceptions)

    def add_exception(self, exception: Condition) -> None:
        """Tuning: suppress matches the operator has vetted as benign."""
        self.exceptions.append(exception)


@dataclass
class Alert:
    """One fired detection."""

    rule: str
    priority: Priority
    timestamp: float
    source: str
    summary: str


class FalcoEngine:
    """The monitoring engine attached to an event bus.

    With ``publish_alerts=True`` every fired alert is also re-published on
    the bus under the ``monitor.alert`` topic, so downstream consumers
    (the live correlator, dashboards) can subscribe instead of polling
    ``engine.alerts``. The engine never evaluates its own alert events
    (no feedback loop): ``monitor.*`` topics are excluded from handling.

    Dispatch is indexed by topic, the way Falco indexes its ruleset by
    event type: the first event of each topic fixes that topic's plan,
    the rules whose :meth:`FalcoRule.applies_to` accepts it, and later
    events of the topic walk only that plan. ``rules`` is a tuple of
    frozen rules, and assigning it drops every plan and, on an attached
    engine, re-subscribes to the new rules' topics. ``events_processed``
    counts every non-``monitor.*`` event through a tally subscription,
    whether or not a rule reads its topic.
    """

    def __init__(self, rules: Optional[Sequence[FalcoRule]] = None,
                 publish_alerts: bool = False) -> None:
        self.alerts: List[Alert] = []
        self.events_processed = 0
        self.rule_evaluations = 0
        self.rule_errors: Dict[str, int] = {}
        self.publish_alerts = publish_alerts
        self._bus: Optional[EventBus] = None
        self._unsubscribe_tally: Optional[Callable[[], None]] = None
        self._rule_unsubscribes: List[Callable[[], None]] = []
        metrics = telemetry.active_registry()
        self._metrics = metrics
        if metrics is not None:
            self._events_counter = metrics.counter(
                "falco_events_total", "Events seen by the runtime monitor.")
            self._evaluations_counter = metrics.counter(
                "falco_rule_evaluations_total", "Rule condition evaluations.")
            self._alerts_counter = metrics.counter(
                "falco_alerts_total", "Alerts fired, by rule.", ("rule",))
            self._errors_counter = metrics.counter(
                "falco_rule_errors_total", "Broken-rule exceptions, by rule.",
                ("rule",))
        # The label-free child of the per-event counter, resolved on
        # first use: a counter never incremented stays unexported.
        self._events_child = None
        self.rules = rules if rules is not None else default_rules()

    @property
    def rules(self) -> Tuple[FalcoRule, ...]:
        return self._rules

    @rules.setter
    def rules(self, rules: Sequence[FalcoRule]) -> None:
        self._rules = tuple(rules)
        self._plans: Dict[str, Tuple[FalcoRule, ...]] = {}
        if self._bus is not None:
            self._subscribe_rules()

    # -- lifecycle -------------------------------------------------------------

    def attach(self, bus: EventBus) -> None:
        if self._bus is not None:
            raise ValueError("engine already attached")
        self._bus = bus
        self._unsubscribe_tally = bus.subscribe_tally("", self._count)
        self._subscribe_rules()

    def _subscribe_rules(self) -> None:
        """One record subscription per rule topic not under another, so
        each event reaches :meth:`_handle` once."""
        for unsubscribe in self._rule_unsubscribes:
            unsubscribe()
        topics = {topic for rule in self._rules for topic in rule.topics}
        self._rule_unsubscribes = [
            self._bus.subscribe(topic, self._handle, predicate=_not_monitor)
            for topic in sorted(topics)
            if not any(other != topic and topic_matches(other, topic)
                       for other in topics)]

    def detach(self) -> None:
        if self._bus is not None:
            self._unsubscribe_tally()
            for unsubscribe in self._rule_unsubscribes:
                unsubscribe()
            self._unsubscribe_tally = None
            self._rule_unsubscribes = []
            self._bus = None

    def rule(self, name: str) -> FalcoRule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(f"no rule named {name!r}")

    # -- the hot path ------------------------------------------------------------

    def _count(self, topic: str, count: int) -> None:
        """Tally subscriber: every non-``monitor.*`` event is processed."""
        if topic.startswith("monitor."):
            return
        self.events_processed += count
        if self._metrics is not None:
            child = self._events_child
            if child is None:
                child = self._events_child = self._events_counter.labels()
            child.inc(count)

    def _handle(self, event: Event) -> None:
        metrics = self._metrics
        topic = event.topic
        plan = self._plans.get(topic)
        if plan is None:
            plan = self._plans[topic] = tuple(
                rule for rule in self._rules if rule.applies_to(topic))
        for rule in plan:
            self.rule_evaluations += 1
            if metrics is not None:
                self._evaluations_counter.inc()
            try:
                fired = rule.evaluate(event)
            except Exception:
                # A broken (operator-tuned) rule must never take down the
                # mediation path it observes — count it and keep going.
                self.rule_errors[rule.name] = \
                    self.rule_errors.get(rule.name, 0) + 1
                if metrics is not None:
                    self._errors_counter.inc(rule=rule.name)
                continue
            if fired:
                alert = Alert(
                    rule=rule.name, priority=rule.priority,
                    timestamp=event.timestamp, source=event.source,
                    summary=self._summarize(event))
                self.alerts.append(alert)
                if metrics is not None:
                    self._alerts_counter.inc(rule=rule.name)
                if self.publish_alerts and self._bus is not None:
                    self._bus.emit(
                        "monitor.alert", "falco", alert.timestamp,
                        rule=alert.rule, priority=int(alert.priority),
                        alert_source=alert.source, summary=alert.summary)

    @staticmethod
    def _summarize(event: Event) -> str:
        interesting = {k: v for k, v in event.payload.items()
                       if k in ("syscall", "path", "process", "dst", "user",
                                "container", "tenant", "op", "actor",
                                "principal", "verb", "resource")}
        details = " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
        return f"{event.topic}: {details}"

    # -- analysis -----------------------------------------------------------------

    def alerts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.rule] = counts.get(alert.rule, 0) + 1
        return counts

    def alerts_at_least(self, priority: Priority) -> List[Alert]:
        return [a for a in self.alerts if a.priority >= priority]

    def overhead_estimate(self) -> float:
        """Estimated CPU microseconds spent evaluating rules so far."""
        return self.rule_evaluations * COST_PER_EVALUATION_US

    def reset_counters(self) -> None:
        self.alerts.clear()
        self.events_processed = 0
        self.rule_evaluations = 0


def _not_monitor(event: Event) -> bool:
    """The engine never evaluates monitor events (its own alerts included)."""
    return not event.topic.startswith("monitor.")


# ---------------------------------------------------------------------------
# The default GENIO rule set
# ---------------------------------------------------------------------------

_SHELLS = ("/bin/sh", "/bin/bash", "/bin/dash", "/usr/bin/zsh")
_MINERS = ("xmrig", "minerd", "cpuminer")
_SENSITIVE_READS = ("/etc/shadow", "/root/.ssh/id_rsa", "/etc/kubernetes/pki")
_EXPECTED_NETWORKS = ("10.", "registry.genio.example")


def default_rules() -> List[FalcoRule]:
    """Detection rules for the behaviours Section VI-B names."""
    return [
        FalcoRule(
            name="shell_in_container",
            description="a shell was spawned inside a container",
            topics=("runtime.syscall",),
            condition=lambda e: (e.get("syscall") in ("execve", "execveat")
                                 and str(e.get("path", "")) in _SHELLS),
            priority=Priority.WARNING),
        FalcoRule(
            name="write_below_etc",
            description="write below /etc from a workload",
            topics=("host.file",),
            condition=lambda e: (e.get("op") == "write"
                                 and str(e.get("path", "")).startswith("/etc/")
                                 and e.get("actor") != "root"),
            priority=Priority.ERROR),
        FalcoRule(
            name="sensitive_file_read",
            description="read of credential material",
            topics=("runtime.syscall", "host.syscall"),
            condition=lambda e: (e.get("syscall") in ("open", "openat", "read")
                                 and any(str(e.get("path", "")).startswith(p)
                                         for p in _SENSITIVE_READS)),
            priority=Priority.CRITICAL),
        FalcoRule(
            name="unexpected_outbound",
            description="outbound connection to an unexpected destination",
            topics=("runtime.syscall",),
            condition=lambda e: (e.get("syscall") in ("connect", "sendto")
                                 and bool(e.get("dst"))
                                 and not any(str(e.get("dst", "")).startswith(p)
                                             for p in _EXPECTED_NETWORKS)),
            priority=Priority.ERROR),
        FalcoRule(
            name="privileged_syscall_attempt",
            description="container attempted a kernel-surface syscall",
            topics=("runtime.syscall",),
            condition=lambda e: e.get("syscall") in (
                "init_module", "finit_module", "kexec_load", "mount",
                "ptrace", "setns", "pivot_root"),
            priority=Priority.CRITICAL),
        FalcoRule(
            name="cryptominer_exec",
            description="known miner binary executed",
            topics=("runtime.syscall", "host.syscall"),
            condition=lambda e: (e.get("syscall") in ("execve", "execveat")
                                 and any(m in str(e.get("path", ""))
                                         for m in _MINERS)),
            priority=Priority.CRITICAL),
        FalcoRule(
            name="failed_login",
            description="failed interactive login",
            topics=("host.login",),
            condition=lambda e: e.get("success") is False,
            priority=Priority.NOTICE),
        FalcoRule(
            name="anonymous_control_plane_write",
            description="anonymous principal attempted a control-plane write",
            topics=("kube.audit",),
            condition=lambda e: ("anonymous" in str(e.get("principal", ""))
                                 and e.get("verb") in ("create", "update",
                                                       "patch", "delete")),
            priority=Priority.CRITICAL),
    ]
