"""Falco-style runtime monitoring engine (M18).

Consumes the event streams the substrates publish (container syscalls,
host file mutations, logins, control-plane audit) and evaluates them
against a customizable rule set — observing *without blocking*, exactly
as the paper contrasts Falco with signature scanners and sandboxes.

Lesson 8's two tensions are first-class:

* **tuning**: every rule carries exception conditions; the experiments
  show the default rules alert on benign operational behaviour (e.g. an
  operator exec'ing a debug shell) until exceptions are added, and that
  over-broad exceptions then miss real attacks;
* **overhead**: the engine counts events and rule evaluations, and
  :meth:`FalcoEngine.overhead_estimate` converts them into a relative
  cost; the E12 bench also measures real wall-clock overhead.

The engine's ``events_processed``, ``rule_evaluations`` and
``rule_errors`` are the one record of what it saw, evaluated and failed
on: fleet shards run with telemetry off and still count. Only alerts,
which the report's telemetry section reads, are also a registry series
(``falco_alerts_total``).

Like Falco's adaptive syscall selection, the engine only collects the
events its rules can match: it holds record subscriptions on its rules'
topics alone, and counts everything else through one tally subscription
(:meth:`~repro.common.events.EventBus.subscribe_tally`), so
``events_processed`` keeps meaning "events seen" while a producer that
honours the bus's interest never builds the rest.

A rule is data, in the one format operators edit (Falco's YAML, as a
dict): a condition is a field predicate, ``{"field": f, op: value}``
with exactly one ``op`` of :data:`LEAF_OPERATORS`, or a combination
``{"all": [...]}``, ``{"any": [...]}`` or ``{"not": {...}}``. Each
exception is a condition in the same grammar. :func:`compile_rule`
checks a whole rule spec and names the rule in every refusal:

    {"rule": "tmp_exec", "desc": "execution from /tmp",
     "priority": "ERROR", "topics": ["runtime.syscall"],
     "condition": {"all": [
         {"field": "syscall", "in": ["execve", "execveat"]},
         {"field": "path", "startswith": "/tmp/"}]},
     "exceptions": [{"field": "tenant", "equals": "ops-debug"}]}

A :class:`FalcoRule` keeps its conditions normalised into nested tuples
and interprets them on each event, so a rule holds no closure and a rule
set pickles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import telemetry
from repro.common.errors import ConfigurationError
from repro.common.events import Event, EventBus, topic_matches

# A condition spec as an operator writes it, and its normalised form:
# ``("all" | "any", children)``, ``("not", child)`` or
# ``(operator, field, expected)``.
Spec = Dict[str, Any]
Node = Tuple[Any, ...]

LEAF_OPERATORS = ("equals", "in", "startswith", "endswith", "contains",
                  "exists", "gt", "lt")
_COMBINATORS = ("all", "any", "not")
# The keys of a rule spec, the first four required.
_RULE_KEYS = ("rule", "desc", "topics", "condition", "priority", "exceptions")

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

    ``condition`` and each of ``exceptions`` are given as condition specs
    and kept normalised (see the module docstring); construction refuses
    a malformed spec with a :class:`ConfigurationError` naming the rule.
    Frozen, so the topics an engine indexed a rule under cannot change
    behind its back; tuning still works because ``exceptions`` is a list
    that :meth:`add_exception` appends to.
    """

    name: str
    description: str
    topics: Tuple[str, ...]
    condition: Node
    priority: Priority = Priority.WARNING
    exceptions: List[Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"a rule needs a non-empty name, got {self.name!r}")
        topics = self.topics
        if (not isinstance(topics, (list, tuple)) or not topics
                or not all(isinstance(topic, str) for topic in topics)):
            raise ConfigurationError(
                f"rule {self.name!r}: 'topics' must be a non-empty list of "
                f"topic names, got {topics!r}")
        if not isinstance(self.exceptions, (list, tuple)):
            raise ConfigurationError(
                f"rule {self.name!r}: 'exceptions' must be a list of "
                f"conditions, got {self.exceptions!r}")
        object.__setattr__(self, "topics", tuple(topics))
        object.__setattr__(self, "condition",
                           _normalise(self.condition, self.name))
        object.__setattr__(self, "exceptions", [
            _normalise(exception, self.name) for exception in self.exceptions])

    def applies_to(self, topic: str) -> bool:
        return any(topic_matches(t, topic) for t in self.topics)

    def evaluate(self, event: Event) -> bool:
        payload = event.payload
        if not _holds(self.condition, payload):
            return False
        for exception in self.exceptions:
            if _holds(exception, payload):
                return False
        return True

    def add_exception(self, exception: Spec) -> None:
        """Tuning: suppress matches the operator has vetted as benign."""
        self.exceptions.append(_normalise(exception, self.name))


def _normalise(spec: Spec, rule: str) -> Node:
    """Check one condition spec of ``rule`` and turn it into nested tuples."""
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"rule {rule!r}: a condition must be a dict, got {spec!r}")
    combinator = next((key for key in _COMBINATORS if key in spec), None)
    if combinator is not None:
        if len(spec) != 1:
            raise ConfigurationError(
                f"rule {rule!r}: {combinator!r} takes no other keys: {spec!r}")
        operand = spec[combinator]
        if combinator == "not":
            return ("not", _normalise(operand, rule))
        if not isinstance(operand, (list, tuple)):
            raise ConfigurationError(
                f"rule {rule!r}: {combinator!r} takes a list of conditions, "
                f"got {operand!r}")
        return (combinator, tuple(_normalise(child, rule) for child in operand))
    name = spec.get("field")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"rule {rule!r}: predicate needs a 'field': {spec!r}")
    operators = [key for key in spec if key != "field"]
    if len(operators) != 1 or operators[0] not in LEAF_OPERATORS:
        raise ConfigurationError(
            f"rule {rule!r}: predicate on {name!r} needs exactly one "
            f"operator of {LEAF_OPERATORS}, got {operators}")
    operator = operators[0]
    expected = spec[operator]
    if operator == "in":
        # A string would match its substrings: "exec" in "execve".
        if not isinstance(expected, (list, tuple)):
            raise ConfigurationError(
                f"rule {rule!r}: 'in' on {name!r} takes a list of values, "
                f"got {expected!r}")
        expected = tuple(expected)
    elif operator in ("startswith", "endswith", "contains"):
        if not isinstance(expected, str):
            raise ConfigurationError(
                f"rule {rule!r}: {operator!r} on {name!r} takes a string, "
                f"got {expected!r}")
    elif operator == "exists" and not isinstance(expected, bool):
        raise ConfigurationError(
            f"rule {rule!r}: 'exists' on {name!r} takes true or false, "
            f"got {expected!r}")
    return (operator, name, expected)


def _holds(node: Node, payload: Dict[str, Any]) -> bool:
    """Evaluate a normalised condition against an event payload.

    A field the event does not carry (or carries as ``None``) satisfies
    only ``exists: false``. ``gt``/``lt`` compare with Python's operators,
    so comparing a string field with a number raises, and the engine
    counts that in ``rule_errors``.
    """
    operator = node[0]
    if operator == "all":
        for child in node[1]:
            if not _holds(child, payload):
                return False
        return True
    if operator == "any":
        for child in node[1]:
            if _holds(child, payload):
                return True
        return False
    if operator == "not":
        return not _holds(node[1], payload)
    value = payload.get(node[1])
    expected = node[2]
    if operator == "exists":
        return (value is not None) == expected
    if value is None:
        return False
    if operator == "equals":
        return value == expected
    if operator == "in":
        return value in expected
    if operator == "startswith":
        return str(value).startswith(expected)
    if operator == "endswith":
        return str(value).endswith(expected)
    if operator == "contains":
        return expected in str(value)
    if operator == "gt":
        return value > expected
    return value < expected   # lt


def compile_rule(spec: Spec) -> FalcoRule:
    """Build one rule from an operator's rule spec.

    :raises ConfigurationError: a missing or unknown key, a bad priority,
        topics that are not a non-empty list, or a malformed condition.
    """
    if not isinstance(spec, dict):
        raise ConfigurationError(f"a rule spec must be a dict, got {spec!r}")
    name = spec.get("rule")
    missing = [key for key in _RULE_KEYS[:4] if key not in spec]
    if missing:
        raise ConfigurationError(f"rule {name!r}: spec missing {missing}")
    unknown = sorted(key for key in spec if key not in _RULE_KEYS)
    if unknown:
        raise ConfigurationError(
            f"rule {name!r}: unknown keys {unknown}; use {_RULE_KEYS}")
    priority = spec.get("priority", "WARNING")
    if not isinstance(priority, str) or priority not in Priority.__members__:
        raise ConfigurationError(
            f"rule {name!r}: unknown priority {priority!r}; "
            f"use one of {list(Priority.__members__)}")
    return FalcoRule(name=name, description=spec["desc"],
                     topics=spec["topics"], condition=spec["condition"],
                     priority=Priority[priority],
                     exceptions=spec.get("exceptions", []))


def compile_ruleset(specs: Sequence[Spec]) -> List[FalcoRule]:
    """Build a whole rule file, refusing duplicate rule names."""
    rules: List[FalcoRule] = []
    seen = set()
    for spec in specs:
        rule = compile_rule(spec)
        if rule.name in seen:
            raise ConfigurationError(f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)
        rules.append(rule)
    return rules


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
        self._alerts_counter = None if metrics is None else metrics.counter(
            "falco_alerts_total", "Alerts fired, by rule.", ("rule",))
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

    def _handle(self, event: Event) -> None:
        topic = event.topic
        plan = self._plans.get(topic)
        if plan is None:
            plan = self._plans[topic] = tuple(
                rule for rule in self._rules if rule.applies_to(topic))
        for rule in plan:
            self.rule_evaluations += 1
            try:
                fired = rule.evaluate(event)
            except Exception:
                # A broken (operator-tuned) rule must never take down the
                # mediation path it observes — count it and keep going.
                self.rule_errors[rule.name] = \
                    self.rule_errors.get(rule.name, 0) + 1
                continue
            if fired:
                alert = Alert(
                    rule=rule.name, priority=rule.priority,
                    timestamp=event.timestamp, source=event.source,
                    summary=self._summarize(event))
                self.alerts.append(alert)
                if self._alerts_counter is not None:
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
        """Start a new measurement window: alerts, the event and
        evaluation counts and the per-rule error counts all go to zero."""
        self.alerts.clear()
        self.events_processed = 0
        self.rule_evaluations = 0
        self.rule_errors.clear()


def _not_monitor(event: Event) -> bool:
    """The engine never evaluates monitor events (its own alerts included)."""
    return not event.topic.startswith("monitor.")


# ---------------------------------------------------------------------------
# The default GENIO rule set
# ---------------------------------------------------------------------------

_EXEC = ("execve", "execveat")
_SHELLS = ("/bin/sh", "/bin/bash", "/bin/dash", "/usr/bin/zsh")
_MINERS = ("xmrig", "minerd", "cpuminer")
_SENSITIVE_READS = ("/etc/shadow", "/root/.ssh/id_rsa", "/etc/kubernetes/pki")
_EXPECTED_NETWORKS = ("10.", "registry.genio.example")

# Detection rules for the behaviours Section VI-B names, in the format
# operators edit.
_DEFAULT_RULES: Tuple[Spec, ...] = (
    {"rule": "shell_in_container",
     "desc": "a shell was spawned inside a container",
     "priority": "WARNING", "topics": ["runtime.syscall"],
     "condition": {"all": [{"field": "syscall", "in": _EXEC},
                           {"field": "path", "in": _SHELLS}]}},
    {"rule": "write_below_etc",
     "desc": "write below /etc from a workload",
     "priority": "ERROR", "topics": ["host.file"],
     "condition": {"all": [{"field": "op", "equals": "write"},
                           {"field": "path", "startswith": "/etc/"},
                           {"not": {"field": "actor", "equals": "root"}}]}},
    {"rule": "sensitive_file_read",
     "desc": "read of credential material",
     "priority": "CRITICAL", "topics": ["runtime.syscall", "host.syscall"],
     "condition": {"all": [
         {"field": "syscall", "in": ["open", "openat", "read"]},
         {"any": [{"field": "path", "startswith": prefix}
                  for prefix in _SENSITIVE_READS]}]}},
    {"rule": "unexpected_outbound",
     "desc": "outbound connection to an unexpected destination",
     "priority": "ERROR", "topics": ["runtime.syscall"],
     # An empty destination names no peer, so it does not fire.
     "condition": {"all": [
         {"field": "syscall", "in": ["connect", "sendto"]},
         {"field": "dst", "exists": True},
         {"not": {"field": "dst", "equals": ""}},
         {"not": {"any": [{"field": "dst", "startswith": prefix}
                          for prefix in _EXPECTED_NETWORKS]}}]}},
    {"rule": "privileged_syscall_attempt",
     "desc": "container attempted a kernel-surface syscall",
     "priority": "CRITICAL", "topics": ["runtime.syscall"],
     "condition": {"field": "syscall", "in": [
         "init_module", "finit_module", "kexec_load", "mount", "ptrace",
         "setns", "pivot_root"]}},
    {"rule": "cryptominer_exec",
     "desc": "known miner binary executed",
     "priority": "CRITICAL", "topics": ["runtime.syscall", "host.syscall"],
     "condition": {"all": [
         {"field": "syscall", "in": _EXEC},
         {"any": [{"field": "path", "contains": miner}
                  for miner in _MINERS]}]}},
    {"rule": "failed_login",
     "desc": "failed interactive login",
     "priority": "NOTICE", "topics": ["host.login"],
     # ``equals`` compares with ==, so a 0 would match too; Host.login
     # emits ``success`` as a bool, where == False and ``is False`` agree.
     "condition": {"field": "success", "equals": False}},
    {"rule": "anonymous_control_plane_write",
     "desc": "anonymous principal attempted a control-plane write",
     "priority": "CRITICAL", "topics": ["kube.audit"],
     "condition": {"all": [
         {"field": "principal", "contains": "anonymous"},
         {"field": "verb", "in": ["create", "update", "patch", "delete"]}]}},
)


def default_rules() -> List[FalcoRule]:
    """Detection rules for the behaviours Section VI-B names."""
    return compile_ruleset(_DEFAULT_RULES)
