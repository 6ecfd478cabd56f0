"""The rule engine (RuleInterpreter) — §5.1's Drools-equivalent.

Implements the §4.2.2 OCL contract precisely:

* ``notify(e: Event)`` — incoming monitoring events are appended to the
  record store (here: latest-value per qualified name plus full journal for
  the validator);
* ``evaluate(qe: QualifiedElement)`` — the latest record's value, else the
  KPI's declared default;
* ``evaluateRules()`` — for every installed rule whose condition evaluates
  ``> 0``, the associated actions are invoked against the VEEM interface.

Evaluation scheduling follows §4.2.2's guidance: "it is for the
implementation to determine when the rules should be checked to fit within
particular timing constraints rather than tying checks to the reception of
any specific monitoring event" — the interpreter evaluates on its own
period (an ``Environment.every`` member, so engines sharing a period share
one kernel event per instant), which defaults to half the tightest rule
time-constraint, so every enabling event is acted on inside its window. A per-rule cooldown
(defaulting to the time constraint) prevents duplicate responses to one
sustained condition spike.

Incremental evaluation
----------------------

A pass no longer re-evaluates every installed rule. At install time each
rule's KPI reference list is resolved once into a KPI→rules inverted index;
``notify()`` marks the measurement's qualified name *dirty*. A pass then
considers only:

* rules referencing a KPI dirtied since the last pass,
* *hot* rules — those whose last evaluation held (fired, was refused by the
  executor, or errored): a sustained condition must re-fire once its
  cooldown lapses even with no new measurements, and an error must keep
  surfacing in the trace, exactly as a full pass would;
* *periodic* rules — those with window operations, ``system.time.*``
  references, or no KPI references at all: their conditions can change with
  the clock alone, so they are checked on every pass.

A rule whose last evaluation was false and whose KPIs are untouched is
provably still false (conditions are pure functions of the latest-value
store for non-periodic rules), so skipping it cannot change the firing
journal. ``RuleInterpreter(..., incremental=False, compiled=False)``
restores the evaluate-everything tree-walking engine for differential
validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ...monitoring.consumers import MeasurementJournal, MeasurementStore
from ...monitoring.distribution import DistributionFramework
from ...monitoring.measurements import Measurement
from ...sim import Environment, Periodic, TraceLog
from ..manifest.elasticity import ElasticityAction, ElasticityRule
from ..manifest.expressions import Bindings, EvaluationContext, WindowOp

__all__ = ["RuleFiring", "RuleInterpreter"]

#: Executes one action; returns True if the action was actually carried out
#: (False = refused, e.g. scale-down with nothing left to remove).
ActionExecutor = Callable[[ElasticityAction, ElasticityRule], bool]


@dataclass(frozen=True)
class RuleFiring:
    """A record of one rule firing (for audits and the instruments)."""

    time: float
    rule: str
    actions_run: int


@dataclass
class _InstalledRule:
    rule: ElasticityRule
    #: install sequence — candidate sets are re-sorted by this so the
    #: incremental engine fires rules in exactly full-pass order
    seq: int
    #: the rule's KPI reference list, resolved once at install time
    refs: frozenset[str]
    #: compiled condition closure (or the interpreted fallback)
    cond: Callable[[Bindings], float]
    #: re-evaluated every pass: window ops / time KPIs / no refs at all
    periodic: bool
    #: last evaluation held or errored — must be re-checked next pass
    hot: bool = False
    last_fired: Optional[float] = None
    firings: int = 0
    suppressed_evaluations: int = 0


class RuleInterpreter:
    """Per-service ECA engine installed by the Service Lifecycle Manager."""

    def __init__(self, env: Environment, service_id: str, *,
                 executor: ActionExecutor,
                 trace: Optional[TraceLog] = None,
                 eval_period_s: Optional[float] = None,
                 kpi_defaults: Optional[dict[str, float]] = None,
                 incremental: bool = True,
                 compiled: bool = True):
        self.env = env
        self.service_id = service_id
        self.executor = executor
        self.trace = trace if trace is not None else TraceLog(env)
        self.store = MeasurementStore()
        self.journal = MeasurementJournal()
        self._rules: dict[str, _InstalledRule] = {}
        self._defaults = dict(kpi_defaults or {})
        self._explicit_period = eval_period_s
        self._incremental = incremental
        self._compiled = compiled
        #: cached :attr:`eval_period_s`; cleared when the rule set changes
        self._period: Optional[float] = None
        self._ticker: Optional[Periodic] = None
        self._seq = 0
        #: KPI qualified name → installed rules referencing it
        self._kpi_index: dict[str, list[_InstalledRule]] = {}
        #: KPIs with a new measurement since the last evaluation pass
        self._dirty: set[str] = set()
        self._periodic: list[_InstalledRule] = []
        self._hot: dict[str, _InstalledRule] = {}
        self._context = EvaluationContext(latest=self._bindings,
                                          window=self._window)
        #: live network subscriptions, cancelled by detach() on undeploy
        self._subscriptions: list = []
        #: span of the most recent measurement per indexed KPI — the causal
        #: parent for firings that measurement enables
        self._kpi_spans: dict[str, object] = {}
        self.firings: list[RuleFiring] = []
        self.evaluations = 0
        #: cumulative number of per-rule condition evaluations
        self.rules_evaluated = 0
        #: cumulative number of rules skipped by the incremental pass
        self.rules_skipped = 0
        #: the most recent pass's tallies, in :data:`_PASS_FIELDS` order
        self._last_pass: Optional[tuple[int, ...]] = None
        #: views registered lazily on the first install() — a service with
        #: no elasticity rules never publishes rule-engine streams
        self._views_registered = False

    def _register_views(self) -> None:
        # The per-pass tallies stay plain ints (the evaluation pass is a
        # microsecond-scale hot path); the registry reads them as views.
        metrics = self.env.metrics
        service_id = self.service_id
        metrics.register_view("core.rules.installed",
                              lambda: len(self._rules), service=service_id)
        metrics.register_view("core.rules.evaluations",
                              lambda: self.evaluations, service=service_id)
        metrics.register_view("core.rules.rules_evaluated",
                              lambda: self.rules_evaluated,
                              service=service_id)
        metrics.register_view("core.rules.rules_skipped",
                              lambda: self.rules_skipped, service=service_id)
        metrics.register_view("core.rules.firings",
                              lambda: len(self.firings), service=service_id)
        self._views_registered = True

    # ------------------------------------------------------------------
    # Installation (§5.1.1 step 3)
    # ------------------------------------------------------------------
    def install(self, rule: ElasticityRule) -> None:
        if rule.name in self._rules:
            raise ValueError(f"rule {rule.name!r} already installed")
        if not self._views_registered:
            self._register_views()
        refs = rule.kpi_references()
        expression = rule.trigger.expression
        cond = expression.compile() if self._compiled else expression.interpret
        periodic = (
            not refs
            or not refs.isdisjoint((self.TIME_NOW, self.TIME_OF_DAY))
            or any(isinstance(node, WindowOp) for node in expression.walk())
        )
        installed = _InstalledRule(rule=rule, seq=self._seq, refs=refs,
                                   cond=cond, periodic=periodic)
        self._seq += 1
        self._rules[rule.name] = installed
        if periodic:
            self._periodic.append(installed)
        for name in refs:
            self._kpi_index.setdefault(name, []).append(installed)
        # A fresh rule has never been evaluated: check it on the next pass.
        self._set_hot(installed, True)
        self._period = None

    def install_all(self, rules) -> None:
        for rule in rules:
            self.install(rule)

    def uninstall(self, name: str) -> None:
        if name not in self._rules:
            raise ValueError(f"no rule {name!r} installed")
        installed = self._rules.pop(name)
        for qname in installed.refs:
            bucket = self._kpi_index.get(qname)
            if bucket is not None:
                bucket.remove(installed)
                if not bucket:
                    del self._kpi_index[qname]
        if installed.periodic:
            self._periodic.remove(installed)
        self._hot.pop(name, None)
        self._period = None

    @property
    def rules(self) -> list[ElasticityRule]:
        return [ir.rule for ir in self._rules.values()]

    @property
    def eval_period_s(self) -> float:
        """Seconds between passes. A running engine picks a change up at
        its next pass, as it reads the period after each one."""
        period = self._period
        if period is None:
            if self._explicit_period is not None:
                period = self._explicit_period
            elif not self._rules:
                period = 5.0
            else:
                period = min(ir.rule.trigger.time_constraint_s
                             for ir in self._rules.values()) / 2.0
            self._period = period
        return period

    # ------------------------------------------------------------------
    # Monitoring input (OCL: RuleInterpreter::notify)
    # ------------------------------------------------------------------
    def notify(self, measurement: Measurement) -> None:
        if measurement.service_id != self.service_id:
            return  # multiple service instances operate independently
        self.store.notify(measurement)
        self.journal.notify(measurement)
        if measurement.qualified_name in self._kpi_index:
            self._dirty.add(measurement.qualified_name)
            # Delivery is synchronous from the publisher's span scope, so the
            # ambient span here *is* the KPI publication — remember it as the
            # causal parent for any firing this measurement enables.
            span = self.env.current_span
            if span is not None:
                self._kpi_spans[measurement.qualified_name] = span

    def subscribe_to(self, network: DistributionFramework):
        subscription = network.subscribe(self.notify,
                                         service_id=self.service_id)
        self._subscriptions.append(subscription)
        return subscription

    def detach(self) -> None:
        """Cancel the interpreter's network subscriptions.

        Called on service undeploy so a torn-down service stops occupying
        the fabric's routing structures (and its route caches are
        invalidated)."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()

    # ------------------------------------------------------------------
    # Evaluation (OCL: RuleInterpreter::evaluateRules / evaluate)
    # ------------------------------------------------------------------
    #: built-in monitorable parameters (§4.2.1: "the current time can be
    #: introduced as a monitorable parameter if necessary") — resolved when
    #: no application measurement shadows them
    TIME_NOW = "system.time.now"
    TIME_OF_DAY = "system.time.timeofday"

    def _bindings(self, name: str) -> Optional[float]:
        """OCL evaluate(QualifiedElement): latest record value or None (the
        KPIRef falls back to its declared default)."""
        value = self.store.value(self.service_id, name)
        if value is not None:
            return float(value)
        if name == self.TIME_NOW:
            return self.env.now
        if name == self.TIME_OF_DAY:
            return self.env.now % 86400.0
        return self._defaults.get(name)

    def _window(self, name: str, window_s: float, op: str) -> Optional[float]:
        """Trailing-window aggregation over the journal, for the §4.2.1
        time-series operations (mean/min/max/count)."""
        since = self.env.now - window_s
        until = self.env.now
        if op == "mean":
            return self.journal.window_mean(self.service_id, name,
                                            since, until)
        if op == "min":
            return self.journal.window_min(self.service_id, name,
                                           since, until)
        if op == "max":
            return self.journal.window_max(self.service_id, name,
                                           since, until)
        if op == "count":
            return float(len(self.journal.window(self.service_id, name,
                                                 since, until)))
        raise ValueError(f"unknown window operation {op!r}")

    def evaluation_context(self) -> EvaluationContext:
        """Window-capable bindings over the live store and journal."""
        return self._context

    def _set_hot(self, installed: _InstalledRule, flag: bool) -> None:
        if flag:
            if not installed.hot:
                installed.hot = True
                self._hot[installed.rule.name] = installed
        elif installed.hot:
            installed.hot = False
            del self._hot[installed.rule.name]

    def _candidates(self) -> Sequence[_InstalledRule]:
        """The rules this pass must evaluate, in install order.

        Cost scales with the number of dirty KPIs plus hot/periodic rules,
        not with the number of installed rules. The result may be the live
        KPI index bucket, so the rule set must not change while a pass
        iterates it (no executor installs or uninstalls rules).
        """
        dirty = self._dirty
        if not self._hot and not self._periodic and len(dirty) <= 1:
            # One dirty KPI or none: its bucket is already in install order.
            for name in dirty:
                return self._kpi_index.get(name, ())
            return ()
        selected: dict[int, _InstalledRule] = {}
        for name in dirty:
            for installed in self._kpi_index.get(name, ()):
                selected[installed.seq] = installed
        for installed in self._periodic:
            selected[installed.seq] = installed
        for installed in self._hot.values():
            selected[installed.seq] = installed
        return [selected[seq] for seq in sorted(selected)]

    def evaluate_rules(self) -> list[RuleFiring]:
        """One evaluation pass; incremental unless configured otherwise."""
        self.evaluations += 1
        now = self.env.now
        context = self._context
        if self._incremental:
            work = self._candidates()
        else:
            work = list(self._rules.values())
        dirty_kpis = len(self._dirty)
        self._dirty.clear()
        fired: list[RuleFiring] = []
        evaluated = 0
        cooldown_skipped = 0
        for installed in work:
            rule = installed.rule
            if (installed.last_fired is not None
                    and now < installed.last_fired
                    + rule.effective_cooldown_s):
                # Within cooldown: the full engine skips without evaluating,
                # so hot/cold state is untouched here too.
                cooldown_skipped += 1
                continue
            evaluated += 1
            try:
                holds = installed.cond(context) > 0.0
            except Exception as exc:
                self.trace.emit("rule-engine", "rule.error",
                                rule=rule.name, service=self.service_id,
                                error=str(exc))
                # The full engine re-raises (and re-traces) the error every
                # pass; keep the rule hot so the incremental one does too.
                self._set_hot(installed, True)
                continue
            if not holds:
                if installed.hot:
                    self._set_hot(installed, False)
                continue
            # Held: a sustained condition re-fires after its cooldown even
            # with no new measurements, so it must stay on the check list.
            self._set_hot(installed, True)
            # The firing span parents under the most recent measurement that
            # the rule references — the publication that enabled the
            # condition — making "which KPI caused this adjustment, and did
            # it land inside the time constraint?" a tree walk (§4.2.3).
            enabling = None
            for ref in installed.refs:
                span = self._kpi_spans.get(ref)
                if span is not None and (enabling is None
                                         or span.start >= enabling.start):
                    enabling = span
            firing_span = self.trace.span(
                "rule-engine", "rule.firing", parent=enabling,
                rule=rule.name, service=self.service_id,
                time_constraint_s=rule.trigger.time_constraint_s)
            actions_run = 0
            with self.trace.activate(firing_span):
                for action in rule.actions:
                    if self.executor(action, rule):
                        actions_run += 1
                        self.trace.emit(
                            "rule-engine", "elasticity.action",
                            rule=rule.name, service=self.service_id,
                            operation=action.operation.value,
                            component_ref=action.component_ref,
                        )
            if actions_run:
                installed.last_fired = now
                installed.firings += 1
                firing = RuleFiring(now, rule.name, actions_run)
                self.firings.append(firing)
                fired.append(firing)
                self.trace.close_span(firing_span, "fired",
                                      actions_run=actions_run)
            else:
                installed.suppressed_evaluations += 1
                self.trace.close_span(firing_span, "suppressed")
        installed_n = len(self._rules)
        skipped = installed_n - len(work)
        self.rules_evaluated += evaluated
        self.rules_skipped += skipped
        self._last_pass = (installed_n, len(work), evaluated,
                           cooldown_skipped, skipped, dirty_kpis)
        return fired

    _PASS_FIELDS = ("installed", "candidates", "evaluated",
                    "cooldown_skipped", "skipped", "dirty_kpis")

    @property
    def last_pass(self) -> dict[str, int]:
        """Breakdown of the most recent pass, for validation and benches
        (empty before the first pass)."""
        if self._last_pass is None:
            return {}
        return dict(zip(self._PASS_FIELDS, self._last_pass))

    # ------------------------------------------------------------------
    # Periodic evaluation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Evaluate every :attr:`eval_period_s`, the first pass one period
        from now."""
        if self._ticker is None or not self._ticker.active:
            self._ticker = self.env.every(lambda: self.eval_period_s,
                                          self._tick)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
        self._ticker = None

    def _tick(self) -> float:
        self.evaluate_rules()
        return self.eval_period_s

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "firings": ir.firings,
                "suppressed": ir.suppressed_evaluations,
                "last_fired": ir.last_fired,
                "periodic": ir.periodic,
                "hot": ir.hot,
            }
            for name, ir in self._rules.items()
        }
