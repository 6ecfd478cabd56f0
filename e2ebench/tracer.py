"""Per-layer span accounting for the traced benchmark run.

The program under test is not modified. :func:`install` patches wrappers
over each layer's public entry points, and over every generator handed to
``Environment.process``, from this file. Each wrapper opens a span whose
parent is the innermost open span. A layer's self time is its spans'
duration minus the time of their child spans, so the self times of all
layers plus the time no span covered add up to the traced run's wall time.

Each module of ``repro`` maps to one layer by the longest matching prefix
in :data:`LAYER_PREFIXES`. Generators are attributed to the module that
defines them: ``grid.scheduler`` for negotiation, ``monitoring.probes`` for
probe ticks, ``core.service_manager.rules`` for the evaluation loop.
Fabric subscriber callbacks are attributed the same way, to the consumer's
module.

Boundary counts are recorded where the work happens. :meth:`Tracer.
cross_check` compares them with the program's own counters, so a wrapper
bound to the wrong name fails loudly instead of reading zero.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import deque
from time import perf_counter

#: module prefix (relative to ``repro``) -> layer, longest prefix wins
LAYER_PREFIXES = {
    "sim": "sim.kernel",
    "sim.tracing": "sim.tracing",
    "monitoring": "monitoring.other",
    "monitoring.distribution": "monitoring.distribution",
    "monitoring.codec": "monitoring.codec",
    "monitoring.measurements": "monitoring.measurements",
    "monitoring.probes": "monitoring.probes",
    "core": "core.other",
    "core.service_manager.rules": "core.service_manager.rules",
    "core.service_manager.lifecycle": "core.service_manager.lifecycle",
    "control": "control",
    "cloud": "cloud",
    "solver": "solver",
    "grid": "grid",
    "obs": "obs",
    "scenarios": "scenarios",
    "experiments": "experiments",
}

#: every layer that reports ``<layer>.self_s``, in report order
LAYERS = (
    "sim.kernel", "monitoring.distribution", "monitoring.codec",
    "monitoring.measurements", "monitoring.probes",
    "core.service_manager.rules", "core.service_manager.lifecycle",
    "control", "cloud", "solver", "grid", "obs", "sim.tracing",
    "scenarios", "experiments", "monitoring.other", "core.other", "other",
)

#: boundary counts, all reported (zero when a workload never crosses one)
COUNTS = (
    "sim.kernel.events",
    "monitoring.distribution.packets", "monitoring.distribution.match_calls",
    "monitoring.distribution.deliveries",
    "monitoring.codec.encodes", "monitoring.codec.peeks",
    "monitoring.codec.decodes",
    "monitoring.measurements.constructed",
    "monitoring.measurements.name_validations",
    "monitoring.probes.measurements",
    "core.service_manager.rules.evaluations",
    "core.service_manager.rules.firings",
    "core.service_manager.lifecycle.scale_ups",
    "core.service_manager.lifecycle.scale_downs",
    "control.submits", "control.admitted", "control.queued",
    "control.rejected",
    "cloud.veem.submits", "cloud.veem.shutdowns", "cloud.veem.migrations",
    "cloud.veem.host_failures",
    "solver.defrag_plans", "solver.defrag_steps",
    "grid.jobs", "grid.negotiations",
    "obs.audit_firings",
    "sim.tracing.records", "sim.tracing.spans", "sim.tracing.children_calls",
    "scenarios.chaos_events",
)

#: per-call span durations kept, reported as ``<name>_p50`` / ``_p99``
SAMPLED = (
    "monitoring.distribution.publish_us",
    "core.service_manager.rules.evaluate_us",
    "control.submit_us",
)

#: inclusive span time summed per boundary (seconds)
INCLUSIVE = ("obs.audit_s", "scenarios.invariants_s")


def layer_of_module(module: str) -> str:
    """Layer of a dotted module name such as ``repro.monitoring.codec``."""
    if not module.startswith("repro."):
        return "other"
    parts = module[len("repro."):].split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return "other"


@functools.lru_cache(maxsize=None)
def layer_of_file(filename: str) -> str:
    """Layer of the ``repro`` source file that defines some code."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0 or not path.endswith(".py"):
        return "other"
    module = path[marker + 1:-3].replace("/", ".")
    if module.endswith(".__init__"):
        module = module[:-len(".__init__")]
    return layer_of_module(module)


def layer_of_callable(fn, default: str) -> str:
    code = getattr(getattr(fn, "__func__", fn), "__code__", None)
    return layer_of_file(code.co_filename) if code is not None else default


class Tracer:
    """Span stack plus per-layer self time and boundary counts."""

    def __init__(self) -> None:
        #: open spans, innermost last: [layer, start, child seconds]
        self.stack: list[list] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: wall time covered by root spans (spans opened with no parent)
        self.covered_s = 0.0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.samples: dict[str, list[float]] = {k: [] for k in SAMPLED}
        self.inclusive = dict.fromkeys(INCLUSIVE, 0.0)
        #: program objects whose own counters the cross-check reads
        self.envs: list = []
        self.fabrics: list = []
        self.interpreters: weakref.WeakSet = weakref.WeakSet()

    # -- spans ---------------------------------------------------------------
    def open(self, layer: str) -> None:
        self.stack.append([layer, perf_counter(), 0.0])

    def close(self) -> float:
        layer, start, child = self.stack.pop()
        elapsed = perf_counter() - start
        self.self_s[layer] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed
        else:
            self.covered_s += elapsed
        return elapsed

    def wrap(self, fn, layer: str, *, count: str | None = None,
             sample: str | None = None, inclusive: str | None = None,
             after=None):
        """``fn`` inside a span of ``layer``; ``count`` tallies calls,
        ``sample`` keeps each call's duration, ``inclusive`` sums it and
        ``after(result)`` sees each successful result."""
        tracer = self
        counts = self.counts
        samples = self.samples[sample] if sample else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.close()
                if samples is not None:
                    samples.append(elapsed)
                if inclusive is not None:
                    tracer.inclusive[inclusive] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, fn, count: str):
        """``fn`` with a call tally and no span, for calls too frequent to
        time that stay inside their caller's layer."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reports -------------------------------------------------------------
    def cross_check(self) -> list[str]:
        """Boundary counts that disagree with the program's own counters."""
        program = {
            "sim.kernel.events":
                sum(env.events_processed for env in self.envs),
            "monitoring.distribution.packets":
                sum(f.packets_published for f in self.fabrics),
            "monitoring.codec.decodes":
                sum(f.packets_decoded for f in self.fabrics),
            "control.submits": self._registry_sum("control.plane.submitted"),
            "cloud.veem.submits": self._registry_sum("cloud.veem.submitted"),
            "obs.audit_firings": self._registry_sum("obs.audit.firings"),
        }
        return [f"{name}: wrappers counted {self.counts[name]}, "
                f"program counted {value:g}"
                for name, value in program.items()
                if self.counts[name] != value]

    def _registry_sum(self, metric: str) -> float:
        total = 0.0
        for env in self.envs:
            for name, _labels, _kind, value in env.metrics.collect():
                if name == metric:
                    total += value
        return total

    def journal_retained(self) -> int:
        return sum(len(ri.journal) for ri in self.interpreters)


class _TracedGenerator:
    """Generator proxy: every resume runs inside a span of ``layer``."""

    def __init__(self, tracer: Tracer, generator, layer: str):
        self._tracer = tracer
        self._generator = generator
        self._layer = layer
        self.__name__ = getattr(generator, "__name__", "process")

    def send(self, value):
        tracer = self._tracer
        tracer.open(self._layer)
        try:
            return self._generator.send(value)
        finally:
            tracer.close()

    def throw(self, exc):
        tracer = self._tracer
        tracer.open(self._layer)
        try:
            return self._generator.throw(exc)
        finally:
            tracer.close()

    def close(self):
        return self._generator.close()


def _counting_deque(tracer: Tracer):
    """A deque whose ``popleft`` counts: the kernel's drain loop pops each
    dispatched event from one of two live deques exactly once."""
    counts = tracer.counts

    class CountingDeque(deque):
        def popleft(self):
            counts["sim.kernel.events"] += 1
            return deque.popleft(self)

    return CountingDeque


def _tally(counts: dict, key: str, _result) -> None:
    counts[key] += 1


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (``from x import f`` copies the name at import time)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Import the layers, patch their entry points and return the tracer.

    Must run before the workload builds any object, so instances only ever
    see the patched methods.
    """
    import repro.experiments.scale as scale
    import repro.experiments.weekly as weekly
    import repro.scenarios.chaos as chaos
    import repro.scenarios.invariants as invariants
    import repro.scenarios.runner  # noqa: F401  (bindings to rebind)
    import repro.solver.defrag as defrag
    import repro.solver.search as search
    from repro.cloud.veem import VEEM
    from repro.control.plane import ControlPlane
    from repro.control import Admitted, Queued
    from repro.core.service_manager.lifecycle import ServiceLifecycleManager
    from repro.core.service_manager.rules import RuleInterpreter
    from repro.grid.scheduler import CondorScheduler
    from repro.monitoring import codec, measurements
    from repro.monitoring.distribution import (DistributionFramework,
                                               Subscription)
    from repro.monitoring.probes import Probe
    from repro.obs.audit import TimeConstraintAuditor
    from repro.obs import metrics as obs_metrics
    from repro.sim.kernel import Environment
    from repro.sim.tracing import TraceLog

    tracer = Tracer()
    counts = tracer.counts
    wrap = tracer.wrap

    # -- sim.kernel: run spans, event counting, process generators ---------
    deque_cls = _counting_deque(tracer)
    env_init = Environment.__init__

    def init_env(self, *args, **kwargs):
        env_init(self, *args, **kwargs)
        self._live_n = deque_cls()
        self._live_u = deque_cls()
        tracer.envs.append(self)

    Environment.__init__ = init_env
    Environment.run = wrap(Environment.run, "sim.kernel")
    Environment.step = wrap(Environment.step, "sim.kernel")
    env_process = Environment.process

    def process(self, generator, name=None):
        code = getattr(generator, "gi_code", None)
        layer = (layer_of_file(code.co_filename) if code is not None
                 else "other")
        return env_process(self, _TracedGenerator(tracer, generator, layer),
                           name=name or getattr(generator, "__name__", None))

    Environment.process = process

    # -- monitoring.distribution -------------------------------------------
    fabric_init = DistributionFramework.__init__

    def init_fabric(self, *args, **kwargs):
        fabric_init(self, *args, **kwargs)
        tracer.fabrics.append(self)

    DistributionFramework.__init__ = init_fabric
    DistributionFramework.publish = wrap(
        DistributionFramework.publish, "monitoring.distribution",
        count="monitoring.distribution.packets",
        sample="monitoring.distribution.publish_us")
    Subscription.matches = tracer.counted(
        Subscription.matches, "monitoring.distribution.match_calls")
    subscribe = DistributionFramework.subscribe

    def subscribe_traced(self, callback, **filters):
        delivered = wrap(callback,
                         layer_of_callable(callback, "monitoring.other"),
                         count="monitoring.distribution.deliveries")
        return subscribe(self, delivered, **filters)

    DistributionFramework.subscribe = subscribe_traced

    # -- monitoring.codec -----------------------------------------------------
    for fn_name, count in (("encode_measurement", "monitoring.codec.encodes"),
                           ("peek_header", "monitoring.codec.peeks"),
                           ("decode_measurement", "monitoring.codec.decodes")):
        original = getattr(codec, fn_name)
        _rebind(original, wrap(original, "monitoring.codec", count=count))
    codec.PacketEncoder.encode = wrap(codec.PacketEncoder.encode,
                                      "monitoring.codec",
                                      count="monitoring.codec.encodes")

    # -- monitoring.measurements ----------------------------------------------
    measurement_cls = measurements.Measurement
    measurement_cls.__init__ = wrap(
        measurement_cls.__init__, "monitoring.measurements",
        count="monitoring.measurements.constructed")
    original = measurements.validate_qualified_name
    _rebind(original, tracer.counted(
        original, "monitoring.measurements.name_validations"))

    # -- monitoring.probes ----------------------------------------------------
    def measured(result):
        if result is not None:
            counts["monitoring.probes.measurements"] += 1

    Probe.take_measurement = wrap(Probe.take_measurement,
                                  "monitoring.probes", after=measured)

    # -- core.service_manager.rules -------------------------------------------
    interpreter_init = RuleInterpreter.__init__

    def init_interpreter(self, *args, **kwargs):
        interpreter_init(self, *args, **kwargs)
        tracer.interpreters.add(self)

    def fired(result):
        counts["core.service_manager.rules.firings"] += len(result)

    RuleInterpreter.__init__ = init_interpreter
    RuleInterpreter.evaluate_rules = wrap(
        RuleInterpreter.evaluate_rules, "core.service_manager.rules",
        count="core.service_manager.rules.evaluations",
        sample="core.service_manager.rules.evaluate_us", after=fired)

    # -- core.service_manager.lifecycle ---------------------------------------
    lifecycle = "core.service_manager.lifecycle"
    for name in ("deploy_service", "ensure_floor", "terminate_service",
                 "reconfigure", "migrate_for_balance"):
        setattr(ServiceLifecycleManager, name,
                wrap(getattr(ServiceLifecycleManager, name), lifecycle))
    for name, count in (("scale_up", f"{lifecycle}.scale_ups"),
                        ("scale_down", f"{lifecycle}.scale_downs")):
        # Only scalings that happened: a call at the instance bound raises.
        setattr(ServiceLifecycleManager, name,
                wrap(getattr(ServiceLifecycleManager, name), lifecycle,
                     after=functools.partial(_tally, counts, count)))

    # -- control --------------------------------------------------------------
    def decided(outcome):
        if isinstance(outcome, Admitted):
            counts["control.admitted"] += 1
        elif isinstance(outcome, Queued):
            counts["control.queued"] += 1
        else:
            counts["control.rejected"] += 1

    ControlPlane.submit = wrap(ControlPlane.submit, "control",
                               count="control.submits",
                               sample="control.submit_us", after=decided)
    for name in ("add_site", "register_tenant", "release", "what_if"):
        setattr(ControlPlane, name,
                wrap(getattr(ControlPlane, name), "control"))

    # -- cloud ----------------------------------------------------------------
    VEEM.__init__ = wrap(VEEM.__init__, "cloud")
    # Refused placements raise, and the VEEM counts accepted ones only.
    VEEM.submit = wrap(VEEM.submit, "cloud", after=functools.partial(
        _tally, counts, "cloud.veem.submits"))
    VEEM.shutdown = wrap(VEEM.shutdown, "cloud",
                         count="cloud.veem.shutdowns")
    VEEM.migrate = wrap(VEEM.migrate, "cloud",
                        count="cloud.veem.migrations")
    VEEM.inject_host_failure = wrap(VEEM.inject_host_failure, "cloud",
                                    count="cloud.veem.host_failures")
    for name in ("add_host", "recover_host", "inject_vm_failure", "preempt"):
        setattr(VEEM, name, wrap(getattr(VEEM, name), "cloud"))

    # -- solver ---------------------------------------------------------------
    def planned(plan):
        counts["solver.defrag_steps"] += len(plan.steps)

    _rebind(defrag.plan_defrag, wrap(defrag.plan_defrag, "solver",
                                     count="solver.defrag_plans",
                                     after=planned))
    _rebind(defrag.execute_plan, wrap(defrag.execute_plan, "solver"))
    _rebind(search.solve, wrap(search.solve, "solver"))

    # -- grid -----------------------------------------------------------------
    CondorScheduler.submit = wrap(CondorScheduler.submit, "grid",
                                  count="grid.jobs")
    CondorScheduler._negotiate = tracer.counted(CondorScheduler._negotiate,
                                                "grid.negotiations")

    # -- obs ------------------------------------------------------------------
    def audited(report):
        counts["obs.audit_firings"] += len(report.findings)

    TimeConstraintAuditor.audit = wrap(TimeConstraintAuditor.audit, "obs",
                                       inclusive="obs.audit_s",
                                       after=audited)
    _rebind(obs_metrics.canonical_view,
            wrap(obs_metrics.canonical_view, "obs"))

    # -- sim.tracing ----------------------------------------------------------
    for name in ("emit", "emit_in"):
        setattr(TraceLog, name, wrap(getattr(TraceLog, name), "sim.tracing",
                                     count="sim.tracing.records"))
    TraceLog.span = wrap(TraceLog.span, "sim.tracing",
                         count="sim.tracing.spans")
    TraceLog.children = wrap(TraceLog.children, "sim.tracing",
                             count="sim.tracing.children_calls")
    for name in ("close_span", "find_spans", "span_records", "query"):
        setattr(TraceLog, name, wrap(getattr(TraceLog, name), "sim.tracing"))

    # -- scenarios ------------------------------------------------------------
    def installed(processes):
        counts["scenarios.chaos_events"] += len(processes)

    _rebind(chaos.install_chaos, wrap(chaos.install_chaos, "scenarios",
                                      after=installed))
    _rebind(invariants.check_all, wrap(invariants.check_all, "scenarios",
                                       inclusive="scenarios.invariants_s"))

    # -- experiments ----------------------------------------------------------
    _rebind(scale.run_scale, wrap(scale.run_scale, "experiments"))
    _rebind(weekly.run_week, wrap(weekly.run_week, "experiments"))
    return tracer
