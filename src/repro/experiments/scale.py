"""Federation scale harness: ``python -m repro scale``.

The paper pitches the architecture at *on-demand provisioning for large
federated clouds*; the acceptance scenarios exercise it at a handful of
sites. This harness is the scale sweep those claims are judged by: stand up
an N-site federation through the real :class:`~repro.control.ControlPlane`
(per-site VEEM, ServiceManager and guaranteed-capacity admission), submit
tens of thousands of services across weighted tenants, drive every service
with an SAP-style session profile published through its
:class:`~repro.monitoring.MonitoringAgent` (bursts trip the manifest's
elasticity rules, so the federation scales VMs up and back down), and
report what the run cost:

* **events/sec** — kernel events processed over wall-clock time;
* **wall-clock per simulated hour** — how much real time one simulated
  hour costs at this scale;
* **peak RSS per 1k peak VMs** — the memory footprint the federation's
  state (hosts, VMs, services, series, trace) imposes, normalised by
  fleet size (summed across every worker process under ``--procs``).

Everything is deterministic under ``random_seed``: session profiles come
from :class:`~repro.sim.RandomStreams`, and the kernel replays identically
(``reference=True`` runs the same workload on the heap oracle kernel).

Every process's share of the federation is one ``_Federation``: its sites
behind one control plane, built, chaos-armed, warmed up (agents, census,
defrag), audited and finished in one phase order. The single-process run
is one ``_Federation`` over every site with unpinned submission. With
``procs > 1`` the federation is sharded: the coordinator runs the *real*
control plane to take every admission decision, then partitions the sites
across a :class:`~repro.sim.ShardPool` of worker processes
(:mod:`.scale_worker`), each a ``_Federation`` over its sites that replays
those decisions as pinned submissions and simulates in parallel through
epoch barriers. Decision outcomes (admission verdicts, peak/final fleet,
per-site fleet sizes) are identical to ``procs=1`` by construction — see
DESIGN §14 and :func:`verify_against_oracle`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from ..cloud import Host, HostType, HypervisorTimings, ImageRepository, VEEM
from ..control import Admitted, ControlPlane, Queued
from ..core.manifest import ManifestBuilder
from ..monitoring import MonitoringAgent
from ..obs.audit import TimeConstraintAuditor, audit_violation_strings
from ..obs.metrics import canonical_view
from ..obs.recorder import FlightRecorder
from ..scenarios.chaos import (
    NetworkPartition,
    install_chaos,
    restrict_event,
    sites_of,
)
from ..scenarios.invariants import check_all
from ..scenarios.workloads import SessionProfile, WORKLOADS, draw_profiles
from ..sim import Environment, read_peak_rss_kb

__all__ = [
    "ScaleConfig",
    "ScaleReport",
    "SessionProfile",
    "run_scale",
    "verify_against_oracle",
]

#: KPI the session drivers publish and the elasticity rules react to.
SESSIONS_KPI = "scale.app.sessions"

#: Simulated seconds the initial fleet gets to deploy before monitoring
#: agents attach and the census starts (shared by both execution modes).
WARMUP_S = 60.0


@dataclass(frozen=True)
class ScaleConfig:
    """Shape of one federation scale run."""

    sites: int = 100
    services: int = 10_000
    hours: float = 1.0
    tenants: int = 8
    #: run the workload on the heap oracle kernel instead of the wheel
    reference: bool = False
    random_seed: int = 2010

    #: worker processes; 1 = the in-process oracle path
    procs: int = 1
    #: simulated seconds between shard barriers under ``procs > 1``
    epoch_s: float = 600.0

    #: session-KPI publication period (per service)
    monitor_period_s: float = 60.0
    #: live-VM census period (peak-fleet tracking)
    sample_period_s: float = 60.0
    #: fraction of services whose burst exceeds the scale-up threshold
    elastic_fraction: float = 0.25
    #: run a defragmenting migration pass (repro.solver.defrag) per site
    #: every this many simulated hours; 0 = off
    defrag_every_h: float = 0.0

    #: homogeneous host/VM shapes (the §6.1.2 testbed host by default)
    host_cpu: float = 4.0
    host_memory_mb: float = 8192.0
    vm_cpu: float = 1.0
    vm_memory_mb: float = 1024.0
    image_mb: float = 64.0
    max_instances: int = 2

    #: named workload generator (repro.scenarios.workloads registry) and
    #: its parameters as sorted (key, value) pairs — tuples so the config
    #: stays frozen/picklable
    workload: str = "baseline"
    workload_params: tuple = ()
    #: chaos events (repro.scenarios.chaos dataclasses) injected during
    #: the run; site-local events are sharded with their sites
    chaos: tuple = ()
    #: extra simulated seconds after the workload window, so in-flight
    #: deploys/heals settle before end-of-run invariant checks
    settle_s: float = 0.0
    #: run the repro.scenarios.invariants suite at end of run (per shard
    #: under ``procs > 1``) and report violations on the ScaleReport
    check_invariants: bool = False
    #: flight-recorder ring capacity (recent trace records kept per
    #: process, dumped on failure); 0 disables the recorder
    flight_recorder: int = 256

    def __post_init__(self) -> None:
        if self.flight_recorder < 0:
            raise ValueError("flight_recorder must be >= 0")
        if self.sites <= 0 or self.services <= 0 or self.hours <= 0:
            raise ValueError("sites, services and hours must be positive")
        if self.tenants <= 0:
            raise ValueError("need at least one tenant")
        if not 0.0 <= self.elastic_fraction <= 1.0:
            raise ValueError("elastic_fraction must be in [0, 1]")
        if self.procs <= 0:
            raise ValueError("procs must be positive")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if self.defrag_every_h < 0:
            raise ValueError("defrag_every_h must be >= 0")
        if self.settle_s < 0:
            raise ValueError("settle_s must be >= 0")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; "
                             f"have {sorted(WORKLOADS)}")
        known = {f"site-{s}" for s in range(self.sites)}
        for event in self.chaos:
            if isinstance(event, NetworkPartition) and self.procs > 1:
                # The control plane lives in the coordinator under
                # sharding; a partition there cannot reach the workers.
                raise ValueError(
                    "NetworkPartition chaos requires procs=1")
            unknown = set(sites_of(event)) - known
            if unknown:
                raise ValueError(
                    f"chaos event {event!r} names unknown site(s) "
                    f"{sorted(unknown)}")

    @property
    def duration_s(self) -> float:
        return self.hours * 3600.0

    @property
    def services_per_site(self) -> int:
        return math.ceil(self.services / self.sites)

    @property
    def hosts_per_site(self) -> int:
        """Size each pool so the whole submission's *ceiling* is admissible
        (guaranteed capacity): every service may reach ``max_instances``."""
        per_host = min(int(self.host_cpu // self.vm_cpu),
                       int(self.host_memory_mb // self.vm_memory_mb))
        if per_host < 1:
            raise ValueError("VM shape exceeds the host shape")
        ceiling = self.services_per_site * self.max_instances
        return math.ceil(ceiling / per_host) + 1

    @property
    def host_type(self) -> HostType:
        return HostType(self.host_cpu, self.host_memory_mb)


@dataclass
class ScaleReport:
    """What the run did and what it cost."""

    sites: int
    services: int
    hours: float
    reference: bool
    admitted: int
    queued: int
    rejected: int
    peak_vms: int
    peak_queue_depth: int
    events_processed: int
    dead_skipped: int
    wall_s: float
    peak_rss_kb: int
    procs: int = 1
    final_vms: int = 0
    #: per-site active fleet at the end of the run, in site order —
    #: the decision-outcome fingerprint the oracle comparison uses
    site_fleets: tuple = ()
    #: invariant violations (stringified), when cfg.check_invariants ran
    violations: tuple = ()
    #: federation-wide canonical metric view (owned instruments only,
    #: plane labels stripped) — merged across workers under ``procs > 1``
    metrics: dict = field(default_factory=dict)
    #: time-constraint audit: rule firings checked, late invocations
    audit_findings: int = 0
    audit_violations: tuple = ()
    #: flight-recorder snapshot (recent trace records) when the run ended
    #: with violations; empty otherwise. Not part of decision outcomes.
    flight: tuple = ()

    @property
    def events_per_sec(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s else 0.0

    @property
    def wall_s_per_sim_hour(self) -> float:
        return self.wall_s / self.hours

    @property
    def rss_mb_per_1k_vms(self) -> float:
        """Peak RSS (all processes, interpreters included) per 1000 VMs of
        peak fleet — a coarse, comparable footprint figure."""
        if self.peak_vms <= 0:
            return 0.0
        return (self.peak_rss_kb / 1024.0) / (self.peak_vms / 1000.0)

    def decision_outcomes(self) -> dict:
        """The deterministic decision fingerprint: everything here must be
        bit-identical between ``procs=1`` and any sharded run."""
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "rejected": self.rejected,
            "peak_vms": self.peak_vms,
            "final_vms": self.final_vms,
            "site_fleets": tuple(self.site_fleets),
            "metrics": dict(self.metrics),
            "audit_findings": self.audit_findings,
            "audit_violations": tuple(self.audit_violations),
        }

    def render(self) -> str:
        kernel = "heap (reference)" if self.reference else "timer wheel"
        mode = (f"{self.procs} worker process(es)" if self.procs > 1
                else "single process")
        lines = [
            f"federation:        {self.sites} site(s), "
            f"{self.services} service(s), {self.hours:g} simulated hour(s)",
            f"kernel:            {kernel}",
            f"execution:         {mode}",
            f"admitted:          {self.admitted} "
            f"(queued {self.queued}, rejected {self.rejected})",
            f"peak VMs:          {self.peak_vms} "
            f"(final {self.final_vms})",
            f"peak queue depth:  {self.peak_queue_depth}",
            f"events processed:  {self.events_processed} "
            f"({self.dead_skipped} dead entries skipped)",
            f"events/sec:        {self.events_per_sec:,.0f}",
            f"wall-clock/sim-h:  {self.wall_s_per_sim_hour:.2f} s",
            f"peak RSS:          {self.peak_rss_kb / 1024:.1f} MB "
            f"({self.rss_mb_per_1k_vms:.1f} MB per 1k VMs)",
        ]
        lines.append(
            f"audit:             {self.audit_findings} rule firing(s), "
            f"{len(self.audit_violations)} late")
        if self.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  - {v}" for v in self.violations)
        if self.audit_violations:
            lines.append(
                f"TIME-CONSTRAINT VIOLATIONS "
                f"({len(self.audit_violations)}):")
            lines.extend(f"  - {v}" for v in self.audit_violations)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared building blocks (used by the single-process path, the coordinator
# and — via :mod:`.scale_worker` — the shard worker processes)
# ---------------------------------------------------------------------------

def _scale_manifest(cfg: ScaleConfig):
    """One shared SAP-style manifest: a session-serving ``app`` tier whose
    session KPI drives a scale-up/scale-down rule pair. Sharing the object
    across submissions is deliberate — admission memoisation keys on
    manifest identity."""
    b = ManifestBuilder("sap-session-svc")
    b.component("app", image_mb=cfg.image_mb, cpu=cfg.vm_cpu,
                memory_mb=cfg.vm_memory_mb,
                initial=1, minimum=1, maximum=cfg.max_instances)
    b.kpi("app", "app", SESSIONS_KPI,
          frequency_s=cfg.monitor_period_s, default=30)
    b.rule("up", f"@{SESSIONS_KPI} > 80", "deployVM(app)",
           time_constraint_ms=120_000, cooldown_s=4 * cfg.monitor_period_s)
    # The rules' time constraints set the interpreter's evaluation period
    # (min/2): at 120 s both, each service evaluates once per simulated
    # minute instead of every 2.5 s — the difference between a harness that
    # measures the kernel and one that measures the rule engine.
    b.rule("down", f"@{SESSIONS_KPI} < 20", "undeployVM(app)",
           time_constraint_ms=120_000, cooldown_s=4 * cfg.monitor_period_s)
    return b.build()


def _session_driver(env, state, profile: SessionProfile, quiet_s: float):
    """Replay one service's session stream.

    A profile with an explicit ``schedule`` is replayed point-for-point
    (piecewise-constant, last level held). Otherwise the classic SAP tide:
    ramp up in steps, hold the peak, drain (a service that scaled up
    drains below the scale-down threshold, releasing its extra VM), then
    settle back to the baseline.
    """
    if profile.schedule:
        last_at = 0.0
        for at_s, level in profile.schedule:
            if at_s > last_at:
                yield env.timeout(at_s - last_at)
                last_at = at_s
            state["sessions"] = level
        return
    yield env.timeout(profile.start_s)
    ramp = profile.ramp
    for level in ramp:
        state["sessions"] = level
        yield env.timeout(profile.hold_s / len(ramp))
    state["sessions"] = profile.drain_level
    yield env.timeout(quiet_s)
    state["sessions"] = 30          # baseline: between both thresholds


def _start_session_driver(env, profile: SessionProfile,
                          cfg: ScaleConfig) -> dict:
    state = {"sessions": 30}
    env.process(
        _session_driver(env, state, profile,
                        quiet_s=6 * cfg.monitor_period_s),
        name=f"sessions:{profile.service_id}")
    return state


# ---------------------------------------------------------------------------
# Admission planning (shared: the single-process run *is* the plan)
# ---------------------------------------------------------------------------

def _submit_all(control: ControlPlane, cfg: ScaleConfig, manifest):
    """Submit every service through the real control plane; returns
    (admitted_requests, admitted, queued, rejected)."""
    admitted = queued = rejected = 0
    admitted_requests = []
    for i in range(cfg.services):
        out = control.submit(f"tenant-{i % cfg.tenants}", manifest,
                             service_id=f"svc-{i}")
        if isinstance(out, Admitted):
            admitted += 1
            admitted_requests.append(out.request)
        elif isinstance(out, Queued):
            queued += 1
        else:
            rejected += 1
    return admitted_requests, admitted, queued, rejected


def _register_tenants(control: ControlPlane, cfg: ScaleConfig) -> None:
    for t in range(cfg.tenants):
        control.register_tenant(f"tenant-{t}", weight=1 + t % 3)


# ---------------------------------------------------------------------------
# One process's share of the federation (the single-process run, and each
# shard worker via :mod:`.scale_worker`)
# ---------------------------------------------------------------------------

class _Federation:
    """One process's share of a scale run: the given sites (hosts
    included) behind one control plane, with the flight recorder, the
    census samples and the span-id audit cursor.

    Both execution paths drive it through the same phases, in the order
    sharded-vs-oracle parity depends on (DESIGN §14): construct (sites,
    tenants, then the chaos schedule, before any kernel advance), submit
    and start the session drivers (the caller's part: unpinned in the
    single-process run, the pinned replay in a worker), :meth:`warm_up`,
    advance ``env`` (auditing between epochs in a worker), :meth:`finish`.
    """

    def __init__(self, cfg: ScaleConfig, site_names):
        self.cfg = cfg
        self.site_names = tuple(site_names)
        self.env = env = Environment(reference=cfg.reference)
        self.control = control = ControlPlane(env)
        self.recorder = (FlightRecorder(control.trace, cfg.flight_recorder)
                         if cfg.flight_recorder > 0 else None)
        timings = HypervisorTimings(define_s=1.0, boot_s=10.0, shutdown_s=2.0)
        self.veems = []
        for name in self.site_names:
            veem = VEEM(env, name=name, trace=control.trace,
                        repository=ImageRepository(bandwidth_mb_per_s=1000.0))
            for h in range(cfg.hosts_per_site):
                veem.add_host(Host(env, f"{name}-h{h}",
                                   cpu_cores=cfg.host_cpu,
                                   memory_mb=cfg.host_memory_mb,
                                   timings=timings))
            self.veems.append(veem)
            control.add_site(name, veem)
        _register_tenants(control, cfg)
        self._install_chaos()
        #: (time, live VMs) per census tick, on the grid every process shares
        self.samples: list = []
        #: late-invocation strings from every :meth:`audit` so far
        self.late: list[str] = []
        self._audit_cursor = 0

    def _install_chaos(self) -> None:
        """Install the config's chaos events restricted to this process's
        sites. Must run before any kernel advance: chaos delays are
        relative to install time, so they line up with the oracle's only
        when every process installs at t=0."""
        owned = set(self.site_names)
        local = [restricted for event in self.cfg.chaos
                 if (restricted := restrict_event(event, owned)) is not None]
        if not local:
            return
        control = self.control
        install_chaos(self.env, local,
                      veems_by_site=dict(zip(self.site_names, self.veems)),
                      control=control,
                      managers_by_site={cs.name: cs.manager
                                        for cs in control.sites},
                      trace=control.trace)

    def warm_up(self, requests, states) -> None:
        """Deploy the initial fleet, then wire one monitoring agent per
        admitted service (so its KPI stream flows through its site's
        monitoring network) and start the census and defrag passes on
        the shared grid. ``states`` are the session drivers' states, one
        per request."""
        env, cfg = self.env, self.cfg
        env.run(until=WARMUP_S)
        managers = {cs.name: cs.manager for cs in self.control.sites}
        for request, state in zip(requests, states):
            if request.service is None:
                continue
            agent = MonitoringAgent(env, service_id=request.service_id,
                                    component="app",
                                    network=managers[request.site].network)
            agent.expose(SESSIONS_KPI, lambda s=state: s["sessions"],
                         frequency_s=cfg.monitor_period_s, units="sessions")
        env.every(cfg.sample_period_s / 2.0, self._census)
        if cfg.defrag_every_h > 0:
            self._start_defrag()

    def _census(self) -> float:
        """Live-VM census across this process's sites.

        Ticks are offset by half a period from the warm-up so they fall
        *between* event instants (VM transitions cluster on the monitor
        grid): the count at each tick is then independent of same-instant
        event ordering, which is what lets sharded and single-process runs
        agree sample-for-sample. The count itself is the O(1)
        :attr:`~repro.cloud.vmtable.VMTable.active_count` column aggregate,
        not a fleet scan.
        """
        total = 0
        for veem in self.veems:
            total += veem.table.active_count
        self.samples.append((self.env.now, total))
        return self.cfg.sample_period_s

    def _start_defrag(self) -> None:
        """Periodic per-site defragmentation passes (``--defrag-every H``).

        Each site plans (:func:`repro.solver.defrag.plan_defrag`) and
        executes its own migration batch, one site after another, so the
        whole pass is deterministic; a site's plan is a pure function of
        its own state, so workers and oracle run the identical per-site
        plans. With admissions all decided at t=0 and MIGRATING VMs still
        counted active, the passes are invisible to the sharded-vs-oracle
        decision comparison.
        """
        from ..solver.defrag import execute_plan, plan_defrag

        period_s = self.cfg.defrag_every_h * 3600.0
        offset_landed = False

        def defrag_pass() -> float:
            nonlocal offset_landed
            if offset_landed:
                # Planning is synchronous and execution runs as per-site
                # processes, so every site plans at this same instant.
                for veem in self.veems:
                    plan = plan_defrag(veem)
                    if plan:
                        execute_plan(veem, plan)
            offset_landed = True
            return period_s

        # The first tick only lands the quarter-period offset: passes run
        # *between* monitor instants (like the census's half-period offset)
        # so a plan never races a same-instant scale event whose ordering
        # could differ between the oracle's all-site environment and a
        # shard's subset environment.
        self.env.every(self.cfg.sample_period_s / 4.0, defrag_pass)

    def audit(self) -> list:
        """§4.2.3 time-constraint audit of the rule firings closed since
        the last call, exactly once: firings open and close within one
        dispatch, so every firing visible here is final, and the span-id
        cursor never re-audits one. The union across calls equals a single
        end-of-run audit. Bumps ``obs.audit.firings``/``.violations``."""
        trace = self.control.trace
        report = TimeConstraintAuditor(trace).audit(
            min_span_id=self._audit_cursor)
        if trace.spans:
            self._audit_cursor = max(trace.spans) + 1
        late = audit_violation_strings(report.findings)
        self.late.extend(late)
        metrics = self.env.metrics
        metrics.counter("obs.audit.firings").inc(len(report.findings))
        metrics.counter("obs.audit.violations").inc(len(late))
        return report.findings

    def finish(self) -> tuple[list, tuple, tuple]:
        """End of run: the residual audit, then the invariant sweep (when
        configured; its violation tally lands in the registry), then the
        flight snapshot if either found a problem. Returns ``(findings,
        violations, flight)``; take the metric snapshot after this so
        every increment ships."""
        findings = self.audit()
        violations: tuple = ()
        if self.cfg.check_invariants:
            violations = tuple(
                str(v) for v in check_all(self.control, self.veems,
                                          self.control.trace,
                                          metrics=self.env.metrics))
        flight: tuple = ()
        if self.recorder is not None:
            if violations or self.late:
                flight = self.recorder.snapshot()
            self.recorder.close()
        return findings, violations, flight

    def site_fleets(self) -> tuple:
        """``(site, active VMs)`` per owned site, in site order."""
        return tuple((name, veem.table.active_count)
                     for name, veem in zip(self.site_names, self.veems))


# ---------------------------------------------------------------------------
# Execution: single process (the differential oracle)
# ---------------------------------------------------------------------------

def _run_scale_single(cfg: ScaleConfig, say,
                      profiler=None) -> ScaleReport:
    wall_start = time.perf_counter()
    say(f"building {cfg.sites} site(s) × {cfg.hosts_per_site} host(s) ...")
    fed = _Federation(cfg, [f"site-{s}" for s in range(cfg.sites)])
    env = fed.env
    if profiler is not None:
        profiler.attach(env)

    say(f"submitting {cfg.services} service(s) "
        f"across {cfg.tenants} tenant(s) ...")
    admitted_requests, admitted, queued, rejected = _submit_all(
        fed.control, cfg, _scale_manifest(cfg))
    # Session tides: every service gets one burst; a seeded fraction bursts
    # past the scale-up threshold and grows its app tier until the tide
    # drains. Profiles are drawn centrally, in admission order, from one
    # seeded stream — the determinism contract sharded runs replay.
    states = [_start_session_driver(env, profile, cfg)
              for profile in draw_profiles(cfg, admitted_requests)]

    say("deploying and wiring monitoring agents ...")
    fed.warm_up(admitted_requests, states)

    say(f"running {cfg.hours:g} simulated hour(s) ...")
    env.run(until=cfg.duration_s + cfg.settle_s)

    if cfg.check_invariants:
        say("checking invariants ...")
    # One cursor audit from span 0 is the full audit; its counters land in
    # the registry before the view is built, as worker snapshots are taken
    # after theirs.
    findings, violations, flight = fed.finish()
    metrics_view = canonical_view(env.metrics)

    wall_s = time.perf_counter() - wall_start
    site_fleets = fed.site_fleets()
    return ScaleReport(
        sites=cfg.sites, services=cfg.services, hours=cfg.hours,
        reference=cfg.reference,
        admitted=admitted, queued=queued, rejected=rejected,
        peak_vms=max((total for _t, total in fed.samples), default=0),
        peak_queue_depth=int(fed.control.series["queue.depth"].maximum()),
        events_processed=env.events_processed,
        dead_skipped=env.dead_skipped,
        wall_s=wall_s, peak_rss_kb=int(read_peak_rss_kb()),
        procs=1,
        final_vms=sum(count for _name, count in site_fleets),
        site_fleets=site_fleets,
        violations=violations,
        metrics=metrics_view,
        audit_findings=len(findings),
        audit_violations=tuple(fed.late),
        flight=flight,
    )


# ---------------------------------------------------------------------------
# Execution: sharded across worker processes
# ---------------------------------------------------------------------------

def _run_scale_sharded(cfg: ScaleConfig, say) -> ScaleReport:
    # Imported lazily: scale_worker imports this module for the shared
    # building blocks, so the dependency must stay one-way at import time.
    from ..sim import ShardPool, partition_round_robin
    from .scale_worker import ShardSpec, make_shard

    wall_start = time.perf_counter()

    # Phase 1 — plan admission with the REAL control plane. The planning
    # environment never runs: submission outcomes are decided synchronously
    # at submit() time (there are no capacity releases during a scale run),
    # so hostless sites with explicitly-shaped admission pools reproduce
    # the single-process decisions exactly, without building any host or
    # deploying any VM in the coordinator.
    say(f"planning admission for {cfg.services} service(s) "
        f"across {cfg.sites} site(s) ...")
    plan_env = Environment()
    plan_control = ControlPlane(plan_env)
    site_names = [f"site-{s}" for s in range(cfg.sites)]
    for name in site_names:
        veem = VEEM(plan_env, name=name, trace=plan_control.trace)
        plan_control.add_site(name, veem,
                              pool_hosts=cfg.hosts_per_site,
                              host_type=cfg.host_type)
    _register_tenants(plan_control, cfg)
    manifest = _scale_manifest(cfg)
    admitted_requests, admitted, queued, rejected = _submit_all(
        plan_control, cfg, manifest)
    profiles = draw_profiles(cfg, admitted_requests)
    depth_series = plan_control.series["queue.depth"]

    # Phase 2 — partition sites round-robin and ship each shard its pinned
    # replay: the admission decisions (site bindings) and session profiles
    # are the only cross-process traffic besides epoch barriers.
    buckets = partition_round_robin(site_names, cfg.procs)
    by_site: dict[str, list[SessionProfile]] = {name: [] for name in site_names}
    for profile in profiles:
        by_site[profile.site].append(profile)
    specs = []
    for shard, bucket in enumerate(buckets):
        shard_profiles = [p for name in bucket for p in by_site[name]]
        shard_profiles.sort(key=lambda p: p.service_index)
        specs.append(ShardSpec(shard=shard, cfg=cfg,
                               site_names=tuple(bucket),
                               profiles=tuple(shard_profiles)))

    say(f"running {cfg.hours:g} simulated hour(s) on "
        f"{cfg.procs} worker process(es), epoch {cfg.epoch_s:g} s ...")
    end = cfg.duration_s + cfg.settle_s
    events_processed = 0
    dead_skipped = 0
    merged_findings: list = []

    def fold_telemetry(report) -> None:
        # Counter deltas, gauge finals and histogram tails from the shard
        # fold into the coordinator's planning registry — which already
        # holds the submission-time counters the workers baselined away —
        # so the union is the same federation-wide view as ``procs=1``.
        if report.metrics:
            plan_env.metrics.merge_snapshot(report.metrics)
        merged_findings.extend(report.findings)

    with ShardPool(make_shard, specs) as pool:
        now = WARMUP_S
        while now < end:
            now = min(now + cfg.epoch_s, end)
            for report in pool.epoch(now):
                fold_telemetry(report)
        finals = pool.stop()

    # Phase 3 — merge: census samples share one time grid across shards,
    # so the federation-wide fleet at each sample is the per-shard sum.
    merged: dict[float, int] = {}
    fleet_by_site: dict[str, int] = {}
    workers_rss_kb = 0
    violations: list = []
    flight_records: list = []
    for report in finals:
        events_processed += report.events_processed
        dead_skipped += report.payload["dead_skipped"]
        workers_rss_kb += report.peak_rss_kb
        fold_telemetry(report)
        for t, total in report.payload["samples"]:
            merged[t] = merged.get(t, 0) + total
        fleet_by_site.update(report.payload["site_fleets"])
        violations.extend(report.payload["violations"])
        for rec in report.payload["flight"]:
            flight_records.append(dict(rec, shard=report.shard))
    flight_records.sort(key=lambda r: (r["time"], r["shard"]))
    peak_vms = max(merged.values(), default=0)
    site_fleets = tuple((name, fleet_by_site.get(name, 0))
                        for name in site_names)
    # Workers already incremented (and shipped) the audit counters; the
    # coordinator only renders the union of their findings.
    audit_violations = tuple(audit_violation_strings(merged_findings))
    metrics_view = canonical_view(plan_env.metrics)

    wall_s = time.perf_counter() - wall_start
    return ScaleReport(
        sites=cfg.sites, services=cfg.services, hours=cfg.hours,
        reference=cfg.reference,
        admitted=admitted, queued=queued, rejected=rejected,
        peak_vms=peak_vms,
        peak_queue_depth=int(depth_series.maximum()),
        events_processed=events_processed,
        dead_skipped=dead_skipped,
        wall_s=wall_s,
        peak_rss_kb=int(read_peak_rss_kb()) + workers_rss_kb,
        procs=cfg.procs,
        final_vms=sum(count for _name, count in site_fleets),
        site_fleets=site_fleets,
        violations=tuple(violations),
        metrics=metrics_view,
        audit_findings=len(merged_findings),
        audit_violations=audit_violations,
        flight=tuple(flight_records),
    )


def run_scale(cfg: Optional[ScaleConfig] = None, *,
              progress=None, profiler=None) -> ScaleReport:
    """Run one federation scale sweep and measure it.

    ``profiler`` (a :class:`~repro.obs.profile.SimProfiler`) attaches to
    the kernel for the run; single-process only — a worker's kernel lives
    in another process, out of the hook's reach.
    """
    cfg = cfg or ScaleConfig()
    say = progress or (lambda _msg: None)
    if cfg.procs > 1:
        if profiler is not None:
            raise ValueError("profiling requires procs=1")
        return _run_scale_sharded(cfg, say)
    return _run_scale_single(cfg, say, profiler=profiler)


def verify_against_oracle(cfg: ScaleConfig, *,
                          progress=None) -> tuple[ScaleReport, ScaleReport,
                                                  list[str]]:
    """Run sharded and single-process with the same config; returns both
    reports plus a list of decision-outcome divergences (empty = agree)."""
    if cfg.procs <= 1:
        raise ValueError("verify_against_oracle needs procs > 1")
    sharded = run_scale(cfg, progress=progress)
    oracle = run_scale(dataclasses.replace(cfg, procs=1),
                       progress=progress)
    ours = sharded.decision_outcomes()
    theirs = oracle.decision_outcomes()
    divergences = [
        f"{key}: sharded={ours[key]!r} oracle={theirs[key]!r}"
        for key in theirs
        if ours[key] != theirs[key]
    ]
    return sharded, oracle, divergences
