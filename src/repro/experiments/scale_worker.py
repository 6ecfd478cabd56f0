"""Shard worker for the sharded scale harness (spawn-safe module).

Each worker process owns one shard of the federation: a
:class:`~repro.experiments.scale._Federation` over its sites (hosts
included), the same object the single-process run drives, so both paths
build, warm up, audit and finish in one phase order. What the worker adds
is the pinned replay of the coordinator's admission decisions through
its local :class:`~repro.control.ControlPlane`, the telemetry baseline
that keeps those replayed submissions out of the shipped metric deltas,
and the epoch API the coordinator advances it with. Everything here is
module-level and every spec field is picklable — the ``spawn`` start
method imports this module fresh in the child.

A pinned replay that does not come back :class:`~repro.control.Admitted`
is an oracle divergence (the worker's per-site admission state no longer
matches the coordinator's plan) and raises immediately — surfaced to the
coordinator as a :class:`~repro.sim.ShardError`. A worker that fails
mid-run dumps its flight recorder first and names the dump in the error.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from ..control import Admitted
from ..obs.metrics import SnapshotCursor
from ..sim import EpochReport, read_peak_rss_kb
from .scale import (
    ScaleConfig,
    SessionProfile,
    _Federation,
    _scale_manifest,
    _start_session_driver,
)

__all__ = ["ShardSpec", "ScaleShard", "make_shard"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs: its sites and the pinned replay
    (profiles carry the admission decisions' site bindings, in global
    submission order restricted to this shard)."""

    shard: int
    cfg: ScaleConfig
    site_names: tuple[str, ...]
    profiles: tuple[SessionProfile, ...]


class ScaleShard:
    """One shard's private simulation, driven through epoch barriers: a
    :class:`~repro.experiments.scale._Federation` over the shard's sites,
    fed by the pinned replay instead of unpinned submission."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        cfg = spec.cfg
        self.fed = fed = _Federation(cfg, spec.site_names)
        self.env = fed.env

        # Pinned replay of the coordinator's admission decisions. Per-site
        # admission state sees the same manifests in the same order as the
        # coordinator's global pass restricted to this shard, so every
        # replay must admit; anything else is an oracle divergence.
        manifest = _scale_manifest(cfg)
        requests = []
        states = []
        for profile in spec.profiles:
            outcome = fed.control.submit(
                profile.tenant, manifest,
                service_id=profile.service_id, site=profile.site)
            if not isinstance(outcome, Admitted):
                raise RuntimeError(
                    f"shard {spec.shard}: pinned replay of "
                    f"{profile.service_id} on {profile.site} was not "
                    f"admitted: {outcome!r}")
            requests.append(outcome.request)
            states.append(_start_session_driver(self.env, profile, cfg))

        # Telemetry baseline: the pinned replay just re-incremented the
        # submission counters the coordinator's planning registry already
        # holds, so the first (discarded) snapshot excludes them from every
        # shipped delta. Taken before the warm-up — it runs in the
        # coordinator-free part of the timeline and must ship.
        self._cursor = SnapshotCursor()
        self._cursor.snapshot(self.env.metrics)
        fed.warm_up(requests, states)

    def _crash_dump(self, exc: BaseException):
        """Dump the flight ring before the traceback crosses the pipe; the
        dump path rides in the chained error so the coordinator's
        ShardError names it."""
        recorder = self.fed.recorder
        if recorder is None:
            raise exc
        path = os.path.join(
            tempfile.gettempdir(),
            f"repro-flight-shard{self.spec.shard}-pid{os.getpid()}.jsonl")
        try:
            recorder.dump(path, reason=repr(exc))
        except OSError:
            raise exc from None
        raise RuntimeError(
            f"shard {self.spec.shard} failed; flight recorder dumped to "
            f"{path}") from exc

    def run_epoch(self, until: float) -> EpochReport:
        try:
            self.env.run(until=until)
            findings = self.fed.audit()
            snapshot = self._cursor.snapshot(self.env.metrics)
        except Exception as exc:
            self._crash_dump(exc)
        return EpochReport(
            shard=self.spec.shard, now=self.env.now,
            events_processed=self.env.events_processed,
            metrics=snapshot, findings=findings)

    def finish(self) -> EpochReport:
        try:
            findings, violations, flight = self.fed.finish()
            snapshot = self._cursor.snapshot(self.env.metrics)
        except Exception as exc:
            self._crash_dump(exc)
        return EpochReport(
            shard=self.spec.shard, now=self.env.now,
            events_processed=self.env.events_processed,
            peak_rss_kb=read_peak_rss_kb(),
            metrics=snapshot, findings=findings,
            payload={
                "samples": self.fed.samples,
                "site_fleets": self.fed.site_fleets(),
                "dead_skipped": self.env.dead_skipped,
                "violations": violations,
                "flight": flight,
            })


def make_shard(spec: ShardSpec) -> ScaleShard:
    """Factory handed to :class:`~repro.sim.ShardPool` (module-level so the
    spawn pickler ships it by reference)."""
    return ScaleShard(spec)
