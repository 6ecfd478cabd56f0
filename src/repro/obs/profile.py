"""Statistical per-layer profiler: a ``SIGPROF`` sampler outside the kernel.

:class:`SimProfiler` arms ``setitimer(ITIMER_PROF)`` every
:data:`INTERVAL_S` of process CPU time. Each ``SIGPROF`` hands the
interrupted frame to :meth:`SimProfiler._sample`, which walks the stack
outwards through ``f_back`` and maps every frame's source file under the
``repro`` package to a layer by the longest module prefix in
:data:`LAYER_PREFIXES` — the layer names the end-to-end benchmark's
tracer reports (``sim.kernel``, ``monitoring.probes``,
``core.service_manager.rules``, …, ``other``). The innermost ``repro``
frame's layer takes the sample's *self* count; every layer on the stack
takes one *inclusive* count. The probes and rule passes a tick group
runs therefore count under their own modules, not under the kernel that
dispatched them.

Self samples are also filed per simulated-time bucket and exported as
Chrome-trace counter tracks (:meth:`SimProfiler.chrome_trace`) that open
next to the span dump of :mod:`repro.obs.exporters`. The sampler reads
frames and the clock only, never simulation state, so a profiled run
decides exactly what an unprofiled one does, on either kernel.
"""

from __future__ import annotations

import functools
import os
import signal
from collections import Counter
from typing import Optional

__all__ = ["SimProfiler"]

#: Sampling interval in seconds of process CPU time. The kernel may deliver
#: coarser (one signal per scheduler tick at most), so reports give sample
#: counts and shares, not seconds.
INTERVAL_S = 0.001

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

_ROOT = os.path.dirname(os.path.dirname(__file__)) + os.sep


@functools.lru_cache(maxsize=None)
def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a ``repro`` source file; ``None`` for code outside it."""
    if not filename.startswith(_ROOT) or not filename.endswith(".py"):
        return None
    parts = filename[len(_ROOT):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    for end in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return "other"


class SimProfiler:
    """Self and inclusive ``SIGPROF`` samples per layer, plus a timeline of
    self samples per simulated-time bucket."""

    def __init__(self, bucket_s: float = 60.0):
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        self.bucket_s = bucket_s
        self.samples = 0
        #: layer -> samples whose innermost ``repro`` frame is in it
        self.self_samples: Counter = Counter()
        #: layer -> samples with at least one frame in it (every sample's
        #: self layer counts as on its stack)
        self.inclusive: Counter = Counter()
        #: (bucket index, layer) -> self samples
        self.timeline: Counter = Counter()
        self._env = None
        self._prev_handler = None

    # -- wiring ---------------------------------------------------------------
    def attach(self, env) -> "SimProfiler":
        """Start sampling; ``env`` only supplies the timeline's clock."""
        if self._env is not None:
            raise RuntimeError("profiler is already attached")
        self._env = env
        self._prev_handler = signal.signal(
            signal.SIGPROF, lambda _signum, frame: self._sample(frame))
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def detach(self) -> None:
        """Stop the timer and restore the previous ``SIGPROF`` handler."""
        if self._env is None:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        prev = self._prev_handler
        signal.signal(signal.SIGPROF,
                      signal.SIG_DFL if prev is None else prev)
        self._env = None

    def _sample(self, frame) -> tuple[str, set]:
        """File one sample of the stack whose innermost frame is ``frame``;
        returns its self layer and the layers on the stack."""
        innermost = None
        layers = set()
        while frame is not None:
            layer = layer_of_file(frame.f_code.co_filename)
            if layer is not None:
                innermost = innermost or layer
                layers.add(layer)
            frame = frame.f_back
        if innermost is None:
            innermost = "other"
            layers.add(innermost)
        self.samples += 1
        self.self_samples[innermost] += 1
        for layer in layers:
            self.inclusive[layer] += 1
        self.timeline[int(self._env.now // self.bucket_s), innermost] += 1
        return innermost, layers

    # -- reporting ------------------------------------------------------------
    def render(self) -> str:
        """Text table, most self samples first."""
        lines = [f"sim profile: {self.samples} samples "
                 f"(one per {INTERVAL_S * 1e3:g} ms of CPU time at most)"]
        lines.append(f"  {'layer':<32}{'samples':>9}{'self %':>9}"
                     f"{'incl %':>9}")
        total = self.samples or 1
        for layer in sorted(self.inclusive,
                            key=lambda name: (-self.self_samples[name], name)):
            own = self.self_samples[layer]
            lines.append(f"  {layer:<32}{own:>9}{own / total:>9.1%}"
                         f"{self.inclusive[layer] / total:>9.1%}")
        return "\n".join(lines) + "\n"

    def chrome_trace(self, *, pid: int = 1) -> dict:
        """The timeline as Chrome-trace counter events (open alongside the
        exporters' span dump: same µs timebase, same pid)."""
        events = []
        layers = sorted({layer for _, layer in self.timeline})
        for layer in layers:
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": f"profile:{layer}",
                "args": {"name": f"profile:{layer}"},
            })
        for (bucket, layer), count in sorted(self.timeline.items()):
            events.append({
                "name": f"samples:{layer}", "ph": "C", "pid": pid,
                "tid": f"profile:{layer}", "ts": bucket * self.bucket_s * 1e6,
                "args": {"self": count},
            })
        totals = {
            layer: {"self": self.self_samples[layer],
                    "inclusive": self.inclusive[layer]}
            for layer in sorted(self.inclusive)
        }
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"samples": self.samples, "totals": totals}}
