"""Run one benchmark workload once, in this (fresh) interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object with the run's measurements as its last
line of standard output. Modes:

* ``full`` — the whole workload, untraced;
* ``setup`` — stop at the setup mark (a set-up time sample only);
* ``traced`` — the whole workload under :mod:`tracer`'s wrappers, plus the
  per-layer report and the wrapper cross-check.

Times are host seconds on ``time.monotonic``, which every process on the
machine shares, so the interpreter's own start-up counts towards set-up:
``--spawned`` is the parent's clock reading just before it started us.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time

WORKLOADS = ("dense-federation", "sparse-churn", "paper-week")

#: §6.1.4: "overall resource consumption would drop by 69.18%"
PAPER_SAVING_PCT = 69.18

#: progress message prefix -> mark name (``repro.experiments.scale``)
_MARKS = (("building", "build"), ("submitting", "submit"),
          ("deploying", "deploy"), ("running", "run"))

#: a late invocation as rendered by ``audit_violation_strings``
_LATE_RE = re.compile(r"^time-constraint: (\S+) \(service=(.*?)\) .*"
                      r"\(enabled @([-0-9.]+)s")


class _SetupReached(Exception):
    """Raised from the progress callback to stop a ``setup`` child."""


def _status_kb(field: str) -> int:
    """``VmRSS`` / ``VmHWM`` of this process in kB (0 when unreadable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    if field == "VmHWM":
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return 0


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scale_config(workload: str, seed: int, size: str):
    """The ``ScaleConfig`` of a federation workload."""
    if workload == "dense-federation":
        from repro.experiments.scale import ScaleConfig
        shape = (dict(sites=20, services=1000, hours=1.0) if size == "full"
                 else dict(sites=4, services=40, hours=0.25))
        return ScaleConfig(random_seed=seed, **shape)
    from repro.scenarios.runner import SCENARIOS
    shape = (dict(sites=100, services=1000) if size == "full"
             else dict(sites=10, services=60, hours=0.25))
    return SCENARIOS["site-outage"].configure(dict(
        shape, crowd_fraction=0.9, defrag_every_h=0.25, seed=seed))


def weekly_config(seed: int, size: str):
    from repro.experiments.weekly import WeeklyConfig
    if size == "full":
        return WeeklyConfig(random_seed=seed)
    return WeeklyConfig(random_seed=seed, idle_days=(1, 2, 3, 4, 5, 6),
                        window_end_s=9 * 3600.0)


def _late_firings(audit_violations) -> int:
    keys = set()
    for text in audit_violations:
        match = _LATE_RE.match(text)
        keys.add(match.groups() if match else text)
    return len(keys)


def run_scale_workload(workload, seed, size, mode, spawned, out):
    import repro.experiments.scale as scale

    cfg = scale_config(workload, seed, size)
    marks: dict[str, float] = {}

    def progress(message: str) -> None:
        for prefix, mark in _MARKS:
            if message.startswith(prefix):
                marks[mark] = time.monotonic() - spawned
        if message.startswith("running"):
            out["rss_at_mark_kb"] = _status_kb("VmRSS")
            if mode == "setup":
                raise _SetupReached

    try:
        report = scale.run_scale(cfg, progress=progress)
    except _SetupReached:
        out["setup_s"] = marks["run"]
        return
    done = time.monotonic() - spawned
    out["setup_s"] = marks["run"]
    out["run_s"] = done - marks["run"]
    out["sim_hours"] = (cfg.duration_s + cfg.settle_s
                        - scale.WARMUP_S) / 3600.0
    out["marks"] = {"build_s": marks["submit"] - marks["build"],
                    "admit_s": marks["deploy"] - marks["submit"],
                    "warmup_s": marks["run"] - marks["deploy"]}
    outcomes = report.decision_outcomes()
    out["fingerprint"] = _digest(outcomes)
    late = _late_firings(report.audit_violations)
    out["attempted"] = cfg.services + report.audit_findings
    out["failed"] = report.rejected + report.queued + late
    out["summary"] = (f"admitted {report.admitted}, queued {report.queued}, "
                      f"rejected {report.rejected}, peak VMs "
                      f"{report.peak_vms}, {report.audit_findings} firings, "
                      f"{late} late, {len(report.violations)} invariant "
                      f"violations")
    out["problems"] = []
    if workload == "sparse-churn":
        out["problems"] += [f"invariant violation: {v}"
                            for v in report.violations]
        out["problems"] += [f"late firing: {v}"
                            for v in report.audit_violations]


def run_week_workload(seed, size, mode, spawned, out):
    import repro.experiments.weekly as weekly

    cfg = weekly_config(seed, size)
    out["setup_s"] = time.monotonic() - spawned
    out["rss_at_mark_kb"] = _status_kb("VmRSS")
    if mode == "setup":
        return
    mark = time.monotonic()
    result = weekly.run_week(cfg)
    out["run_s"] = time.monotonic() - mark
    out["sim_hours"] = weekly.WEEK_S / 3600.0
    out["marks"] = {}
    searches = [(s.day, s.started_at, s.finished_at, s.scale, s.jobs)
                for s in result.searches]
    out["fingerprint"] = _digest({
        "searches": searches,
        "elastic_node_seconds": result.elastic_node_seconds,
        "dedicated_node_seconds": result.dedicated_node_seconds,
    })
    # The first search of an active day starts when its window opens, so
    # this recovers the instant the week began.
    week_start = min(s.started_at - s.day * weekly.DAY_S
                     - cfg.window_start_s for s in result.searches)
    late = sum(1 for s in result.searches
               if s.finished_at > week_start + weekly.WEEK_S)
    out["attempted"] = len(result.searches)
    out["failed"] = late
    saving_pct = 100.0 * result.saving
    out["paper_saving_error_pp"] = saving_pct - PAPER_SAVING_PCT
    out["summary"] = (f"{len(result.searches)} searches, "
                      f"{sum(s.jobs for s in result.searches)} jobs, "
                      f"{result.elastic_node_seconds:.0f} node-seconds, "
                      f"saving {saving_pct:.2f}% (paper "
                      f"{PAPER_SAVING_PCT:.2f}%)")
    out["problems"] = []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("full", "setup", "traced"),
                        default="full")
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        import tracer as tracing
        tracer = tracing.install()
    out: dict = {}
    if args.workload == "paper-week":
        run_week_workload(args.seed, args.size, args.mode, args.spawned, out)
    else:
        run_scale_workload(args.workload, args.seed, args.size, args.mode,
                           args.spawned, out)
    if args.mode != "setup":
        out["peak_rss_kb"] = _status_kb("VmHWM")
        out["total_s"] = out["setup_s"] + out["run_s"]
    if tracer is not None:
        out["layers"] = layer_report(tracer, out)
        out["problems"] += [f"wrapper cross-check: {p}"
                            for p in tracer.cross_check()]
    print(json.dumps(out))
    return 0


def _percentile_us(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_report(tracer, out: dict) -> dict:
    """Every per-layer metric of one traced run, by name."""
    c = tracer.counts
    m: dict[str, float] = dict(c)
    for layer, seconds in tracer.self_s.items():
        m[f"{layer}.self_s"] = seconds
    m.update(tracer.inclusive)
    m["sim.kernel.us_per_event"] = 1e6 * _ratio(
        tracer.self_s["sim.kernel"], c["sim.kernel.events"])
    m["monitoring.distribution.deliveries_per_match"] = _ratio(
        c["monitoring.distribution.deliveries"],
        c["monitoring.distribution.match_calls"])
    m["monitoring.codec.decodes_per_packet"] = _ratio(
        c["monitoring.codec.decodes"], c["monitoring.distribution.packets"])
    m["core.service_manager.rules.firings_per_evaluation"] = _ratio(
        c["core.service_manager.rules.firings"],
        c["core.service_manager.rules.evaluations"])
    m["core.service_manager.rules.journal_retained"] = (
        tracer.journal_retained())
    for name, samples in tracer.samples.items():
        m[f"{name}_p50"] = _percentile_us(samples, 0.50)
        m[f"{name}_p99"] = _percentile_us(samples, 0.99)
    m["unattributed_share"] = _ratio(out["total_s"] - tracer.covered_s,
                                     out["total_s"])
    return m


if __name__ == "__main__":
    sys.exit(main())
