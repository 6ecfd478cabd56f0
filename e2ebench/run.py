"""End-to-end federation benchmark.

    python3 e2ebench/run.py --workload dense-federation --seed 1 \
        --seconds 36 --trace 0

Runs one workload (see README.md) from the checkout's ``src``, each
repeat in a fresh interpreter, for about ``--seconds`` seconds, and prints
every metric by name with its unit, median, quartiles and sample count.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced repeats;
``--trace 1`` alternates traced and untraced repeats and reports the
per-layer metrics, ``unattributed_share`` and ``trace_overhead``.

Output checks (the exit code is 1 when any fails, after the JSON line):
every repeat's decision fingerprint is identical, traced or not; for the
seeds in ``fingerprints.json`` it equals the recorded value; sparse-churn
has no invariant violations and no late firings; every wrapper count of a
traced repeat equals the program's own counter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("dense-federation", "sparse-churn", "paper-week")

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "host_s_per_sim_h": "s/sim-h",
    "peak_rss_mb": "MB",
    "rss_growth_mb": "MB",
}

#: a repeat that exceeds this is killed and the run fails
CHILD_TIMEOUT_S = 150.0
#: untraced repeats per ``--trace 0`` run, at least, however short
#: ``--seconds`` is (a ``--trace 1`` run makes one traced/untraced pair)
MIN_REPEATS = 3
#: set-up samples per run, at least (setup-only repeats fill the gap)
MIN_SETUP_SAMPLES = 5


class BenchError(Exception):
    """A repeat crashed or timed out: no result can be printed."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric (``--trace 1``): name -> unit."""
    sys.path.insert(0, str(HERE))
    from tracer import COUNTS, INCLUSIVE, LAYERS, SAMPLED

    units = {name: "count" for name in COUNTS}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({name: "s" for name in INCLUSIVE})
    units.update({
        "sim.kernel.us_per_event": "us",
        "monitoring.distribution.deliveries_per_match": "ratio",
        "monitoring.codec.decodes_per_packet": "ratio",
        "core.service_manager.rules.firings_per_evaluation": "ratio",
        "core.service_manager.rules.journal_retained": "count",
        "experiments.build_s": "s",
        "experiments.admit_s": "s",
        "experiments.warmup_s": "s",
        "unattributed_share": "ratio",
        "trace_overhead": "ratio",
    })
    for name in SAMPLED:
        units[f"{name}_p50"] = "us"
        units[f"{name}_p99"] = "us"
    return units


def run_child(workload: str, seed: int, size: str, mode: str) -> dict:
    """One repeat in a fresh interpreter; returns its measurements."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode,
           "--spawned", repr(spawned)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} repeat timed out after "
                         f"{CHILD_TIMEOUT_S:g} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} repeat failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end(sample: dict) -> dict[str, float]:
    peak_mb = sample["peak_rss_kb"] / 1024.0
    return {
        "host_s_per_sim_h": sample["run_s"] / sample["sim_hours"],
        "peak_rss_mb": peak_mb,
        "rss_growth_mb": peak_mb - sample["rss_at_mark_kb"] / 1024.0,
    }


class Run:
    """The repeats of one benchmark run and the checks over them."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.full: list[dict] = []       # untraced whole-workload repeats
        self.traced: list[dict] = []
        self.setup: list[float] = []     # set-up samples, any mode

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def repeat(self, mode: str) -> None:
        a = self.args
        sample = run_child(a.workload, a.seed, a.size, mode)
        if mode != "traced":
            self.setup.append(sample["setup_s"])
        if mode == "full":
            self.full.append(sample)
        elif mode == "traced":
            self.traced.append(sample)

    def measure(self) -> None:
        # Warm-up: byte-compiles the sources on a fresh checkout; the
        # sample is discarded so every run times the same start-up.
        run_child(self.args.workload, self.args.seed, self.args.size,
                  "setup")
        budget = self.args.seconds
        modes = ("traced", "full") if self.args.trace else ("full",)
        while True:
            started = time.monotonic()
            for mode in modes:
                self.repeat(mode)
            round_s = time.monotonic() - started
            done = len(self.traced) if self.args.trace else len(self.full)
            enough = self.args.trace or done >= MIN_REPEATS
            # Start another round only if at least half of it fits.
            if enough and self.elapsed() + round_s / 2 > budget:
                break
        # Fill the rest of the budget with set-up samples.
        while (len(self.setup) < MIN_SETUP_SAMPLES
               or self.elapsed() < budget):
            self.repeat("setup")

    def problems(self) -> list[str]:
        out: list[str] = []
        samples = self.full + self.traced
        for sample in samples:
            out.extend(sample["problems"])
        prints = {s["fingerprint"] for s in samples}
        if len(prints) != 1:
            out.append(f"decision fingerprints differ across repeats: "
                       f"{sorted(prints)}")
        recorded = recorded_fingerprint(self.args.workload, self.args.seed)
        if (self.args.size == "full" and recorded is not None
                and prints != {recorded}):
            out.append(f"fingerprint {sorted(prints)} != recorded "
                       f"{recorded} for seed {self.args.seed}")
        return out


def recorded_fingerprint(workload: str, seed: int):
    table = json.loads((HERE / "fingerprints.json").read_text())
    return table["fingerprints"].get(workload, {}).get(str(seed))


def report_line(name: str, values: list[float], unit: str) -> str:
    q1, median, q3 = quartiles(values)
    return (f"{name:<52} {median:>14.6g} {unit:<8} "
            f"(n={len(values)}, p25 {q1:.6g}, p75 {q3:.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end federation "
                                                 "benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's input size")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        run.measure()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = (run.traced or run.full)[0]
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"{'traced' if args.trace else 'untraced'}; "
          f"{len(run.full)} untraced, {len(run.traced)} traced repeat(s), "
          f"{len(run.setup)} set-up sample(s) in {run.elapsed():.1f} s")
    print(f"outcome: {first['summary']}")
    print(f"decision fingerprint: {first['fingerprint']}")
    if "paper_saving_error_pp" in first:
        print(f"paper_saving_error_pp: "
              f"{first['paper_saving_error_pp']:+.2f} pp")

    attempted = sum(s["attempted"] for s in run.full + run.traced)
    failed = sum(s["failed"] for s in run.full + run.traced)
    print(f"failed_share: {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")

    metrics: dict[str, dict] = {}
    if args.trace:
        units = per_layer_units()
        per_layer = {name: [s["layers"][name] for s in run.traced]
                     for name in units if name in run.traced[0]["layers"]}
        # The progress marks come from the untraced repeats.
        for mark in ("build_s", "admit_s", "warmup_s"):
            per_layer[f"experiments.{mark}"] = [
                s["marks"].get(mark, 0.0) for s in run.full]
        traced_s = statistics.median(s["total_s"] for s in run.traced)
        plain_s = statistics.median(s["total_s"] for s in run.full)
        per_layer["trace_overhead"] = [traced_s / plain_s - 1.0]
        for name, unit in units.items():
            print(report_line(name, per_layer[name], unit))
            metrics[name] = {"value": statistics.median(per_layer[name]),
                             "unit": unit}
    else:
        series = {"setup_s": run.setup}
        for name in ("host_s_per_sim_h", "peak_rss_mb", "rss_growth_mb"):
            series[name] = [end_to_end(s)[name] for s in run.full]
        for name, unit in END_TO_END.items():
            print(report_line(name, series[name], unit))
            metrics[name] = {"value": statistics.median(series[name]),
                             "unit": unit}

    problems = run.problems()
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
