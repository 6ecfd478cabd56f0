"""Smoke test: every workload at a tiny size, untraced and traced.

    python3 e2ebench/test_smoke.py      # or: python3 -m pytest e2ebench

Checks that each run exits 0 with a correct result, and that it prints
every metric that ``BENCHMARK.json`` names, with that unit, both on a
metric line and in the JSON result. Every name must match
``[A-Za-z0-9_.-]+``. It also checks that the benchmark fails, without a
result, when the checkout has no sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = _bench()["command"] + ["--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_run(workload: str, trace: int) -> None:
    bench = _bench()
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if re.match(r"^\S+ +\S+ +\S+ +\(n=\d+", line)}
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert NAME_RE.fullmatch(name), name
        assert result["metrics"][name]["unit"] == unit, name
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert printed.get(name) == unit, f"{name} not printed with {unit}"
    assert any(line.startswith("failed_share:") for line in lines)
    if workload == "paper-week" and not trace:
        assert any(line.startswith("paper_saving_error_pp:")
                   for line in lines)


def test_dense_federation():
    check_run("dense-federation", 0)


def test_sparse_churn():
    check_run("sparse-churn", 0)


def test_paper_week():
    check_run("paper-week", 0)


def test_dense_federation_traced():
    check_run("dense-federation", 1)


def test_sparse_churn_traced():
    check_run("sparse-churn", 1)


def test_paper_week_traced():
    check_run("paper-week", 1)


def test_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in _bench()["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("dense-federation", 0, cwd=Path(tmp))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}", flush=True)
    sys.exit(0)
