"""Differential validation of the incremental/compiled rule engine.

Drives random measurement sequences through two RuleInterpreters over the
same simulated clock:

* the optimised engine (KPI-indexed incremental passes, compiled
  conditions) — the production default;
* the reference engine (``incremental=False, compiled=False``): the
  evaluate-everything tree-walking interpreter transcribed from §4.2.2.

Whatever the sequence — sparse churn, unmeasured KPIs, error rules, window
aggregations, cooldowns, refusing executors — both engines must produce
identical :class:`RuleFiring` journals and identical per-rule statistics.
"""

import random
import zlib

import pytest

from repro.core.manifest import ElasticityRule
from repro.core.service_manager import RuleInterpreter
from repro.monitoring import Measurement
from repro.sim import Environment


DEFAULTS = {"k.a": 0.0, "k.b": 5.0, "k.t": 1.0}  # k.c deliberately missing


def build_rules():
    return [
        ElasticityRule.from_text(
            "plain", "@k.a > 3", "deployVM(x)", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "compound", "(@k.a / (@k.b + 1) > 0.5) && (@k.b < 12)",
            "deployVM(x)", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "error-prone", "@k.c > 2", "undeployVM(x)", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "windowed", "mean(@k.a, 30) > 4", "notify()", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "timed", "(@system.time.timeofday > 36000) && (@k.t >= 1)",
            "notify()", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "eager", "@k.b >= 5", "reconfigureVM(x)", defaults=DEFAULTS,
            cooldown_s=0.0),
        ElasticityRule.from_text(
            "mixed", "!(@k.a > 2) || (@k.c < 9)", "notify()",
            defaults=DEFAULTS),
        ElasticityRule.from_text(
            "constant", "1 > 0", "notify()", defaults=DEFAULTS,
            time_constraint_ms=20_000),
    ]


def make_executor(env, journal):
    """Deterministic executor: refuses roughly a third of requests, keyed on
    (rule, time, position) so both engines see the same decisions."""

    def executor(action, rule):
        key = f"{rule.name}:{env.now:.6f}:{len(journal)}".encode()
        decision = zlib.crc32(key) % 3 != 0
        journal.append((env.now, rule.name, action.operation.value, decision))
        return decision
    return executor


def run_differential(seed, steps=120):
    rng = random.Random(seed)
    env = Environment()
    optimised_log, reference_log = [], []
    optimised = RuleInterpreter(
        env, "svc", executor=make_executor(env, optimised_log),
        kpi_defaults=DEFAULTS)
    reference = RuleInterpreter(
        env, "svc", executor=make_executor(env, reference_log),
        kpi_defaults=DEFAULTS, incremental=False, compiled=False)
    for rule in build_rules():
        optimised.install(rule)
        reference.install(rule)

    def driver(env):
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.55:
                name = rng.choice(["k.a", "k.b", "k.c", "k.t", "k.unused"])
                m = Measurement(name, "svc", "probe-1", env.now,
                                (round(rng.uniform(-2.0, 15.0), 3),))
                optimised.notify(m)
                reference.notify(m)
            else:
                assert optimised.evaluate_rules() == reference.evaluate_rules()
            yield env.timeout(rng.choice([0.0, 0.5, 1.5, 4.0, 7.0]))
        assert optimised.evaluate_rules() == reference.evaluate_rules()

    env.process(driver(env))
    env.run()
    return optimised, reference, optimised_log, reference_log


@pytest.mark.parametrize("seed", range(8))
def test_firing_journals_identical(seed):
    optimised, reference, opt_log, ref_log = run_differential(seed)
    assert optimised.firings == reference.firings
    assert opt_log == ref_log
    opt_stats = optimised.stats()
    ref_stats = reference.stats()
    for name in ref_stats:
        for key in ("firings", "suppressed", "last_fired"):
            assert opt_stats[name][key] == ref_stats[name][key], (name, key)


def test_incremental_engine_actually_skips():
    """The differential harness is only meaningful if the optimised engine
    takes the incremental path — prove it skipped work."""
    optimised, reference, _, _ = run_differential(seed=3)
    assert optimised.rules_skipped > 0
    assert optimised.rules_evaluated < reference.rules_evaluated
    assert reference.rules_skipped == 0


def test_sparse_churn_evaluates_only_dirty_rules():
    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: False)
    n = 50
    for i in range(n):
        interp.install(ElasticityRule.from_text(
            f"rule-{i}", f"@kpi.s{i} > 5", "notify()",
            defaults={f"kpi.s{i}": 0.0}))
    interp.evaluate_rules()   # settle: fresh rules all evaluate once
    assert interp.last_pass["evaluated"] == n

    interp.evaluate_rules()   # nothing dirty, nothing hot → nothing to do
    assert interp.last_pass["evaluated"] == 0
    assert interp.last_pass["skipped"] == n

    interp.notify(Measurement("kpi.s7", "svc", "p", 0.0, (10,)))
    interp.evaluate_rules()   # exactly the one dirty rule re-evaluated
    assert interp.last_pass["dirty_kpis"] == 1
    assert interp.last_pass["evaluated"] == 1

    # Its condition now holds (executor refuses) → stays hot next pass.
    interp.evaluate_rules()
    assert interp.last_pass["evaluated"] == 1


def test_eval_period_cache_invalidated_by_install_and_uninstall():
    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: False)
    assert interp.eval_period_s == 5.0         # no rules: the default
    slow = ElasticityRule.from_text("slow", "@k.a > 3", "notify()",
                                    defaults=DEFAULTS,
                                    time_constraint_ms=40_000)
    fast = ElasticityRule.from_text("fast", "@k.a > 9", "notify()",
                                    defaults=DEFAULTS,
                                    time_constraint_ms=6_000)
    interp.install(slow)
    assert interp.eval_period_s == 20.0
    interp.install(fast)
    assert interp.eval_period_s == 3.0
    interp.uninstall("fast")
    assert interp.eval_period_s == 20.0
    interp.uninstall("slow")
    assert interp.eval_period_s == 5.0


def test_running_engine_picks_up_a_new_period_next_pass():
    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: False)
    interp.install(ElasticityRule.from_text(
        "slow", "@k.a > 3", "notify()", defaults=DEFAULTS,
        time_constraint_ms=20_000))
    interp.start()
    env.run(until=25)                          # passes at 10, 20
    interp.install(ElasticityRule.from_text(
        "fast", "@k.a > 9", "notify()", defaults=DEFAULTS,
        time_constraint_ms=4_000))
    env.run(until=35)                          # 30 was queued; then 32, 34
    assert interp.evaluations == 5
    interp.stop()
    env.run(until=100)
    assert interp.evaluations == 5


def test_sustained_condition_refires_after_cooldown_without_new_events():
    env = Environment()
    calls = []

    def executor(action, rule):
        calls.append(env.now)
        return True

    interp = RuleInterpreter(env, "svc", executor=executor)
    interp.install(ElasticityRule.from_text(
        "up", "@a.b > 4", "deployVM(x)", defaults={"a.b": 0},
        time_constraint_ms=5000))
    interp.notify(Measurement("a.b", "svc", "p", 0.0, (10,)))

    def drive(env):
        interp.evaluate_rules()          # fires at t=0
        yield env.timeout(6)
        interp.evaluate_rules()          # no new measurement, must re-fire
    env.process(drive(env))
    env.run()
    assert calls == [0.0, 6.0]


def test_error_rule_keeps_tracing_each_pass():
    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: True)
    interp.install(ElasticityRule.from_text("bad", "@no.default > 1",
                                            "notify()"))
    interp.evaluate_rules()
    interp.evaluate_rules()
    errors = [r for r in interp.trace.records if r.kind == "rule.error"]
    assert len(errors) == 2
