"""Tests for ClassAd-style requirement matchmaking (§6.1.1)."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import CondorScheduler, ExecutionNodeHandle, Job, JobState
from repro.sim import Environment, SeriesRecorder


def add_node(sched, name, **attributes):
    node = ExecutionNodeHandle(name, transfer_mb_per_s=1e9,
                               attributes=attributes)
    sched.register_node(node)
    return node


def test_satisfies_semantics():
    node = ExecutionNodeHandle("n", attributes={
        "memory_mb": 4096, "cpus": 2, "arch": "x86_64", "has_gpu": False,
    })
    assert node.satisfies({})
    assert node.satisfies({"memory_mb": 2048})          # numeric ≥
    assert node.satisfies({"memory_mb": 4096})
    assert not node.satisfies({"memory_mb": 8192})
    assert node.satisfies({"arch": "x86_64"})           # exact match
    assert not node.satisfies({"arch": "aarch64"})
    assert node.satisfies({"has_gpu": False})           # bools exact
    assert not node.satisfies({"has_gpu": True})
    assert not node.satisfies({"missing_attr": 1})      # absent → no match


def test_bool_not_coerced_to_numeric():
    """has_gpu=True must not satisfy a numeric minimum of 1 by accident,
    nor vice versa."""
    node = ExecutionNodeHandle("n", attributes={"has_gpu": True, "slots": 1})
    assert not node.satisfies({"has_gpu": 1})
    assert not node.satisfies({"slots": True})


def test_job_matched_to_qualified_node_only():
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    small = add_node(sched, "small", memory_mb=1024)
    big = add_node(sched, "big", memory_mb=8192)
    job = sched.submit(Job(duration_s=10, input_mb=0, output_mb=0,
                           requirements={"memory_mb": 4096}))
    env.run()
    assert job.state is JobState.COMPLETED
    assert job.node_name == "big"
    assert small.jobs_completed == 0


def test_unmatchable_job_waits_without_starving_others():
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    add_node(sched, "cpu-only", memory_mb=2048)
    gpu_job = sched.submit(Job(duration_s=10, input_mb=0, output_mb=0,
                               requirements={"has_gpu": True},
                               name="gpu-job"))
    plain = sched.submit(Job(duration_s=10, input_mb=0, output_mb=0,
                             name="plain"))
    env.run(until=50)
    # The plain job behind the unmatchable one still ran.
    assert plain.state is JobState.COMPLETED
    assert gpu_job.state is JobState.IDLE
    assert sched.queue_size == 1
    # A qualified node arriving later picks the waiting job up.
    add_node(sched, "gpu-box", has_gpu=True, memory_mb=2048)
    env.run(until=100)
    assert gpu_job.state is JobState.COMPLETED
    assert gpu_job.node_name == "gpu-box"


def test_queue_order_preserved_among_matchable_jobs():
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    add_node(sched, "n0", memory_mb=2048)
    blocked = sched.submit(Job(duration_s=5, input_mb=0, output_mb=0,
                               requirements={"memory_mb": 9999},
                               name="blocked"))
    first = sched.submit(Job(duration_s=5, input_mb=0, output_mb=0,
                             name="first"))
    second = sched.submit(Job(duration_s=5, input_mb=0, output_mb=0,
                              name="second"))
    env.run(until=30)
    assert first.completed_at < second.completed_at
    assert blocked.state is JobState.IDLE


def test_heterogeneous_pool_parallel_matching():
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    for i in range(2):
        add_node(sched, f"small-{i}", memory_mb=1024)
    for i in range(2):
        add_node(sched, f"big-{i}", memory_mb=8192)
    big_jobs = [sched.submit(Job(duration_s=100, input_mb=0, output_mb=0,
                                 requirements={"memory_mb": 4096}))
                for _ in range(4)]
    small_jobs = [sched.submit(Job(duration_s=100, input_mb=0, output_mb=0))
                  for _ in range(4)]
    env.run()
    assert all(j.node_name.startswith("big") for j in big_jobs)
    # Small jobs may run anywhere; everything completes.
    assert all(j.state is JobState.COMPLETED
               for j in big_jobs + small_jobs)
    # Big nodes served the memory-hungry jobs in two waves → makespan 200+.
    assert max(j.completed_at for j in big_jobs) == pytest.approx(200, abs=5)


# ---------------------------------------------------------------------------
# Differential: the snapshot negotiator against the linear-scan oracle
# ---------------------------------------------------------------------------

class LinearScanScheduler(CondorScheduler):
    """The negotiator before the free-node snapshot: every idle job scans
    every registered node. Kept here as the oracle only."""

    def _negotiate(self):
        if self.match_delay_s > 0:
            yield self.env.timeout(self.match_delay_s)
        self._match_pending = False
        unmatched: deque[Job] = deque()
        progressed = False
        while self.idle_jobs:
            job = self.idle_jobs.popleft()
            node = next(
                (n for n in self.nodes.values()
                 if n.available and n.satisfies(job.requirements)), None)
            if node is None:
                unmatched.append(job)
                continue
            progressed = True
            node.current_job = job
            self.series.record("queue_size", self.queue_size)
            self.trace.emit(self.name, "job.match", job=job.job_id,
                            node=node.name)
            node._runner = self.env.process(self._run_job(job, node),
                                            name=f"run:{job.job_id}")
        while unmatched:
            self.idle_jobs.appendleft(unmatched.pop())
        if progressed:
            self.series.record("queue_size", self.queue_size)


class LoggingSeries(SeriesRecorder):
    """Keeps every ``queue_size`` write, including same-instant ones the
    time series itself collapses."""

    def __init__(self, env):
        super().__init__(env)
        self.queue_writes = []

    def record(self, name, value):
        if name == "queue_size":
            self.queue_writes.append((self.env.now, value))
        super().record(name, value)


ATTR_KEYS = ("cpus", "memory_mb", "arch", "has_gpu")
# Narrow value ranges so that requirements match some nodes and not others.
attr_values = st.one_of(
    st.booleans(),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0.5, 1.5, 2.5]),
    st.sampled_from(["x86_64", "aarch64"]),
)
# Missing keys come from the dictionaries strategy drawing subsets.
attr_sets = st.dictionaries(st.sampled_from(ATTR_KEYS), attr_values,
                            max_size=len(ATTR_KEYS))
requirement_sets = st.one_of(
    st.just({}),
    st.dictionaries(st.sampled_from(ATTR_KEYS), attr_values, max_size=2))

# A batch of jobs submitted at one instant: (requirements, duration, MB).
submit = st.tuples(st.just("submit"), st.lists(
    st.tuples(requirement_sets, st.integers(min_value=1, max_value=40),
              st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=5))
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),          # at time
        st.one_of(
            submit, submit,
            st.tuples(st.just("register"), attr_sets),
            st.tuples(st.just("drain"), st.integers(min_value=-1,
                                                    max_value=20)),
            st.tuples(st.just("fail"), st.integers(min_value=0,
                                                   max_value=20)),
        ),
    ),
    max_size=50,
)


def run_scenario(cls, initial_nodes, ops, match_delay_s):
    env = Environment()
    series = LoggingSeries(env)
    sched = cls(env, match_delay_s=match_delay_s, series=series)
    names = {}          # job_id -> position-stable label
    transcript = []
    sched.trace.subscribe(
        lambda r: transcript.append((r.time, names[r.details["job"]],
                                     r.details["node"]))
        if r.kind == "job.match" else None)
    registered = [0]

    def register(attributes):
        node = ExecutionNodeHandle(f"n{registered[0]}", transfer_mb_per_s=2.0,
                                   attributes=attributes)
        registered[0] += 1
        sched.register_node(node)

    def pick(index):
        live = sorted(sched.nodes)
        return sched.nodes[live[index % len(live)]] if live else None

    def apply(op):
        kind = op[0]
        if kind == "submit":
            for requirements, duration, transfer_mb in op[1]:
                job = Job(duration_s=duration, input_mb=transfer_mb,
                          output_mb=transfer_mb, requirements=requirements)
                names[job.job_id] = f"j{len(names)}"
                sched.submit(job)
        elif kind == "register":
            register(op[1])
        elif kind == "drain":
            node = (sched.pick_node_to_drain() if op[1] < 0
                    else pick(op[1]))
            if node is not None and not node.draining:
                sched.drain_node(node)
        else:
            node = pick(op[1])
            if node is not None:
                sched.node_failed(node)

    def play_ops():
        for at, op in sorted(ops, key=lambda item: item[0]):
            if at > env.now:
                yield env.timeout(at - env.now)
            apply(op)

    for attributes in initial_nodes:
        register(attributes)
    env.process(play_ops())
    env.run(until=400)
    idle = [names[j.job_id] for j in sched.idle_jobs]
    return transcript, idle, series.queue_writes


@settings(max_examples=150, deadline=None)
@given(initial_nodes=st.lists(attr_sets, max_size=6), ops=operations,
       match_delay_s=st.sampled_from([0.0, 1.0]))
def test_snapshot_negotiator_matches_linear_scan(initial_nodes, ops,
                                                  match_delay_s):
    """Same (time, job, node) matches, same final queue order and the same
    ``queue_size`` writes as the linear scan, under drains, failures with
    requeues and late registrations."""
    new = run_scenario(CondorScheduler, initial_nodes, ops, match_delay_s)
    old = run_scenario(LinearScanScheduler, initial_nodes, ops,
                       match_delay_s)
    assert new == old


def test_saturated_pool_keeps_queue_order():
    """With every node busy the cycle matches nothing and leaves the idle
    queue exactly as it was."""
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    for i in range(3):
        add_node(sched, f"n{i}")
    jobs = [sched.submit(Job(duration_s=100, input_mb=0, output_mb=0,
                             name=f"j{i}")) for i in range(8)]
    env.run(until=10)
    assert [j.name for j in sched.idle_jobs] == [f"j{i}" for i in range(3, 8)]
    sched._schedule_matchmaking()
    env.run(until=20)
    assert list(sched.idle_jobs) == jobs[3:]
    assert sched.running_jobs == 3


@pytest.mark.parametrize("input_mb, output_mb, fail_at, starts", [
    (5, 0, 5, 1),   # the failure lands as the input transfer ends
    (0, 5, 15, 2),  # ... or as the output transfer ends (after a start)
])
def test_failure_at_transfer_end_instant_requeues_once(input_mb, output_mb,
                                                       fail_at, starts):
    """A node failure dispatched at the instant one of its job's transfers
    ends wins: the job is requeued and runs once, elsewhere, instead of
    also starting or completing on the dead node."""
    env = Environment()
    sched = CondorScheduler(env, match_delay_s=0.0)
    node = ExecutionNodeHandle("n0", transfer_mb_per_s=1.0)

    def fail():
        # Scheduled before the job's transfer, so it fires first.
        yield env.timeout(fail_at)
        sched.node_failed(node)

    env.process(fail())
    sched.register_node(node)
    job = sched.submit(Job(duration_s=10, input_mb=input_mb,
                           output_mb=output_mb))
    env.run(until=20)
    assert job.state is JobState.IDLE
    assert list(sched.idle_jobs) == [job]
    assert node.jobs_completed == 0
    add_node(sched, "n1")
    env.run(until=40)
    assert job.state is JobState.COMPLETED
    assert job.node_name == "n1"
    assert len(sched.trace.query(kind="job.start")) == starts
    assert len(sched.trace.query(kind="job.complete")) == 1
