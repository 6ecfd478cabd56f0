"""Differential tests: timer-wheel kernel vs the heap oracle kernel.

The calendar-queue kernel (`Environment()`) must be *observationally
identical* to the reference heap kernel (`Environment(reference=True)`):
same event orderings, same clock, same final states, same event counts —
byte-identical logs on any seeded workload. These tests run randomized
process mixes (timeouts, zero-delay cascades, AnyOf/AllOf races with
abandoned losers, interrupts, resource and store waits, processes spawned
mid-batch) through both kernels and compare serialized transcripts. The
calendar kernel is also driven one ``step()`` at a time: every way of
driving it must dispatch in the heap's order. A run sampled by the
``SIGPROF`` layer profiler must replay the unsampled one on either kernel.

``Environment.every`` members are replayed against the generator loops
they replace (``while True: yield env.timeout(d)``) on both kernels.

``KERNEL_FUZZ_EXAMPLES`` sets the Hypothesis example budget (default 40).
"""

import json
import os
import random
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim import (  # noqa: E402
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Resource,
    Store,
)
from repro.obs import SimProfiler  # noqa: E402

DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5, 7.0)

MAX_EXAMPLES = int(os.environ.get("KERNEL_FUZZ_EXAMPLES", "40"))


def _run_mix(seed: int, n_workers: int, *, reference: bool,
             stepped: bool = False, profiled: bool = False) -> str:
    """One seeded multi-process scenario; returns a serialized transcript
    of everything observable (event order, clock, counters, final state).

    ``stepped`` drives the kernel with ``step()`` instead of ``run()``;
    ``profiled`` samples the run with a :class:`SimProfiler`, and every
    child also calls its sample routine, since a short mix may see no
    timer signal at all.
    """
    env = Environment(reference=reference)
    profiler = SimProfiler().attach(env) if profiled else None
    log: list = []
    resource = Resource(env, capacity=max(1, n_workers // 3))
    store = Store(env)
    gates = [env.event() for _ in range(3)]
    procs: list = []

    def child(wid: int, cid: int, delay: float):
        if profiler is not None:
            profiler._sample(sys._getframe())
        log.append((env.now, wid, f"child-start:{cid}"))
        yield env.timeout(delay)
        log.append((env.now, wid, f"child-done:{cid}"))

    def worker(wid: int, wseed: int):
        wrng = random.Random(wseed)
        for step in range(wrng.randrange(3, 7)):
            try:
                op = wrng.randrange(8)
                if op == 0:
                    delay = wrng.choice(DELAYS)
                    yield env.timeout(delay)
                    log.append((env.now, wid, f"timeout:{delay}"))
                elif op == 1:
                    # AnyOf race: the losers stay queued (lazy cancellation).
                    races = [env.timeout(wrng.choice((1.0, 2.0, 3.0)),
                                         value=f"r{i}") for i in range(3)]
                    fired = yield AnyOf(env, races)
                    log.append((env.now, wid,
                                f"any:{sorted(map(str, fired.values()))}"))
                elif op == 2:
                    pair = [env.timeout(wrng.choice((0.0, 1.0, 2.0)))
                            for _ in range(2)]
                    yield AllOf(env, pair)
                    log.append((env.now, wid, "all"))
                elif op == 3:
                    req = resource.request()
                    yield req
                    log.append((env.now, wid, "acquired"))
                    yield env.timeout(wrng.choice((0.5, 1.5)))
                    yield resource.release(req)
                    log.append((env.now, wid, "released"))
                elif op == 4:
                    if wrng.random() < 0.5:
                        yield store.put((wid, step))
                        log.append((env.now, wid, "put"))
                    else:
                        got = yield AnyOf(env, [store.get(),
                                                env.timeout(2.0)])
                        log.append((env.now, wid,
                                    f"get:{len(got)}"))
                else:
                    # op 5: poke another worker; op 6: gate signal/wait;
                    # op 7: spawn a child.
                    if op == 5:
                        idx = wrng.randrange(n_workers)
                        if (idx != wid and idx < len(procs)
                                and procs[idx].is_alive):
                            procs[idx].interrupt(cause=wid)
                            log.append((env.now, wid, f"interrupted:{idx}"))
                        yield env.timeout(0.5)
                    elif op == 6:
                        gate = gates[wrng.randrange(3)]
                        if not gate.triggered and wrng.random() < 0.5:
                            gate.succeed(wid)
                            yield env.timeout(0)
                            log.append((env.now, wid, "signalled"))
                        else:
                            fired = yield AnyOf(env,
                                                [gate, env.timeout(3.0)])
                            log.append((env.now, wid,
                                        f"gated:{len(fired)}"))
                    else:
                        # The child's URGENT init lands mid-batch and must
                        # beat the instant's remaining NORMAL events.
                        env.process(child(wid, step,
                                          wrng.choice((0.0, 0.5))),
                                    name=f"w{wid}c{step}")
                        yield env.timeout(wrng.choice((0.0, 0.5)))
                        log.append((env.now, wid, "spawned"))
            except Interrupt as intr:
                log.append((env.now, wid, f"interrupt-from:{intr.cause}"))
        log.append((env.now, wid, "done"))

    rng = random.Random(seed)
    for wid in range(n_workers):
        procs.append(env.process(worker(wid, rng.randrange(2**31)),
                                 name=f"w{wid}"))
    try:
        if stepped:
            while env.peek() <= 500.0:
                env.step()
        env.run(until=500.0)
    finally:
        if profiler is not None:
            profiler.detach()
    return json.dumps({
        "now": env.now,
        "events": env.events_processed,
        "dead_skipped": env.dead_skipped,
        "store": len(store.items),
        "resource_queue": len(resource.queue),
        "log": log,
    })


def test_reference_flag_selects_heap_kernel():
    assert Environment().reference is False
    assert Environment(reference=True).reference is True


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_workers=st.integers(2, 12))
def test_wheel_matches_heap_on_random_mixes(seed, n_workers):
    """Byte-identical transcripts on randomized seeded process mixes."""
    assert (_run_mix(seed, n_workers, reference=False)
            == _run_mix(seed, n_workers, reference=True))


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2010, 99991])
def test_wheel_matches_heap_on_pinned_seeds(seed):
    """A fast pinned-seed subset that runs even without randomization."""
    assert (_run_mix(seed, 8, reference=False)
            == _run_mix(seed, 8, reference=True))


def test_wheel_matches_heap_replays_itself():
    """Each kernel is also self-deterministic across repeat runs."""
    for reference in (False, True):
        assert (_run_mix(1234, 6, reference=reference)
                == _run_mix(1234, 6, reference=reference))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_workers=st.integers(2, 12))
def test_stepped_wheel_matches_heap_on_random_mixes(seed, n_workers):
    """``step()`` dispatches in the same order as the heap's ``run()``."""
    assert (_run_mix(seed, n_workers, reference=False, stepped=True)
            == _run_mix(seed, n_workers, reference=True))


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2010, 99991])
def test_stepped_wheel_matches_heap_on_pinned_seeds(seed):
    assert (_run_mix(seed, 8, reference=False, stepped=True)
            == _run_mix(seed, 8, reference=True))


def _profiled_matches_plain(seed: int, n_workers: int) -> None:
    for reference in (False, True):
        assert (_run_mix(seed, n_workers, reference=reference, profiled=True)
                == _run_mix(seed, n_workers, reference=reference))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_workers=st.integers(2, 12))
def test_profiled_run_matches_plain_on_random_mixes(seed, n_workers):
    """Sampling a run changes nothing observable, on either kernel."""
    _profiled_matches_plain(seed, n_workers)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2010, 99991])
def test_profiled_run_matches_plain_on_pinned_seeds(seed):
    _profiled_matches_plain(seed, 8)


# ---------------------------------------------------------------------------
# Periodic members: Environment.every vs generator loops
# ---------------------------------------------------------------------------

#: same-grid (multiples of 30) and off-grid periods
PERIODS = (30.0, 60.0, 60.0, 90.0, 45.5, 17.25)


def _run_periodic_mix(seed: int, n_members: int, *, reference: bool,
                      loops: bool, stepped: bool = False) -> dict:
    """Seeded periodic members; ``loops`` runs each as an ``env.process``
    generator loop instead of an ``every()`` member. Returns the
    ``(time, member, payload)`` transcript and the kernel counters.

    A tick may change the member's period, spawn a process (its URGENT
    start runs before the next member), schedule a timeout landing exactly
    on the member's next tick, cancel a member (itself included) and start
    a replacement in the same instant, or stop by returning ``None``.
    """
    env = Environment(reference=reference)
    log: list = []
    handles: list = []

    class Loop:
        """The generator-loop counterpart of a ``Periodic`` handle."""

        def __init__(self):
            self.active = True

        def cancel(self):
            self.active = False

    def child(mid: int, k: int, delay: float):
        log.append((env.now, mid, f"child-start:{k}"))
        yield env.timeout(delay)
        log.append((env.now, mid, f"child-done:{k}"))

    def start(period: float, mseed: int) -> None:
        mid = len(handles)
        rng = random.Random(mseed)
        state = {"period": period, "k": 0}

        def tick():
            k = state["k"] = state["k"] + 1
            log.append((env.now, mid, f"tick:{k}:{state['period']}"))
            op = rng.randrange(10)
            if op == 0:
                state["period"] = rng.choice(PERIODS)
            elif op == 1:
                env.process(child(mid, k, rng.choice((0.0, 5.0,
                                                      state["period"]))))
            elif op == 2:
                on_grid = env.timeout(state["period"])
                on_grid.callbacks.append(
                    lambda _e, k=k: log.append((env.now, mid,
                                                f"on-grid:{k}")))
            elif op == 3:
                victim = rng.randrange(len(handles))
                handles[victim].cancel()
                log.append((env.now, mid, f"cancel:{victim}"))
                start(rng.choice(PERIODS), rng.randrange(2**31))
            elif op == 4 and rng.random() < 0.3:
                log.append((env.now, mid, "stop"))
                return None
            return state["period"]

        if loops:
            handle = Loop()

            def loop():
                delay = state["period"]
                while True:
                    yield env.timeout(delay)
                    if not handle.active:
                        return
                    delay = tick()
                    if delay is None or not handle.active:
                        return

            handles.append(handle)
            env.process(loop())
        else:
            handles.append(env.every(lambda: state["period"], tick))

    rng = random.Random(seed)
    for _ in range(n_members):
        start(rng.choice(PERIODS), rng.randrange(2**31))
    if stepped:
        while env.peek() <= 600.0:
            env.step()
    env.run(until=600.0)
    return {"log": log, "now": env.now, "events": env.events_processed,
            "dead_skipped": env.dead_skipped}


def _periodic_matches(seed: int, n_members: int) -> None:
    wheel = _run_periodic_mix(seed, n_members, reference=False, loops=False)
    heap = _run_periodic_mix(seed, n_members, reference=True, loops=False)
    stepped = _run_periodic_mix(seed, n_members, reference=False,
                                loops=False, stepped=True)
    assert wheel == heap == stepped
    for reference in (False, True):
        loops = _run_periodic_mix(seed, n_members, reference=reference,
                                  loops=True)
        assert json.dumps(loops["log"]) == json.dumps(wheel["log"])
        assert loops["now"] == wheel["now"]
        # One event per instant, not per member tick.
        assert loops["events"] >= wheel["events"]


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_members=st.integers(1, 24))
def test_every_matches_generator_loops_on_random_mixes(seed, n_members):
    """``every()`` members give the generator loops' transcript on both
    kernels, and both kernels count the same events."""
    _periodic_matches(seed, n_members)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2010, 99991])
def test_every_matches_generator_loops_on_pinned_seeds(seed):
    _periodic_matches(seed, 16)
