"""Differential tests: timer-wheel kernel vs the heap oracle kernel.

The calendar-queue kernel (`Environment()`) must be *observationally
identical* to the reference heap kernel (`Environment(reference=True)`):
same event orderings, same clock, same final states, same event counts —
byte-identical logs on any seeded workload. These tests run randomized
process mixes (timeouts, zero-delay cascades, AnyOf/AllOf races with
abandoned losers, interrupts, resource and store waits, processes spawned
mid-batch) through both kernels and compare serialized transcripts. The
calendar kernel is also driven one ``step()`` at a time and with a profiling
hook installed: every way of driving it must dispatch in the heap's order.
"""

import json
import random

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

DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5, 7.0)


def _run_mix(seed: int, n_workers: int, *, reference: bool,
             stepped: bool = False, hook=None) -> str:
    """One seeded multi-process scenario; returns a serialized transcript
    of everything observable (event order, clock, counters, final state).

    ``stepped`` drives the kernel with ``step()`` instead of ``run()``;
    ``hook`` is installed with ``env.profile`` before the run.
    """
    env = Environment(reference=reference)
    if hook is not None:
        env.profile(hook)
    log: list = []
    resource = Resource(env, capacity=max(1, n_workers // 3))
    store = Store(env)
    gates = [env.event() for _ in range(3)]
    procs: list = []

    def child(wid: int, cid: int, delay: float):
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
    if stepped:
        while env.peek() <= 500.0:
            env.step()
    env.run(until=500.0)
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


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=40, deadline=None)
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
    calls = []

    def hook(event, callbacks, wall_s):
        calls.append(event)

    profiled = _run_mix(seed, n_workers, reference=False, hook=hook)
    assert profiled == _run_mix(seed, n_workers, reference=False)
    assert len(calls) == json.loads(profiled)["events"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_workers=st.integers(2, 12))
def test_profiled_run_matches_plain_on_random_mixes(seed, n_workers):
    """A profiling hook changes nothing observable, and sees every
    dispatch exactly once."""
    _profiled_matches_plain(seed, n_workers)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2010, 99991])
def test_profiled_run_matches_plain_on_pinned_seeds(seed):
    _profiled_matches_plain(seed, 8)
