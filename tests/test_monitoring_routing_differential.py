"""Differential tests: the shared routing index vs the reference linear scan.

Both fabrics route through :class:`DistributionFramework`'s index (exact-topic
dict + compiled globs + route cache), which must be observationally identical
to the seed's O(subscriptions) linear scan over a full decode of the wire
bytes, surviving as ``PubSubBroker(env, reference=True)``. These tests drive
both with identical randomized subscribe/unsubscribe/publish traffic —
including consumers that subscribe or cancel from inside a callback — and
assert identical callback sequences and byte accounting.
"""

import itertools
import random

import pytest

from repro.monitoring import Measurement, MulticastChannel, PubSubBroker
from repro.sim import Environment

QNAMES = [
    "uk.ucl.condor.schedd.queuesize",
    "uk.ucl.condor.exec.load",
    "uk.ucl.web.sessions",
    "com.sap.dispatcher.sessions",
    "com.sap.dispatcher.latency",
    "org.example.probe.raw",
]

GLOBS = [
    "uk.ucl.*",
    "uk.ucl.condor.*",
    "*.sessions",
    "com.sap.dispatcher.?atency",
    "uk.ucl.condor.[se]*",
    "*",
]

SERVICES = ["svc-1", "svc-2", "svc-3"]


def _recorder(log, tag):
    def callback(m):
        log.append((tag, m.service_id, m.qualified_name, m.seqno))
    return callback


def _random_filters(rng):
    service_id = rng.choice(SERVICES + [None, None])
    kind = rng.random()
    if kind < 0.4:
        qualified_name = rng.choice(QNAMES)
    elif kind < 0.7:
        qualified_name = rng.choice(GLOBS)
    else:
        qualified_name = None
    return service_id, qualified_name


def _run_traffic(seed, indexed, reference, env_i, env_r, *,
                 latency=False, n_ops=400):
    rng = random.Random(seed)
    log_i, log_r = [], []
    live = []  # (tag, sub_indexed, sub_reference)
    tag = 0
    for k in range(n_ops):
        op = rng.random()
        if op < 0.2:
            service_id, qualified_name = _random_filters(rng)
            live.append((
                tag,
                indexed.subscribe(_recorder(log_i, tag),
                                  service_id=service_id,
                                  qualified_name=qualified_name),
                reference.subscribe(_recorder(log_r, tag),
                                    service_id=service_id,
                                    qualified_name=qualified_name),
            ))
            tag += 1
        elif op < 0.3 and live:
            _, sub_i, sub_r = live.pop(rng.randrange(len(live)))
            # exercise both teardown spellings
            if rng.random() < 0.5:
                indexed.unsubscribe(sub_i)
                reference.unsubscribe(sub_r)
            else:
                sub_i.cancel()
                sub_r.cancel()
        else:
            m = Measurement(
                qualified_name=rng.choice(QNAMES),
                service_id=rng.choice(SERVICES),
                probe_id=f"probe-{rng.randrange(8) + 1}",
                timestamp=float(k),
                values=(k, rng.random(), "state"),
                seqno=k,
            )
            indexed.publish(m)
            reference.publish(m)
            if latency and rng.random() < 0.2:
                until = env_i.now + rng.choice([0.5, 1.0, 3.0])
                env_i.run(until=until)
                env_r.run(until=until)
    if latency:
        env_i.run()
        env_r.run()
    return log_i, log_r


@pytest.mark.parametrize("seed", range(8))
def test_indexed_routing_matches_reference(seed):
    env_i, env_r = Environment(), Environment()
    indexed = PubSubBroker(env_i)
    reference = PubSubBroker(env_r, reference=True)
    log_i, log_r = _run_traffic(seed, indexed, reference, env_i, env_r)
    assert log_i == log_r
    assert indexed.bytes_published == reference.bytes_published
    assert indexed.bytes_delivered == reference.bytes_delivered
    assert indexed.packets_published == reference.packets_published
    # in-process delivery never decodes more than the reference's
    # always-decode (it never decodes at all)
    assert indexed.packets_decoded <= reference.packets_decoded


@pytest.mark.parametrize("seed", range(4))
def test_indexed_routing_matches_reference_with_latency(seed):
    """Same differential under a latency edge, exercising the coalesced
    drain loop: delivery order and accounting must still be identical."""
    env_i, env_r = Environment(), Environment()
    indexed = PubSubBroker(env_i, latency_s=1.0)
    reference = PubSubBroker(env_r, latency_s=1.0, reference=True)
    log_i, log_r = _run_traffic(seed, indexed, reference, env_i, env_r,
                                latency=True, n_ops=200)
    assert log_i == log_r
    assert indexed.bytes_delivered == reference.bytes_delivered
    assert indexed.bytes_published == reference.bytes_published


@pytest.mark.parametrize("seed", range(4))
def test_multicast_matches_reference_broker_callbacks(seed):
    """A MulticastChannel's *callback* sequence equals the broker's (same
    filters, same traffic) even though its byte accounting differs — the
    shared index and in-process delivery must not change who sees what."""
    env_m, env_r = Environment(), Environment()
    multicast = MulticastChannel(env_m)
    reference = PubSubBroker(env_r, reference=True)
    log_m, log_r = _run_traffic(seed, multicast, reference, env_m, env_r,
                                n_ops=250)
    assert log_m == log_r
    # multicast pushes every packet to every member at the network level
    assert multicast.bytes_delivered >= reference.bytes_delivered


def test_route_cache_counters_account_hits_and_misses():
    env = Environment()
    broker = PubSubBroker(env)
    broker.subscribe(lambda m: None, service_id="svc-1",
                     qualified_name=QNAMES[0])
    m = Measurement(QNAMES[0], "svc-1", "p-1", 0.0, (1,))
    broker.publish(m)
    assert (broker.route_cache_misses, broker.route_cache_hits) == (1, 0)
    broker.publish(m)
    assert (broker.route_cache_misses, broker.route_cache_hits) == (1, 1)
    # subscription churn invalidates the cache
    sub = broker.subscribe(lambda m: None, qualified_name="uk.ucl.*")
    broker.publish(m)
    assert (broker.route_cache_misses, broker.route_cache_hits) == (2, 1)
    broker.unsubscribe(sub)
    broker.publish(m)
    assert (broker.route_cache_misses, broker.route_cache_hits) == (3, 1)


# ---------------------------------------------------------------------------
# Subscription churn from inside a callback: the route is fixed when a
# packet's delivery starts, on every fabric.
# ---------------------------------------------------------------------------

def _churning_traffic(seed, fabric, *, n_packets=150, max_live=40):
    """Publish random traffic into one fabric whose consumers, when called,
    sometimes subscribe a new consumer or cancel a live one. Each consumer's
    choices come from its own seeded stream, so two fabrics with the same
    delivery semantics replay exactly the same log."""
    rng = random.Random(seed)
    log = []
    live = []
    tags = itertools.count()

    def add(choices):
        tag = next(tags)
        own = random.Random(seed * 7919 + tag)
        service_id, qualified_name = _random_filters(choices)

        def callback(m):
            log.append((tag, m.service_id, m.qualified_name, m.seqno))
            roll = own.random()
            if roll < 0.15 and len(live) < max_live:
                add(own)
            elif roll < 0.3 and live:
                live.pop(own.randrange(len(live))).cancel()

        live.append(fabric.subscribe(callback, service_id=service_id,
                                     qualified_name=qualified_name))

    for _ in range(12):
        add(rng)
    for k in range(n_packets):
        if not live:
            add(rng)
        fabric.publish(Measurement(
            qualified_name=rng.choice(QNAMES),
            service_id=rng.choice(SERVICES),
            probe_id="probe-1", timestamp=float(k), values=(k,), seqno=k))
    return log


@pytest.mark.parametrize("seed", range(6))
def test_churn_during_delivery_matches_reference(seed):
    reference = _churning_traffic(
        seed, PubSubBroker(Environment(), reference=True))
    assert len(reference) > 100
    assert _churning_traffic(seed, PubSubBroker(Environment())) == reference
    assert _churning_traffic(seed, MulticastChannel(Environment())) \
        == reference


@pytest.mark.parametrize("factory", [
    MulticastChannel, PubSubBroker,
    lambda env: PubSubBroker(env, reference=True)])
def test_route_is_fixed_when_delivery_starts(factory):
    """A consumer cancelled mid-delivery still gets the packet in flight; a
    consumer subscribed mid-delivery first sees the next packet."""
    env = Environment()
    net = factory(env)
    seen = []
    late = []

    def first(m):
        seen.append(("first", m.seqno))
        if m.seqno == 0:
            second_sub.cancel()
            late.append(net.subscribe(
                lambda m: seen.append(("late", m.seqno))))

    net.subscribe(first)
    second_sub = net.subscribe(lambda m: seen.append(("second", m.seqno)))
    for seqno in range(2):
        net.publish(Measurement(QNAMES[0], "svc-1", "p-1", 0.0, (1,),
                                seqno=seqno))
    assert seen == [("first", 0), ("second", 0), ("first", 1), ("late", 1)]
    assert late[0].active and not second_sub.active
