"""Integration tests: probes, data sources, distribution, consumers, agents,
information model."""

import pytest

from repro.monitoring import (
    AggregatingKPI,
    AttributeType,
    InformationModel,
    Measurement,
    MeasurementJournal,
    MeasurementStore,
    MonitoringAgent,
    MulticastChannel,
    Probe,
    ProbeAttribute,
    PubSubBroker,
    DataSource,
)
from repro.sim import Environment


def make_probe(value_fn=lambda: (5,), rate=30.0, qname="uk.ucl.test.kpi"):
    return Probe(
        name="test-probe",
        qualified_name=qname,
        attributes=[ProbeAttribute("value", AttributeType.INTEGER, "units")],
        collector=value_fn,
        data_rate_s=rate,
    )


# ---------------------------------------------------------------------------
# Probe / DataSource mechanics
# ---------------------------------------------------------------------------

def test_probe_periodic_emission():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(rate=30))
    env.run(until=95)
    # Emissions at t=30, 60, 90.
    assert store.notifications == 3
    assert store.value("svc-1", "uk.ucl.test.kpi") == 5


def test_probe_collector_values_change():
    env = Environment()
    net = MulticastChannel(env)
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    counter = {"n": 0}

    def collect():
        counter["n"] += 1
        return (counter["n"],)

    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(collect, rate=10))
    env.run(until=35)
    values = [m.value for m in journal.stream("svc-1", "uk.ucl.test.kpi")]
    assert values == [1, 2, 3]
    seqnos = [m.seqno for m in journal.stream("svc-1", "uk.ucl.test.kpi")]
    assert seqnos == [1, 2, 3]


def test_probe_returning_none_skips_interval():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    calls = {"n": 0}

    def collect():
        calls["n"] += 1
        return (calls["n"],) if calls["n"] % 2 == 0 else None

    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(collect, rate=10))
    env.run(until=45)
    assert calls["n"] == 4
    assert store.notifications == 2


def test_probe_off_suppresses_emission():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    probe = ds.add_probe(make_probe(rate=10))
    env.run(until=25)
    assert store.notifications == 2
    probe.turn_off()
    env.run(until=55)
    assert store.notifications == 2
    probe.turn_on()
    env.run(until=65)
    assert store.notifications == 3


def test_stop_probe_halts_loop():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(rate=10))
    env.run(until=25)
    ds.stop_probe("test-probe")
    env.run(until=100)
    assert store.notifications == 2
    # Restart works.
    ds.start_probe("test-probe")
    env.run(until=115)
    assert store.notifications == 3


def test_set_data_rate_changes_period():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(rate=10))
    env.run(until=25)
    assert store.notifications == 2  # t=10, 20
    ds.set_data_rate("test-probe", 5)
    # The in-flight interval (started at t=20) still uses the old rate and
    # fires at t=30; subsequent intervals use the new 5 s period.
    env.run(until=41)
    assert store.notifications == 5  # + t=30, 35, 40
    with pytest.raises(ValueError):
        ds.set_data_rate("test-probe", 0)


def test_stop_probe_mid_instant_before_its_turn_emits_nothing():
    """A probe stopped earlier in the instant its tick is due emits
    nothing then, nor later."""
    env = Environment()
    net = MulticastChannel(env)
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)

    def first():
        if env.now == 20:
            ds.stop_probe("second")
        return (1,)

    ds.add_probe(Probe("first", "uk.ucl.test.first",
                       [ProbeAttribute("v", AttributeType.INTEGER)],
                       first, data_rate_s=10))
    ds.add_probe(Probe("second", "uk.ucl.test.second",
                       [ProbeAttribute("v", AttributeType.INTEGER)],
                       lambda: (2,), data_rate_s=10))
    env.run(until=45)
    emitted = [(m.timestamp, m.qualified_name.rsplit(".", 1)[-1])
               for m in journal]
    assert emitted == [(10.0, "first"), (10.0, "second"), (20.0, "first"),
                       (30.0, "first"), (40.0, "first")]
    assert not ds.probes["second"].active


def test_set_data_rate_during_a_tick_takes_effect_next_interval():
    env = Environment()
    net = MulticastChannel(env)
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)

    def collect():
        if env.now == 10:
            ds.set_data_rate("test-probe", 3)
        return (1,)

    ds.add_probe(make_probe(value_fn=collect, rate=10))
    env.run(until=20)
    assert [m.timestamp for m in journal] == [10.0, 13.0, 16.0, 19.0]


def test_emit_now_bypasses_schedule():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    probe = ds.add_probe(make_probe(rate=1000), start=False)
    m = ds.emit_now("test-probe")
    assert m is not None and store.notifications == 1
    probe.turn_off()
    assert ds.emit_now("test-probe") is None


def test_duplicate_probe_name_rejected():
    env = Environment()
    ds = DataSource(env, "ds", "svc-1", MulticastChannel(env))
    ds.add_probe(make_probe())
    with pytest.raises(ValueError):
        ds.add_probe(make_probe())


def test_probe_validation():
    with pytest.raises(ValueError):
        make_probe(rate=0)
    with pytest.raises(ValueError):
        Probe(name="", qualified_name="a.b", attributes=[], collector=lambda: (1,))


# ---------------------------------------------------------------------------
# Distribution frameworks
# ---------------------------------------------------------------------------

def _emit(env, net, qname="uk.ucl.a.b", service="svc-1"):
    ds = DataSource(env, "ds", service, net)
    ds.add_probe(make_probe(qname=qname, rate=10))
    return ds


def test_multicast_delivers_to_all_members():
    env = Environment()
    net = MulticastChannel(env)
    s1, s2 = MeasurementStore(), MeasurementStore()
    s1.subscribe_to(net)
    s2.subscribe_to(net)
    _emit(env, net)
    env.run(until=15)
    assert s1.notifications == s2.notifications == 1


def test_multicast_filters_at_consumer_but_counts_delivery():
    env = Environment()
    net = MulticastChannel(env)
    matched, unmatched = MeasurementStore(), MeasurementStore()
    matched.subscribe_to(net, qualified_name="uk.ucl.*")
    unmatched.subscribe_to(net, qualified_name="com.sap.*")
    _emit(env, net)
    env.run(until=15)
    assert matched.notifications == 1
    assert unmatched.notifications == 0
    # Both members received the packet at the network level.
    assert net.bytes_delivered == 2 * net.bytes_published


def test_pubsub_only_delivers_matches():
    env = Environment()
    net = PubSubBroker(env)
    matched, unmatched = MeasurementStore(), MeasurementStore()
    matched.subscribe_to(net, qualified_name="uk.ucl.*")
    unmatched.subscribe_to(net, qualified_name="com.sap.*")
    _emit(env, net)
    env.run(until=15)
    assert matched.notifications == 1
    assert unmatched.notifications == 0
    assert net.bytes_delivered == net.bytes_published  # one match only


def test_service_id_filtering():
    env = Environment()
    net = PubSubBroker(env)
    mine, other = MeasurementStore(), MeasurementStore()
    mine.subscribe_to(net, service_id="svc-1")
    other.subscribe_to(net, service_id="svc-2")
    _emit(env, net, service="svc-1")
    env.run(until=15)
    assert mine.notifications == 1
    assert other.notifications == 0


def test_distribution_latency_delays_delivery():
    env = Environment()
    net = MulticastChannel(env, latency_s=5.0)
    store = MeasurementStore()
    store.subscribe_to(net)
    _emit(env, net)
    env.run(until=12)
    assert store.notifications == 0  # sent at t=10, arrives at t=15
    env.run(until=16)
    assert store.notifications == 1


def test_negative_latency_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        MulticastChannel(env, latency_s=-1)


# ---------------------------------------------------------------------------
# Unsubscribe / subscription lifecycle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [MulticastChannel, PubSubBroker])
def test_unsubscribe_stops_delivery(factory):
    env = Environment()
    net = factory(env)
    store = MeasurementStore()
    sub = store.subscribe_to(net)
    assert net.subscription_count == 1
    ds = _emit(env, net)
    env.run(until=15)
    assert store.notifications == 1
    net.unsubscribe(sub)
    assert net.subscription_count == 0
    assert not sub.active
    env.run(until=45)
    assert store.notifications == 1  # no deliveries after teardown
    net.unsubscribe(sub)  # idempotent


def test_subscription_cancel_shorthand():
    env = Environment()
    net = PubSubBroker(env)
    store = MeasurementStore()
    sub = store.subscribe_to(net)
    sub.cancel()
    sub.cancel()
    assert net.subscription_count == 0


def test_unsubscribe_foreign_subscription_rejected():
    env = Environment()
    net_a, net_b = PubSubBroker(env), PubSubBroker(env)
    sub = net_a.subscribe(lambda m: None)
    with pytest.raises(ValueError):
        net_b.unsubscribe(sub)


def test_route_cache_invalidated_by_subscription_churn():
    env = Environment()
    net = PubSubBroker(env)
    first, late = MeasurementStore(), MeasurementStore()
    first.subscribe_to(net, qualified_name="uk.ucl.a.b")
    ds = _emit(env, net)
    env.run(until=15)
    assert first.notifications == 1
    # the route for this header is now cached; a later subscriber must
    # still be seen by the next packet
    late.subscribe_to(net, qualified_name="uk.ucl.*")
    env.run(until=25)
    assert first.notifications == 2
    assert late.notifications == 1


def test_relay_stop_releases_subscription():
    from repro.monitoring import MonitoringRelay
    env = Environment()
    site_a, site_b = MulticastChannel(env), MulticastChannel(env)
    relay = MonitoringRelay(env, source=site_a, target=site_b)
    assert site_a.subscription_count == 1
    relay.stop()
    assert site_a.subscription_count == 0


# ---------------------------------------------------------------------------
# In-process delivery (no decode) and delivery batching
# ---------------------------------------------------------------------------

def test_broker_skips_decode_when_nobody_matches():
    env = Environment()
    net = PubSubBroker(env)
    other = MeasurementStore()
    other.subscribe_to(net, qualified_name="com.sap.*")
    _emit(env, net)  # publishes uk.ucl.a.b
    env.run(until=15)
    assert other.notifications == 0
    assert net.packets_published == 1
    assert net.packets_decoded == 0  # routed away without materialising
    assert net.bytes_delivered == 0


@pytest.mark.parametrize("factory", [MulticastChannel, PubSubBroker])
def test_in_process_delivery_hands_over_publisher_object(factory):
    """In-process delivery never decodes: every matched consumer receives
    the very Measurement object the publisher built."""
    env = Environment()
    net = factory(env)
    received = [[] for _ in range(5)]
    for sink in received:
        net.subscribe(sink.append, qualified_name="uk.ucl.*")
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(qname="uk.ucl.a.b"), start=False)
    published = ds.emit_now("test-probe")
    assert published is not None
    assert all(sink == [published] and sink[0] is published
               for sink in received)
    assert net.packets_decoded == 0


def test_multicast_counts_bytes_without_decoding_unmatched():
    env = Environment()
    net = MulticastChannel(env)
    other = MeasurementStore()
    other.subscribe_to(net, qualified_name="com.sap.*")
    _emit(env, net)
    env.run(until=15)
    assert other.notifications == 0
    assert net.bytes_delivered == net.bytes_published  # traversed the wire
    assert net.packets_decoded == 0                    # but never decoded


def test_same_instant_packets_share_one_delivery_event():
    env = Environment()
    net = PubSubBroker(env, latency_s=2.0)
    store = MeasurementStore()
    store.subscribe_to(net)
    ms = [Measurement("uk.ucl.a.b", "svc-1", "p-1", 0.0, (i,), seqno=i)
          for i in range(50)]
    for m in ms:
        net.publish(m)
    env.run(until=1.5)
    assert store.notifications == 0  # still in flight
    env.run(until=2.5)
    assert store.notifications == 50
    assert net.delivery_events == 1  # coalesced, not one process per packet


def test_delayed_batches_preserve_order_across_instants():
    env = Environment()
    net = PubSubBroker(env, latency_s=1.0)
    seen = []
    net.subscribe(lambda m: seen.append((env.now, m.seqno)))

    def producer(env):
        for i in range(3):
            net.publish(Measurement("uk.ucl.a.b", "svc-1", "p-1",
                                    env.now, (i,), seqno=i))
            net.publish(Measurement("uk.ucl.a.b", "svc-1", "p-1",
                                    env.now, (i,), seqno=100 + i))
            yield env.timeout(5)

    env.process(producer(env))
    env.run()
    assert seen == [(1.0, 0), (1.0, 100), (6.0, 1), (6.0, 101),
                    (11.0, 2), (11.0, 102)]
    assert net.delivery_events == 3


def test_publish_many_batches_delivery():
    env = Environment()
    net = PubSubBroker(env, latency_s=3.0)
    store = MeasurementStore()
    store.subscribe_to(net)
    ms = [Measurement("uk.ucl.a.b", "svc-1", "p-1", 0.0, (i,), seqno=i)
          for i in range(10)]
    net.publish_many(ms)
    assert net.packets_published == 10
    env.run()
    assert store.notifications == 10
    assert net.delivery_events == 1


def test_publish_many_packet_alignment_checked():
    env = Environment()
    net = PubSubBroker(env)
    m = Measurement("uk.ucl.a.b", "svc-1", "p-1", 0.0, (1,))
    with pytest.raises(ValueError):
        net.publish_many([m], packets=[])


def test_datasource_emit_all_now_publishes_batch():
    env = Environment()
    net = PubSubBroker(env, latency_s=1.0)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    values = {"a.b.x": 1, "a.b.y": 2, "a.b.z": 3}
    for qname, v in values.items():
        probe = Probe(
            name=qname, qualified_name=qname,
            attributes=[ProbeAttribute("v", AttributeType.INTEGER)],
            collector=(lambda v=v: (v,)),
        )
        ds.add_probe(probe, start=False)
    ds.probes["a.b.y"].turn_off()
    emitted = ds.emit_all_now()
    assert [m.qualified_name for m in emitted] == ["a.b.x", "a.b.z"]
    env.run()
    assert store.notifications == 2
    assert net.delivery_events == 1
    assert store.value("svc-1", "a.b.z") == 3


def test_probe_emission_packets_byte_identical_to_reference_codec():
    from repro.monitoring import decode_measurement, encode_measurement

    env = Environment()
    captured = []

    class CapturingBroker(PubSubBroker):
        def publish(self, measurement, *, packet=None):
            captured.append((measurement, packet))
            super().publish(measurement, packet=packet)

    net = CapturingBroker(env)
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(rate=10))
    env.run(until=35)
    assert len(captured) == 3
    for measurement, packet in captured:
        assert packet == encode_measurement(measurement)
        assert decode_measurement(packet) == measurement


# ---------------------------------------------------------------------------
# MeasurementStore / Journal semantics
# ---------------------------------------------------------------------------

def test_store_latest_value_semantics():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    counter = {"n": 0}

    def collect():
        counter["n"] += 10
        return (counter["n"],)

    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(collect, rate=10))
    env.run(until=35)
    assert store.value("svc-1", "uk.ucl.test.kpi") == 30
    assert store.value("svc-1", "uk.ucl.missing.kpi", default=-1) == -1
    assert store.age("svc-1", "uk.ucl.test.kpi", env.now) == pytest.approx(5.0)
    assert store.age("svc-1", "uk.ucl.missing.kpi", env.now) is None
    assert store.known_names("svc-1") == ["uk.ucl.test.kpi"]


def test_store_listener_fires_per_notification():
    store = MeasurementStore()
    seen = []
    store.add_listener(lambda m: seen.append(m.value))
    from repro.monitoring import Measurement
    store.notify(Measurement("a.b", "svc", "p", 0.0, (1,)))
    store.notify(Measurement("a.b", "svc", "p", 1.0, (2,)))
    assert seen == [1, 2]


def test_journal_window_statistics():
    env = Environment()
    net = MulticastChannel(env)
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    values = iter([4, 8, 6, 2])

    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(lambda: (next(values),), rate=10))
    env.run(until=45)
    assert journal.window_mean("svc-1", "uk.ucl.test.kpi", 0, 45) == 5.0
    assert journal.window_max("svc-1", "uk.ucl.test.kpi", 0, 25) == 8
    assert journal.window_min("svc-1", "uk.ucl.test.kpi", 15, 45) == 2
    assert journal.window_mean("svc-1", "uk.ucl.test.kpi", 100, 200) is None
    assert len(journal) == 4


def test_journal_gap_detection():
    from repro.monitoring import Measurement
    journal = MeasurementJournal()
    for t in (0, 30, 60, 200, 230):
        journal.notify(Measurement("a.b", "svc", "p", float(t), (1,)))
    gaps = journal.gaps_exceeding("svc", "a.b", max_gap_s=60)
    assert gaps == [(60.0, 200.0)]


# ---------------------------------------------------------------------------
# Information model integration
# ---------------------------------------------------------------------------

def test_infomodel_registration_and_elaboration():
    env = Environment()
    net = MulticastChannel(env)
    im = InformationModel()
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net, infomodel=im)
    probe = ds.add_probe(make_probe(lambda: (7,), rate=10))
    env.run(until=15)

    assert im.probe_name(probe.probe_id) == "test-probe"
    assert im.datasource_of(probe.probe_id) == ds.datasource_id
    state = im.probe_state(probe.probe_id)
    assert state["on"] is True and state["active"] is True
    assert state["datarate"] == 10

    (m,) = list(journal)
    elaborated = im.elaborate(m)
    assert len(elaborated) == 1
    assert elaborated[0].name == "value"
    assert elaborated[0].units == "units"
    assert elaborated[0].value == 7


def test_infomodel_state_tracks_probe_lifecycle():
    env = Environment()
    net = MulticastChannel(env)
    im = InformationModel()
    ds = DataSource(env, "ds", "svc-1", net, infomodel=im)
    probe = ds.add_probe(make_probe())
    ds.stop_probe("test-probe")
    assert im.probe_state(probe.probe_id)["active"] is False


def test_infomodel_unregister_removes_keys():
    env = Environment()
    net = MulticastChannel(env)
    im = InformationModel()
    ds = DataSource(env, "ds", "svc-1", net, infomodel=im)
    probe = ds.add_probe(make_probe())
    assert im.known_probes() == [probe.probe_id]
    im.unregister_probe(probe)
    assert im.known_probes() == []
    assert im.schema_of(probe.probe_id) is None


def test_infomodel_elaborate_unknown_probe_raises():
    from repro.monitoring import Measurement
    im = InformationModel()
    m = Measurement("a.b", "svc", "ghost-probe", 0.0, (1,))
    with pytest.raises(KeyError):
        im.elaborate(m)


def test_infomodel_elaborate_value_count_mismatch():
    from repro.monitoring import Measurement
    env = Environment()
    net = MulticastChannel(env)
    im = InformationModel()
    ds = DataSource(env, "ds", "svc-1", net, infomodel=im)
    probe = ds.add_probe(make_probe())
    bad = Measurement("a.b", "svc", probe.probe_id, 0.0, (1, 2, 3))
    with pytest.raises(ValueError):
        im.elaborate(bad)


# ---------------------------------------------------------------------------
# Monitoring agents
# ---------------------------------------------------------------------------

def test_agent_exposes_kpi_under_qualified_name():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    queue = {"size": 12}
    agent = MonitoringAgent(env, service_id="svc-1", component="GridMgmt",
                            network=net)
    agent.expose("uk.ucl.condor.schedd.queuesize",
                 lambda: queue["size"], frequency_s=30, units="jobs")
    env.run(until=35)
    assert store.value("svc-1", "uk.ucl.condor.schedd.queuesize") == 12
    queue["size"] = 20
    env.run(until=65)
    assert store.value("svc-1", "uk.ucl.condor.schedd.queuesize") == 20


def test_agent_coerces_to_declared_type():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    agent = MonitoringAgent(env, service_id="svc", component="c", network=net)
    agent.expose("a.b.count", lambda: 7.9, frequency_s=10,
                 type=AttributeType.INTEGER)
    env.run(until=15)
    assert store.value("svc", "a.b.count") == 7


def test_agent_aggregation_smooths_fluctuations():
    env = Environment()
    net = MulticastChannel(env)
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    values = iter([0, 100, 0, 100])
    agent = MonitoringAgent(env, service_id="svc", component="c", network=net)
    agent.expose("a.b.load", lambda: next(values), frequency_s=10,
                 type=AttributeType.DOUBLE, aggregate="mean", window=4)
    env.run(until=45)
    published = [m.value for m in journal.stream("svc", "a.b.load")]
    assert published == [0.0, 50.0, pytest.approx(100 / 3), 50.0]


def test_agent_stop_halts_all_probes():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    agent = MonitoringAgent(env, service_id="svc", component="c", network=net)
    agent.expose("a.b.x", lambda: 1, frequency_s=10)
    agent.expose("a.b.y", lambda: 2, frequency_s=10)
    env.run(until=15)
    assert store.notifications == 2
    agent.stop()
    env.run(until=100)
    assert store.notifications == 2


def test_aggregating_kpi_operations():
    raw = iter([1, 5, 3])
    agg = AggregatingKPI(lambda: next(raw), operation="max", window=2)
    assert agg() == 1
    assert agg() == 5
    assert agg() == 5  # window holds (5, 3)
    with pytest.raises(ValueError):
        AggregatingKPI(lambda: 1, operation="median")
    with pytest.raises(ValueError):
        AggregatingKPI(lambda: 1, window=0)


def test_aggregating_kpi_none_passthrough():
    agg = AggregatingKPI(lambda: None)
    assert agg() is None
