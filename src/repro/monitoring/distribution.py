"""The measurement distribution framework.

§5.2.5: "We need a mechanism that allows for multiple submitters and multiple
receivers of data without having vast numbers of network connections ...
Solutions to this include IP multicast, Event Service Bus, or
publish/subscribe mechanism. In each of these, a producer of data only needs
to send one copy of a measurement onto the network, and each of the consumers
will be able to collect the same packet of data concurrently."

§5.2.1: "The collection of the data and the distribution of data are dealt
with by different elements of the monitoring system so that it is possible to
change the distribution framework without changing all the producers and
consumers" — hence the abstract :class:`DistributionFramework` with two
interchangeable implementations:

* :class:`MulticastChannel` — every subscriber's host receives every packet
  (IP multicast style); the subscription filters decide which consumers
  see it.
* :class:`PubSubBroker` — topic-based routing on (service id, qualified
  name); the network only delivers packets a consumer asked for.

Both encode every measurement to its wire packet (bytes) to keep producers
honest about the wire format, and both account delivered volume so
experiments can compare network utilisation.

Data-plane fast path
--------------------
The fabric is the firehose feeding every elasticity decision, so the hot
path is engineered:

* **One routing index** — routing is decided at subscribe time, not per
  packet. :class:`DistributionFramework` buckets each subscription once:
  exact (service id + literal name, keyed on :func:`topic_for`), by
  qualified name, by service id, glob (compiled once, ``fnmatch.translate``
  → ``re.compile``) and catch-all. A route cache keyed on (service id,
  qualified name) makes the steady state one dict lookup per packet; any
  subscribe or unsubscribe clears it. Both fabrics route through this
  index and differ only in byte accounting: multicast counts every member,
  the broker counts the matched route. The seed's linear scan survives as
  ``PubSubBroker(env, reference=True)`` — the differential-test oracle.
* **No in-process decode** — the publisher already holds the frozen
  :class:`~repro.monitoring.measurements.Measurement` its packet encodes,
  and the codec round-trips every field exactly (same value, same type), so
  consumers receive that object; the packet only sizes the byte accounting.
  The reference broker still decodes the wire bytes of every packet, so the
  differential tests check codec fidelity (``packets_decoded`` counts real
  decodes and stays 0 on the indexed path).
* **Snapshot delivery** — the route is fixed when a packet's delivery
  starts: a consumer that subscribes or cancels from inside a callback
  changes who sees the *next* packet, never the one in flight.
* **Coalesced delayed delivery** — packets published into a latency edge are
  queued per due-time and drained by one long-lived process, so N packets
  sharing an edge cost one kernel event (``delivery_events``), not N.

Subscriptions are first-class: :meth:`DistributionFramework.subscribe`
returns a :class:`Subscription` handle that
:meth:`DistributionFramework.unsubscribe` (or ``handle.cancel()``) removes —
consumers torn down on probe ``off`` or service undeploy no longer leak
routing state.
"""

from __future__ import annotations

import abc
import fnmatch
import itertools
import re
from collections import deque
from typing import Callable, Optional, Sequence

from ..sim import Environment
from .codec import decode_measurement, encode_measurement
from .measurements import Measurement

__all__ = [
    "DistributionFramework",
    "MulticastChannel",
    "PubSubBroker",
    "Subscription",
    "topic_for",
]

#: A consumer callback receives the published measurement.
ConsumerCallback = Callable[[Measurement], None]

#: characters that make a qualified-name filter a glob pattern
_GLOB_RE = re.compile(r"[*?\[]")

#: distinguishes multiple fabrics in one environment's metrics registry
_fabric_ids = itertools.count(1)


def topic_for(service_id: str, qualified_name: str) -> str:
    """Canonical topic string for pub/sub routing.

    This is the key of the routing index's exact-match bucket: a
    subscription that pins both the service id and a non-glob qualified name
    is stored under this string.
    """
    return f"{service_id}/{qualified_name}"


class Subscription:
    """One registered consumer: filters + callback + compiled matcher.

    Returned by :meth:`DistributionFramework.subscribe`; hand it back to
    :meth:`DistributionFramework.unsubscribe` (or call :meth:`cancel`) to
    tear the consumer down. A glob ``qualified_name`` is compiled to a regex
    once, here, rather than re-parsed per packet.
    """

    __slots__ = ("framework", "callback", "service_id", "qualified_name",
                 "seq", "active", "_match")

    def __init__(self, framework: "DistributionFramework",
                 callback: ConsumerCallback,
                 service_id: Optional[str],
                 qualified_name: Optional[str],
                 seq: int):
        self.framework = framework
        self.callback = callback
        self.service_id = service_id
        self.qualified_name = qualified_name
        #: registration order; routing preserves it so indexed and reference
        #: modes invoke callbacks in the same sequence
        self.seq = seq
        self.active = True
        if qualified_name is not None and _GLOB_RE.search(qualified_name):
            self._match = re.compile(fnmatch.translate(qualified_name)).match
        else:
            self._match = None

    @property
    def is_glob(self) -> bool:
        return self._match is not None

    def matches(self, service_id: str, qualified_name: str) -> bool:
        """Whether a packet with this routing header passes the filters."""
        if self.service_id is not None and service_id != self.service_id:
            return False
        if self._match is not None:
            return self._match(qualified_name) is not None
        return (self.qualified_name is None
                or qualified_name == self.qualified_name)

    def cancel(self) -> None:
        """Unsubscribe from the owning framework (idempotent)."""
        if self.active:
            self.framework.unsubscribe(self)

    def __repr__(self) -> str:
        return (f"<Subscription service_id={self.service_id!r} "
                f"qualified_name={self.qualified_name!r} "
                f"{'active' if self.active else 'cancelled'}>")


class DistributionFramework(abc.ABC):
    """Producer/consumer fabric for measurement packets.

    Owns the routing index every implementation delivers through;
    subclasses only say how many receivers a packet's bytes reach.
    """

    def __init__(self, env: Environment, *, latency_s: float = 0.0):
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.latency_s = latency_s
        #: delivered volume accounting (bytes that reached consumers)
        self.bytes_delivered = 0
        #: injected volume accounting (bytes sent by producers)
        self.bytes_published = 0
        self.packets_published = 0
        #: wire packets decoded back into a Measurement (the reference
        #: broker's path; in-process delivery never decodes)
        self.packets_decoded = 0
        #: kernel wakeups spent draining delayed deliveries; with batching,
        #: N same-instant packets share one
        self.delivery_events = 0
        #: live subscriptions in registration order (dict: O(1) removal)
        self._subs: dict[Subscription, None] = {}
        self._sub_seq = itertools.count().__next__
        # -- the routing index, maintained at subscribe/unsubscribe time --
        #: service id + exact qualified name, keyed on :func:`topic_for`
        self._exact: dict[str, list[Subscription]] = {}
        #: exact qualified name, any service
        self._by_qname: dict[str, list[Subscription]] = {}
        #: service id only, any qualified name
        self._by_service: dict[str, list[Subscription]] = {}
        #: glob qualified names (optionally service-pinned), compiled
        self._globs: list[Subscription] = []
        #: no filters at all
        self._catch_all: list[Subscription] = []
        #: (service id, qualified name) -> matched subscriptions, in
        #: registration order; cleared on any subscribe/unsubscribe
        self._route_cache: dict[tuple[str, str], tuple[Subscription, ...]] = {}
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        #: FIFO of (due time, [(measurement, packet)]) batches awaiting the
        #: latency edge
        self._pending: deque[tuple[float,
                                   list[tuple[Measurement, bytes]]]] = deque()
        self._drain = None
        # The counters above stay plain ints (the delivery loop is the
        # hottest path in the system); the unified registry sees them
        # through zero-cost views instead.
        self._fabric_label = f"fabric{next(_fabric_ids)}"
        metrics = env.metrics
        for attr in ("bytes_published", "bytes_delivered",
                     "packets_published", "packets_decoded",
                     "delivery_events"):
            metrics.register_view(
                f"monitoring.fabric.{attr}",
                (lambda _a=attr: getattr(self, _a)),
                fabric=self._fabric_label)

    # -- publishing ----------------------------------------------------------
    def publish(self, measurement: Measurement, *,
                packet: Optional[bytes] = None) -> None:
        """Encode and send one measurement into the fabric.

        Producers holding a :class:`~repro.monitoring.codec.PacketEncoder`
        may pass the pre-encoded ``packet`` (byte-identical to
        :func:`~repro.monitoring.codec.encode_measurement` output) to skip
        the redundant encode.
        """
        if packet is None:
            packet = encode_measurement(measurement)
        self.bytes_published += len(packet)
        self.packets_published += 1
        if self.latency_s == 0.0:
            self._deliver(measurement, packet)
        else:
            self._enqueue(measurement, packet)

    def publish_many(self, measurements: Sequence[Measurement], *,
                     packets: Optional[Sequence[bytes]] = None) -> None:
        """Publish a batch; packets sharing the latency edge coalesce into
        one kernel event instead of one process per packet."""
        if packets is None:
            for m in measurements:
                self.publish(m)
        else:
            if len(packets) != len(measurements):
                raise ValueError("packets must align with measurements")
            for m, p in zip(measurements, packets):
                self.publish(m, packet=p)

    def _enqueue(self, measurement: Measurement, packet: bytes) -> None:
        due = self.env.now + self.latency_s
        pending = self._pending
        # latency_s is fixed, so due times arrive non-decreasing: same-instant
        # publishes land in the tail batch and share its wakeup.
        if pending and pending[-1][0] == due:
            pending[-1][1].append((measurement, packet))
        else:
            pending.append((due, [(measurement, packet)]))
        if self._drain is None or not self._drain.is_alive:
            self._drain = self.env.process(self._drain_loop(),
                                           name="mon-delivery")

    def _drain_loop(self):
        pending = self._pending
        while pending:
            due = pending[0][0]
            if due > self.env.now:
                self.delivery_events += 1
                yield self.env.timeout(due - self.env.now)
            for measurement, packet in pending.popleft()[1]:
                self._deliver(measurement, packet)

    # -- subscribing ---------------------------------------------------------
    def subscribe(self, callback: ConsumerCallback, *,
                  service_id: Optional[str] = None,
                  qualified_name: Optional[str] = None) -> Subscription:
        """Register a consumer and return its handle.

        ``None`` filters mean "everything"; the qualified name may be a glob
        pattern (``uk.ucl.condor.*``).
        """
        sub = Subscription(self, callback, service_id, qualified_name,
                           self._sub_seq())
        self._subs[sub] = None
        self._bucket(sub).append(sub)
        self._route_cache.clear()
        return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a consumer; idempotent for already-cancelled handles."""
        if subscription.framework is not self:
            raise ValueError("subscription belongs to a different framework")
        if not subscription.active:
            return
        subscription.active = False
        del self._subs[subscription]
        self._bucket(subscription).remove(subscription)
        self._route_cache.clear()

    @property
    def subscription_count(self) -> int:
        return len(self._subs)

    # -- routing -------------------------------------------------------------
    def _bucket(self, sub: Subscription) -> list[Subscription]:
        if sub.is_glob:
            return self._globs
        if sub.qualified_name is None:
            if sub.service_id is None:
                return self._catch_all
            return self._by_service.setdefault(sub.service_id, [])
        if sub.service_id is None:
            return self._by_qname.setdefault(sub.qualified_name, [])
        return self._exact.setdefault(
            topic_for(sub.service_id, sub.qualified_name), [])

    def _route(self, service_id: str,
               qualified_name: str) -> tuple[Subscription, ...]:
        key = (service_id, qualified_name)
        route = self._route_cache.get(key)
        if route is not None:
            self.route_cache_hits += 1
            return route
        self.route_cache_misses += 1
        matched = list(self._exact.get(topic_for(service_id, qualified_name),
                                       ()))
        matched += self._by_qname.get(qualified_name, ())
        matched += self._by_service.get(service_id, ())
        matched += self._catch_all
        for sub in self._globs:
            if sub.matches(service_id, qualified_name):
                matched.append(sub)
        # callbacks must fire in registration order, exactly as the
        # reference linear scan would invoke them
        matched.sort(key=lambda s: s.seq)
        route = tuple(matched)
        self._route_cache[key] = route
        return route

    def _deliver(self, measurement: Measurement, packet: bytes) -> None:
        """Hand the publisher's measurement to every matched consumer."""
        route = self._route(measurement.service_id,
                            measurement.qualified_name)
        self.bytes_delivered += len(packet) * self._receivers(route)
        for sub in route:
            sub.callback(measurement)

    @abc.abstractmethod
    def _receivers(self, route: tuple[Subscription, ...]) -> int:
        """How many subscribers a packet with this route reaches on the
        wire — the fabrics differ only here."""


class MulticastChannel(DistributionFramework):
    """IP-multicast-style delivery: one packet, every subscriber sees it.

    The whole packet traverses the network to every group member, as a
    host's kernel receives it after joining the multicast group, and the
    byte accounting reflects that. Which consumers the packet then reaches
    is decided by the shared routing index — the same filters a member
    would apply on arrival.
    """

    def _receivers(self, route: tuple[Subscription, ...]) -> int:
        return len(self._subs)  # every member receives it


class PubSubBroker(DistributionFramework):
    """Topic-routed delivery: only matching subscribers receive the packet.

    Routes through the shared index. ``reference=True`` keeps the seed's
    O(subscriptions) linear scan with per-packet ``fnmatch`` over a full
    decode of the wire bytes — functionally identical (the differential
    tests assert it) and used as the benchmark baseline.
    """

    def __init__(self, env: Environment, *, latency_s: float = 0.0,
                 reference: bool = False):
        super().__init__(env, latency_s=latency_s)
        self.reference = reference
        metrics = env.metrics
        metrics.register_view(
            "monitoring.broker.route_cache_hits",
            lambda: self.route_cache_hits, fabric=self._fabric_label)
        metrics.register_view(
            "monitoring.broker.route_cache_misses",
            lambda: self.route_cache_misses, fabric=self._fabric_label)

    def _receivers(self, route: tuple[Subscription, ...]) -> int:
        return len(route)  # only matched deliveries

    def _deliver(self, measurement: Measurement, packet: bytes) -> None:
        if not self.reference:
            super()._deliver(measurement, packet)
            return
        # The seed's routing path, preserved as the differential oracle:
        # unconditional full decode of the wire bytes, then a linear scan
        # (over the subscriptions live when delivery starts) with
        # per-packet fnmatch on every glob.
        decoded = decode_measurement(packet)
        self.packets_decoded += 1
        size = len(packet)
        for sub in tuple(self._subs):
            if (sub.service_id is not None
                    and decoded.service_id != sub.service_id):
                continue
            if (sub.qualified_name is not None and not fnmatch.fnmatchcase(
                    decoded.qualified_name, sub.qualified_name)):
                continue
            self.bytes_delivered += size
            sub.callback(decoded)
