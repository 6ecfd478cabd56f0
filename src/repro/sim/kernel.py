"""Discrete-event simulation kernel.

Everything in this reproduction — hosts, hypervisors, the VEEM, the Service
Manager's rule engine, monitoring probes and the Condor-like grid — runs on
this kernel. It provides a calendar-queue event loop with generator-based
processes, in the style of SimPy but self-contained.

Design notes
------------
* Time is a ``float`` in seconds. The kernel makes no assumption about wall
  clock; experiments run simulated hours in milliseconds of CPU time.
* Processes are Python generators that ``yield`` *waitables*: :class:`Timeout`,
  :class:`Event`, :class:`Process` (join), :class:`AnyOf`/:class:`AllOf`
  combinators, or acquisition requests from :mod:`repro.sim.resources`.
* The scheduler is a calendar queue (a degenerate one-level timer wheel keyed
  by exact timestamps): events land in a per-timestamp FIFO bucket and a small
  heap orders only the *distinct* timestamps. Provisioning workloads are
  heavily biased toward short delays and same-instant cascades — thousands of
  events share each timestamp — so the heap stays tiny while the per-event
  cost collapses to a list append. While a timestamp's batch is live
  (being drained, or left part-drained by ``step()`` or ``run(until=event)``),
  zero-delay events are appended straight onto it (the *cascade batcher*):
  an event chain at one instant costs one queue transaction instead of a
  heap push/pop per link.
* Event ordering is deterministic and identical to a binary-heap scheduler
  ordered by ``(time, priority, seq)``: buckets are split per priority
  (URGENT drains before NORMAL at each timestamp) and appends happen in
  creation order, so FIFO bucket order *is* seq order without materialising a
  sequence number. ``Environment(reference=True)`` builds the original heap
  kernel — kept as a differential oracle; seeded runs replay identically on
  both.
* Cancellation is lazy: an abandoned event (an interrupted process's old
  timeout, an ``AnyOf`` loser) is marked ``dead`` and skipped when its bucket
  drains, rather than being dug out of the queue. Skips are counted in
  ``kernel.events.dead_skipped``.
* Recurring callbacks (``Environment.every``) share one kernel event per
  instant. Each member's next tick is a :class:`TickGroup` entry, and the
  order is the one separate per-member timeouts would have had:

  - the first tick is scheduled from an URGENT start event, where a
    process's first ``yield env.timeout(...)`` would be;
  - a next tick joins the group queued for its due instant only while that
    group is still the last NORMAL entry there, so any event scheduled onto
    the same instant in between keeps its place;
  - after each member runs, pending URGENT events (a process the member
    spawned) run before the next member: the rest of the group goes back to
    the front of the live batch and is dispatched, and counted, again.

  Both kernels group the same way (the heap kernel tracks the last NORMAL
  entry per timestamp), so ``events_processed`` agrees between them.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimError",
    "Interrupt",
    "StopProcess",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Periodic",
    "TickGroup",
    "Environment",
]


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class StopProcess(Exception):
    """Raised by a process to terminate itself early with a return value."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

#: Sentinel for "event has not yet been given a value".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled to fire and carrying a value), and *processed* (callbacks run).
    Events may succeed (:meth:`succeed`) or fail (:meth:`fail`); waiting on a
    failed event re-raises its exception inside the waiting process.

    ``__slots__`` on the kernel's event classes keeps per-event memory flat
    and attribute access cheap — simulations allocate millions of these.
    Subclasses outside the kernel (e.g. :mod:`repro.sim.resources`) declare
    no slots and so keep an instance ``__dict__`` for their extra fields.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "dead")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: If a failed event is never waited on, its exception would be lost;
        #: the kernel re-raises it at the end of the run unless ``defused``.
        self.defused = False
        #: Lazily cancelled: skipped (and counted) at dispatch if no
        #: callbacks remain. See :meth:`cancel`.
        self.dead = False

    # -- state ---------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self.triggered:
            raise SimError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def cancel(self) -> None:
        """Abandon the event: mark it dead so the drain loop can skip it.

        A dead event stays queued until its timestamp is reached; if no
        callbacks remain when it pops, the kernel skips the dispatch (counted
        in ``kernel.events.dead_skipped``). Attaching a callback afterwards
        revives it — cancellation is lazy, never destructive. A cancelled
        failed event is treated as defused.
        """
        self.dead = True

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    The constructor schedules through :meth:`Environment._schedule`. Hot
    paths create timeouts with ``env.timeout(...)`` instead, the closure
    built by :func:`_make_timeout_factory`, which inlines the bucket insert.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        Event.__init__(self, env)
        self._value = value
        self.delay = delay
        env._schedule(self, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


def _make_timeout_factory(env: "Environment") -> Callable[..., Timeout]:
    """Build the environment's ``timeout(delay, value=None)`` factory.

    A plain closure over the environment rather than a bound method: it
    allocates the Timeout with ``object.__new__`` and writes the slots
    directly, skipping both the ``type.__call__`` dispatch and the
    ``__init__`` wrapper frame — timeout creation is the hottest call in
    the harness, and this shaves the constant per-call machinery off it.
    The closure is specialised at environment construction: the default
    kernel gets the inlined bucket insert, any other kernel routes through
    its ``_schedule``.
    """
    new = object.__new__
    if env.__class__ is Environment:
        def timeout(delay: float, value: Any = None) -> Timeout:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            self = new(Timeout)
            self.env = env
            self.callbacks = []
            self._value = value
            self._ok = True
            self.defused = False
            self.dead = False
            self.delay = delay
            if not delay and (env._draining or env._live_n or env._live_u):
                env._live_n.append(self)
            else:
                t = env._now + delay
                buckets = env._buckets
                bucket = buckets.get(t)
                if bucket is not None:
                    bucket.append(self)
                else:
                    buckets[t] = [self]
                    heappush(env._times, t)
            return self
    else:
        def timeout(delay: float, value: Any = None) -> Timeout:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            self = new(Timeout)
            self.env = env
            self.callbacks = []
            self._value = value
            self._ok = True
            self.defused = False
            self.dead = False
            self.delay = delay
            env._schedule(self, delay)
            return self
    return timeout


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The generator's ``return`` value (or :class:`StopProcess` value) becomes
    the event value, so ``yield some_process`` implements *join*.
    """

    __slots__ = ("_generator", "_send", "_resume_cb", "name", "_target",
                 "_init_event")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self._send = generator.send
        # The bound method is materialised once: parking appends it to an
        # event's callback list on every yield, and ``obj.method`` otherwise
        # allocates a fresh bound-method object each evaluation.
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None  # event the process is waiting on
        # Kick off on a zero-delay "initialize" event, at URGENT priority so
        # the process starts before same-time normal events (in particular
        # interrupts delivered in the same instant it was created).
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume_cb)
        env._schedule(init, priority=Environment.URGENT)
        self._init_event = init
        self._target = init

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a process that has not yet had its first resume is
        legal: the init event (scheduled URGENT) starts the generator first,
        so the interrupt lands on its first yield — throwing into an
        unstarted generator would bypass the process's try/except.

        The victim is unsubscribed from its abandoned wait target at
        *delivery* time, not here: when interrupting a not-yet-started
        process the first-yield target does not even exist yet, and a
        target left subscribed would later resume the process at the wrong
        yield with a stale value.
        """
        if self.triggered:
            raise SimError(f"{self.name} has already terminated")
        # Deliver the interrupt via an immediately-scheduled failed event that
        # detaches the abandoned wait, then routes through the resume logic.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._on_interrupt)
        self.env._schedule(event)

    # -- internal ------------------------------------------------------------
    def _on_interrupt(self, event: Event) -> None:
        if self._value is not _PENDING:
            return      # stale: the process finished before delivery
        target = self._target
        if (target is not None and target is not self._init_event
                and target.callbacks is not None):
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
            else:
                # The abandoned wait target stays queued; if we were its only
                # watcher and it is a plain Timeout (can never fail, carries
                # no side effects), mark it dead so the drain loop skips it.
                if not target.callbacks and type(target) is Timeout:
                    target.dead = True
        self._resume(event)

    def _resume(self, event: Event) -> None:
        # ``self._value is not _PENDING`` is ``triggered`` with the property
        # descriptor peeled off — this method runs once per event.
        if self._value is not _PENDING:
            # Stale wakeup: the process finished before this event fired
            # (e.g. an interrupt aimed at a process that completed during
            # its very first resume). Nothing to deliver to.
            if not event._ok:
                event.defused = True
            return
        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    event.defused = True
                    exc = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._finish(True, stop.value)
                break
            except StopProcess as stop:
                self._generator.close()
                self._finish(True, stop.value)
                break
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._finish(False, exc)
                break

            # Duck-typed in place of ``isinstance(next_event, Event)``: every
            # Event exposes ``callbacks``, and the miss path (yielding a
            # non-event) is a programming error where the try's cost is
            # irrelevant. try/except is free until it throws.
            try:
                cbs = next_event.callbacks
            except AttributeError:
                exc = SimError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                self._finish(False, exc)
                break

            if cbs is not None:
                # Event still pending/triggered-but-unprocessed: park here.
                cbs.append(self._resume_cb)
                self._target = next_event
                break
            # Event already processed: loop and deliver its value at once.
            event = next_event

    def _finish(self, ok: bool, value: Any) -> None:
        self._target = None
        self._ok = ok
        self._value = value
        if not ok and isinstance(value, BaseException):
            # Re-raised at run() unless some waiter defuses it.
            self.defused = False
        self.env._schedule(self)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'dead' if self.triggered else 'alive'}>"


class _Condition(Event):
    """Base for AnyOf / AllOf combinators."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for e in self.events:
            if e.env is not env:
                raise SimError("cannot mix events from different environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for e in self.events:
            if e.callbacks is None:
                self._check(e)
            else:
                e.callbacks.append(self._check)
        if self.triggered:
            # Triggered mid-subscription: events visited after the trigger
            # still got our callback; detach the losers now.
            self._discard_pending()

    def _collect(self) -> dict[Event, Any]:
        # Use *processed* (callbacks already run), not *triggered*: a Timeout
        # carries its value from construction and so is "triggered" before it
        # has actually fired.
        return {
            e: e._value for e in self.events
            if e.processed and e._ok
        }

    def _discard_pending(self) -> None:
        """Lazy cancellation of losers once the condition's outcome is fixed.

        Only plain Timeouts are detached and dead-marked: a Timeout can never
        fail, so skipping its dispatch cannot swallow an error the kernel
        would otherwise raise, and nothing else observes it. Other pending
        events keep their callback — for them ``_check`` degrades to a no-op.
        """
        check = self._check
        for e in self.events:
            cbs = e.callbacks
            if cbs is not None and type(e) is Timeout:
                try:
                    cbs.remove(check)
                except ValueError:
                    continue
                if not cbs:
                    e.dead = True

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of the given events fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        self._discard_pending()


class AllOf(_Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            self._discard_pending()
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Periodic:
    """Handle for one recurring callback started by :meth:`Environment.every`.

    ``active`` is True until the callback returns ``None``, raises, or
    :meth:`cancel` is called.
    """

    __slots__ = ("callback", "active")

    def __init__(self, callback: Callable[[], Optional[float]]):
        self.callback = callback
        self.active = True

    def cancel(self) -> None:
        """Stop the member: its queued tick is skipped when its group runs.
        No event is scheduled and nothing is left in the queue for it."""
        self.active = False


class TickGroup(Event):
    """One queue entry carrying the :class:`Periodic` members due at the
    same instant, in the order their ticks were scheduled. ``pos`` is the
    next member to run when a dispatch yielded to URGENT events."""

    __slots__ = ("members", "pos")

    def __init__(self, env: "Environment", member: Periodic):
        Event.__init__(self, env)
        self._value = None
        self.callbacks.append(env._fire_group)
        self.members = [member]
        self.pos = 0


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

#: Reference-kernel heap entries are plain ``(time, priority, seq, event)``
#: tuples — tuple comparison is implemented in C and ``seq`` is unique, so
#: ordering never reaches the (incomparable) event and heap ops stay cheap.
_QueueEntry = tuple[float, int, int, Event]


class Environment:
    """The simulation environment: clock plus event queue.

    The default scheduler is a calendar queue (see the module docstring);
    ``Environment(reference=True)`` builds the original binary-heap kernel
    instead — bit-identical event ordering, kept as the differential oracle
    the Hypothesis suite replays seeded runs against.

    Example
    -------
    >>> env = Environment()
    >>> log = []
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     log.append(env.now)
    >>> _ = env.process(proc(env))
    >>> env.run()
    >>> log
    [5.0]
    """

    #: Priority for "urgent" events (used internally for initialisation).
    URGENT = 0
    NORMAL = 1

    __slots__ = ("_now", "_buckets", "_urgent", "_times", "_live_n",
                 "_live_u", "_draining", "_events_done", "_dead_skipped",
                 "_metrics", "_obs_scope", "_profile_cb", "timeout")

    def __new__(cls, initial_time: float = 0.0, reference: bool = False):
        if reference and cls is Environment:
            return object.__new__(_ReferenceEnvironment)
        return object.__new__(cls)

    def __init__(self, initial_time: float = 0.0, reference: bool = False):
        self._now = float(initial_time)
        # Calendar queue state. ``_buckets``/``_urgent`` map an exact
        # timestamp to the FIFO list of events due then (split per priority);
        # ``_times`` is a heap over the distinct timestamps (it may briefly
        # hold a duplicate when both priority dicts gain the same key — the
        # advance step dedupes). ``_live_*`` is the batch currently being
        # drained; same-instant arrivals append straight onto it.
        self._buckets: dict[float, list[Event]] = {}
        self._urgent: dict[float, list[Event]] = {}
        self._times: list[float] = []
        self._live_n: deque[Event] = deque()
        self._live_u: deque[Event] = deque()
        self._draining = False
        #: Events dispatched so far; flushed per batch during a drain.
        self._events_done = 0
        self._dead_skipped = 0
        #: Lazily-built metrics registry (one per environment); see
        #: :attr:`metrics`.
        self._metrics: Optional[Any] = None
        #: Optional per-event profiling hook; see :meth:`profile`. When set,
        #: :meth:`run` steps the kernel through :meth:`_step` instead.
        self._profile_cb: Optional[Any] = None
        #: ``env.timeout(delay, value=None)`` — a specialised closure rather
        #: than a method; see :func:`_make_timeout_factory`.
        self.timeout = _make_timeout_factory(self)
        #: Ambient span stack: the implicit causal parent for spans and trace
        #: records created synchronously inside a scope. It lives here — not
        #: on any one TraceLog — because causality is a property of the
        #: execution context: a VEEM tracing to its own log still parents its
        #: deploy span under the rule firing that invoked it. Scopes must
        #: never span a ``yield`` (processes interleave); cross-process
        #: causality is passed explicitly via ``parent=``.
        self._obs_scope: list[Any] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def reference(self) -> bool:
        """True on the heap-based differential-oracle kernel."""
        return False

    @property
    def events_processed(self) -> int:
        """Total events dispatched (including dead skips).

        Exact whenever the kernel is quiescent; during a drain it trails the
        live batch by at most the batch length.
        """
        return self._events_done

    @property
    def dead_skipped(self) -> int:
        """Lazily-cancelled events skipped at dispatch."""
        return self._dead_skipped

    @property
    def metrics(self):
        """The environment's :class:`~repro.obs.metrics.MetricsRegistry`.

        Built on first access so simulations that never touch observability
        pay nothing; imported lazily to keep the kernel dependency-free.
        The kernel's own counters are exposed as views under ``kernel.*``.
        """
        if self._metrics is None:
            from ..obs.metrics import MetricsRegistry
            registry = MetricsRegistry()
            registry.register_view("kernel.events.processed",
                                   lambda: float(self.events_processed))
            registry.register_view("kernel.events.dead_skipped",
                                   lambda: float(self._dead_skipped))
            self._metrics = registry
        return self._metrics

    @property
    def current_span(self):
        """The innermost ambient span, or None outside any scope."""
        scope = self._obs_scope
        return scope[-1] if scope else None

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def every(self, delay: float | Callable[[], float],
              callback: Callable[[], Optional[float]]) -> Periodic:
        """Call ``callback()`` after ``delay`` seconds, then again after
        each delay it returns, until it returns ``None`` or the returned
        handle is cancelled.

        Members run in the order processes looping on ``yield
        env.timeout(d)`` would, with one kernel event per instant for all
        members due then (see the module docstring). ``delay`` may be a
        zero-argument callable; it is read when the URGENT start event
        fires, as the process's first ``yield`` would read it. An exception
        from ``callback`` stops that member and propagates out of
        :meth:`run`; the rest of its group stays queued.
        """
        if not callable(delay) and not delay > 0:
            raise ValueError(f"period must be positive, got {delay}")
        member = Periodic(callback)
        start = Event(self)
        start._value = None

        def begin(_event: Event) -> None:
            if member.active:
                try:
                    self._join(member, delay() if callable(delay) else delay)
                except BaseException:
                    member.active = False
                    raise

        start.callbacks.append(begin)
        self._schedule(start, priority=Environment.URGENT)
        return member

    def _join(self, member: Periodic, delay: float) -> None:
        """Queue ``member``'s next tick ``delay`` seconds from now: on the
        timestamp's last NORMAL entry if that is a tick group, else on a
        new group appended behind it."""
        if not delay > 0:
            raise ValueError(f"period must be positive, got {delay}")
        t = self._now + delay
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [TickGroup(self, member)]
            heappush(self._times, t)
        else:
            last = bucket[-1]
            if last.__class__ is TickGroup:
                last.members.append(member)
            else:
                bucket.append(TickGroup(self, member))

    def _urgent_pending(self) -> bool:
        """True when an URGENT event is due at the current instant."""
        return bool(self._live_u)

    def _requeue(self, group: TickGroup) -> None:
        """Put a part-run group back at the front of the instant's NORMAL
        entries (its members' ticks precede everything queued since)."""
        self._live_n.appendleft(group)

    def _fire_group(self, group: TickGroup) -> None:
        """Dispatch a tick group: run each active member and queue its next
        tick; yield to URGENT events between members."""
        members = group.members
        n = len(members)
        i = group.pos
        join = self._join
        urgent_pending = self._urgent_pending
        while i < n:
            member = members[i]
            i += 1
            if not member.active:
                continue
            try:
                delay = member.callback()
                if delay is None:
                    member.active = False
                elif member.active:
                    join(member, delay)
            except BaseException:
                member.active = False
                if i < n:
                    group.pos = i
                    group.callbacks = [self._fire_group]
                    self._requeue(group)
                raise
            if i < n and urgent_pending():
                group.pos = i
                group.callbacks = [self._fire_group]
                self._requeue(group)
                return

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        # Cascade batcher: a zero-delay event scheduled while its own instant
        # is open (draining, or left mid-batch by step() or run(until=event))
        # joins the live batch directly — no queue transaction. FIFO appends
        # preserve the heap kernel's (time, priority, seq) order because
        # creation order *is* seq order.
        if not delay and (self._draining or self._live_n or self._live_u):
            (self._live_n if priority else self._live_u).append(event)
            return
        t = self._now + delay
        buckets = self._buckets if priority else self._urgent
        bucket = buckets.get(t)
        if bucket is not None:
            bucket.append(event)
        else:
            buckets[t] = [event]
            heappush(self._times, t)

    def _advance(self) -> bool:
        """Adopt the next distinct timestamp's buckets as the live batch.

        Returns False when the queue is exhausted. Shared by :meth:`step`;
        :meth:`run` inlines the same logic in its drain loop. Must only be
        called with the live batch empty.
        """
        times = self._times
        if not times:
            return False
        t = heappop(times)
        while times and times[0] == t:
            heappop(times)
        self._now = t
        bucket = self._buckets.pop(t, None)
        if bucket is not None:
            self._live_n.extend(bucket)
        bucket = self._urgent.pop(t, None) if self._urgent else None
        if bucket is not None:
            self._live_u.extend(bucket)
        return True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._live_u or self._live_n:
            return self._now
        return self._times[0] if self._times else float("inf")

    def step(self) -> None:
        """Process the single next event exactly as :meth:`run` would."""
        self._step()

    def _step(self) -> tuple[Event, Optional[list]]:
        """Dispatch one event with :meth:`run`'s rules and return it with
        the callback list it ran (``None`` or empty for a bare or dead
        event). Picks are urgent-first, :meth:`_advance` adopts the next
        batch, and ``_draining`` is set while callbacks run so same-instant
        arrivals join the live batch as they do in :meth:`run`."""
        if self._draining:
            raise SimError("step() is not reentrant with run()")
        live_u = self._live_u
        live_n = self._live_n
        if not (live_u or live_n) and not self._advance():
            raise SimError("empty event queue")
        event = live_u.popleft() if live_u else live_n.popleft()
        self._events_done += 1
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            self._draining = True
            try:
                for callback in callbacks:
                    callback(event)
            finally:
                self._draining = False
            if not event._ok and not event.defused:
                raise event._value
        elif event.dead:
            self._dead_skipped += 1
        elif not event._ok and not event.defused:
            raise event._value
        return event, callbacks

    def profile(self, callback) -> None:
        """Install (or with ``None``, remove) a per-event profiling hook.

        The hook is called after every dispatch as ``callback(event,
        callbacks, wall_s)`` — the event, the callback list it was
        dispatched with (``None`` for a bare event or a lazily-cancelled
        dead skip), and the wall-clock seconds the dispatch took. Event
        *order* is identical to the unprofiled drain; only wall-clock
        changes, which is invisible to the simulation. Refused on the
        reference kernel — it is the differential oracle and stays
        verbatim.
        """
        if callback is not None and self.reference:
            raise SimError("profiling is not supported on the reference "
                           "(differential-oracle) kernel")
        self._profile_cb = callback

    def _until(self, until: Optional[float | Event]
               ) -> tuple[float, Optional[Event]]:
        """Parse :meth:`run`'s ``until`` into ``(stop_time, stop_event)``."""
        if isinstance(until, Event):
            return float("inf"), until
        if until is None:
            return float("inf"), None
        stop_time = float(until)
        if stop_time < self._now:
            raise ValueError(
                f"until={stop_time} is in the past (now={self._now})"
            )
        return stop_time, None

    def _finish(self, stop_time: float, stop_event: Optional[Event]) -> Any:
        """End a run that left its drain loop: return (or raise) the
        awaited event's value, or advance the clock to ``stop_time``."""
        if stop_event is not None:
            if stop_event.processed:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            raise SimError("simulation ended before the awaited event fired")
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to queue exhaustion), a time (run until
        the clock would pass it), or an :class:`Event` (run until it fires and
        return its value).
        """
        if self._draining:
            raise SimError("run() is not reentrant")
        stop_time, stop_event = self._until(until)
        if self._profile_cb is not None:
            return self._run_profiled(stop_time, stop_event)

        # The drain loop is the single hottest path in the harness: queue
        # state is bound locally and the common dispatch (one callback, event
        # ok) is branch-minimal. The dispatch tally is written back in the
        # finally so an exception (or an until= return) leaves the counters
        # and queue resumable.
        times = self._times
        buckets = self._buckets
        urgent = self._urgent
        live_n = self._live_n
        live_u = self._live_u
        pop_n = live_n.popleft
        pop_u = live_u.popleft
        done = 0
        dead_skipped = 0
        self._draining = True
        try:
            while True:
                # ``callbacks is None`` is the processed marker with the
                # property descriptor peeled off — this check runs per event
                # whenever a run() awaits an event.
                if stop_event is not None and stop_event.callbacks is None:
                    if not stop_event._ok:
                        raise stop_event._value
                    return stop_event._value
                # Urgent first on every pick: an URGENT event scheduled
                # mid-batch must still beat the remaining NORMAL events of
                # the same instant, exactly as it would in the heap order.
                if live_u:
                    event = pop_u()
                elif live_n:
                    event = pop_n()
                else:
                    # Batch exhausted: adopt the next timestamp's buckets.
                    self._events_done += done
                    done = 0
                    if not times:
                        break
                    t = times[0]
                    if t > stop_time:
                        self._now = stop_time
                        return None
                    heappop(times)
                    while times and times[0] == t:
                        heappop(times)
                    self._now = t
                    bucket = buckets.pop(t, None)
                    if bucket is not None:
                        live_n.extend(bucket)
                    bucket = urgent.pop(t, None) if urgent else None
                    if bucket is not None:
                        live_u.extend(bucket)
                    continue

                done += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
                elif event.dead:
                    dead_skipped += 1
                elif not event._ok and not event.defused:
                    raise event._value
        finally:
            self._draining = False
            self._events_done += done
            self._dead_skipped += dead_skipped

        return self._finish(stop_time, stop_event)

    def _run_profiled(self, stop_time: float,
                      stop_event: Optional[Event]) -> Any:
        """:meth:`run` with the profiling hook: steps the kernel through
        :meth:`_step`, the same dispatch :meth:`step` uses, and feeds the
        hook each event with the wall-clock seconds its step took."""
        from time import perf_counter
        hook = self._profile_cb
        step = self._step
        times = self._times
        live_n = self._live_n
        live_u = self._live_u
        while stop_event is None or stop_event.callbacks is not None:
            # run()'s stop rule: a new batch starts only at or before
            # ``stop_time``.
            if not (live_u or live_n or times and times[0] <= stop_time):
                break
            t0 = perf_counter()
            event, callbacks = step()
            hook(event, callbacks or None, perf_counter() - t0)
        return self._finish(stop_time, stop_event)


class _ReferenceEnvironment(Environment):
    """The original binary-heap kernel, kept verbatim as an oracle.

    Selected via ``Environment(reference=True)``. Heap entries carry an
    explicit ``(time, priority, seq)`` key; the differential suite asserts
    the calendar queue replays its exact event order.
    """

    __slots__ = ("_queue", "_seq", "_last_normal")

    def __init__(self, initial_time: float = 0.0, reference: bool = True):
        super().__init__(initial_time)
        self._queue: list[_QueueEntry] = []
        self._seq = itertools.count().__next__
        #: timestamp -> its queued NORMAL entry with the highest seq, so a
        #: periodic tick can join a tick group exactly when the calendar
        #: kernel's bucket would end with it
        self._last_normal: dict[float, Event] = {}

    @property
    def reference(self) -> bool:
        return True

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = Environment.NORMAL) -> None:
        t = self._now + delay
        heappush(self._queue, (t, priority, self._seq(), event))
        if priority:
            self._last_normal[t] = event

    def _pop(self) -> Event:
        t, priority, _, event = heappop(self._queue)
        self._now = t
        if priority and self._last_normal.get(t) is event:
            del self._last_normal[t]
        return event

    def _join(self, member: Periodic, delay: float) -> None:
        if not delay > 0:
            raise ValueError(f"period must be positive, got {delay}")
        last = self._last_normal.get(self._now + delay)
        if last is not None and last.__class__ is TickGroup:
            last.members.append(member)
        else:
            self._schedule(TickGroup(self, member), delay)

    def _urgent_pending(self) -> bool:
        queue = self._queue
        return (bool(queue) and queue[0][1] == Environment.URGENT
                and queue[0][0] == self._now)

    def _requeue(self, group: TickGroup) -> None:
        # seq -1 sorts before every NORMAL entry at this instant and after
        # its URGENT ones. Only one group is ever part-run: it yields to
        # URGENT events only, and none of them is a tick group.
        heappush(self._queue, (self._now, Environment.NORMAL, -1, group))

    def peek(self) -> float:
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        if not self._queue:
            raise SimError("empty event queue")
        event = self._pop()
        self._events_done += 1
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                raise event._value
        elif event.dead:
            self._dead_skipped += 1
        elif not event._ok and not event.defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        queue = self._queue
        pop = self._pop
        done = 0
        dead_skipped = 0
        try:
            while queue:
                if stop_event is not None and stop_event.processed:
                    if not stop_event._ok:
                        raise stop_event._value
                    return stop_event._value
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                event = pop()
                done += 1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
                elif event.dead:
                    dead_skipped += 1
                elif not event._ok and not event.defused:
                    raise event._value
        finally:
            self._events_done += done
            self._dead_skipped += dead_skipped

        if stop_event is not None:
            if stop_event.processed:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            raise SimError("simulation ended before the awaited event fired")
        if stop_time != float("inf"):
            self._now = stop_time
        return None
