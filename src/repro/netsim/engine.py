"""Discrete-event simulation engine.

This module is the foundation of the :mod:`repro.netsim` substrate.  It
provides a minimal but complete discrete-event kernel in the style of NS or
SimPy:

* :class:`Simulator` — a monotonic virtual clock and a priority queue of
  scheduled callbacks.
* :class:`Event` — a one-shot synchronization primitive that processes can
  wait on and that any code can trigger.
* :class:`Process` — a generator-based coroutine.  A process function
  ``yield``-s either a number (sleep for that many simulated seconds) or an
  :class:`Event` (resume when it triggers, receiving the event's value).

Design notes
------------
The *hot path* of the network simulator (per-packet link events) uses plain
scheduled callbacks (:meth:`Simulator.schedule`), which cost one heap
operation each.  The generator-based process model is reserved for control
logic — the pathload state machine, TCP connection management, experiment
schedules — where clarity matters more than per-event cost.

All timing in the simulator is *virtual*: the engine never consults the wall
clock.  This is the key substitution that makes a pure-Python reproduction of
a delay-trend-sensitive tool like pathload viable (see DESIGN.md): one-way
delay differences of tens of microseconds are exact numbers here, not
measurements subject to interpreter jitter.

``Simulator(sanitize=True)`` enables the runtime sanitizer: non-finite
delays are rejected with diagnostics naming the callback, same-timestamp
pop order is verified FIFO-stable (violations land in ``diagnostics``), and
an event-order digest is recorded so two equal-seed runs can be asserted
identical via :meth:`Simulator.digest`.  The static counterpart of these
checks is ``python -m repro.lint`` (docs/linting.md).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "ScheduledCall",
    "SimulationError",
    "set_ambient_tracer",
]

#: Process-global tracer adopted by every Simulator built while it is set.
#: This is how sweep workers capture telemetry from task functions that
#: construct their own simulators internally (repro.parallel sets it around
#: each task invocation).  ``None`` in the common case, so the only cost on
#: untraced construction is one module-global read.
_ambient_tracer = None


def set_ambient_tracer(tracer):
    """Install ``tracer`` as the ambient tracer for new simulators.

    Returns the previously installed tracer (or ``None``) so callers can
    restore it in a ``finally`` block.  Simulators created while an ambient
    tracer is set behave exactly as if ``tracer.attach(sim)`` had been
    called immediately after construction.
    """
    global _ambient_tracer
    previous = _ambient_tracer
    _ambient_tracer = tracer
    return previous


#: Like the ambient tracer: the sampling profiler (repro.obs.profiler)
#: registers here so its samples can carry the *simulated* clock of
#: whichever simulator was built last.
_ambient_profiler = None


def set_ambient_profiler(profiler):
    """Install ``profiler`` to be notified of new simulators; returns the
    previous one.  Construction-time only — nothing on the event hot path
    ever consults it."""
    global _ambient_profiler
    previous = _ambient_profiler
    _ambient_profiler = profiler
    return previous


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel.

    Examples include scheduling an event in the past, triggering an event
    twice, or running a simulator whose clock was corrupted by a callback.
    """


class ScheduledCall:
    """Handle for a scheduled callback, allowing cancellation.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  Cancellation is *lazy*: the heap entry
    stays in the queue and is discarded when popped.
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time:.6f} {self.fn!r} ({state})>"


class Event:
    """One-shot event that :class:`Process` objects can wait on.

    An event starts *pending*.  Calling :meth:`trigger` makes it *triggered*,
    records a value, and resumes every waiting process (and fires every
    registered callback) in registration order.  Triggering twice raises
    :class:`SimulationError`; use :meth:`trigger_if_pending` when racing
    multiple sources (e.g., a completion vs. a timeout).
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: list[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Run ``fn(value)`` when the event triggers.

        If the event has already triggered, ``fn`` is invoked immediately
        (synchronously) with the recorded value.
        """
        if self.triggered:
            fn(self.value)
        else:
            self._callbacks.append(fn)

    def trigger(self, value: Any = None) -> None:
        """Trigger the event, resuming all waiters with ``value``."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(value)

    def trigger_if_pending(self, value: Any = None) -> bool:
        """Trigger unless already triggered.  Returns True if it fired."""
        if self.triggered:
            return False
        self.trigger(value)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered value={self.value!r}" if self.triggered else "pending"
        return f"<Event {state}>"


class Process:
    """A generator-based coroutine driven by the simulator.

    The wrapped generator may yield:

    * ``int`` or ``float`` — sleep for that many simulated seconds;
    * :class:`Event` — suspend until the event triggers; the event's value
      becomes the result of the ``yield`` expression;
    * :class:`Process` — suspend until the other process finishes; its return
      value becomes the result of the ``yield`` expression.

    When the generator returns, the process's :attr:`done_event` triggers
    with the return value, so processes compose: a parent can
    ``result = yield child``.

    An exception escaping the generator is re-raised out of
    :meth:`Simulator.run` — simulation bugs fail loudly rather than being
    swallowed (errors should never pass silently).
    """

    __slots__ = ("sim", "_gen", "done_event", "name", "_terminated")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self._gen = gen
        self.done_event = Event(sim)
        self.name = name or getattr(gen, "__name__", "process")
        self._terminated = False
        # First step happens via the scheduler so that creating a process
        # inside another process's step cannot reenter the generator stack.
        sim.schedule(0.0, self._step, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._terminated

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Throw ``exc`` (default :class:`GeneratorExit`) into the process.

        The process's :attr:`done_event` always triggers — a parent doing
        ``result = yield child`` resumes (with the interrupted child's
        return value if it caught the exception and returned, else
        ``None``) instead of deadlocking.  If the generator lets ``exc``
        propagate, it is re-raised to the caller after the done event has
        fired.
        """
        if self._terminated:
            return
        self._terminated = True
        value: Any = None
        try:
            if exc is None:
                self._gen.close()
            else:
                try:
                    self._gen.throw(exc)
                except StopIteration as stop:
                    value = stop.value
        finally:
            self.done_event.trigger_if_pending(value)

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Alias so a Process can be waited on like an Event."""
        self.done_event.add_callback(fn)

    def _step(self, send_value: Any) -> None:
        if self._terminated:
            return
        try:
            target = self._gen.send(send_value)
        except StopIteration as stop:
            self._terminated = True
            self.done_event.trigger(stop.value)
            return
        if isinstance(target, (int, float)):
            self.sim.schedule(float(target), self._step, None)
        elif isinstance(target, (Event, Process)):
            target.add_callback(self._step)
        else:
            self._terminated = True
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {target!r}; "
                "yield a delay (seconds), an Event, or a Process"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._terminated else "alive"
        return f"<Process {self.name} ({state})>"


class Simulator:
    """The discrete-event kernel: virtual clock plus run loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "one second in")

        def controller():
            yield 0.5
            done = sim.event()
            sim.schedule(2.0, done.trigger, "payload")
            value = yield done
            return value

        proc = sim.process(controller())
        sim.run()
        assert proc.done_event.value == "payload"
    """

    __slots__ = (
        "_queue",
        "_seq",
        "_now",
        "_running",
        "_sanitize",
        "_hasher",
        "_events_digested",
        "_last_pop",
        "_until",
        "diagnostics",
        "tracer",
    )

    def __init__(self, sanitize: bool = False) -> None:
        self._queue: list[tuple[float, int, ScheduledCall]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        # Sanitizer mode: extra invariant checks and an event-order digest.
        # Off by default — the checks sit on the per-event hot path.
        self._sanitize = sanitize
        #: Upper time bound of the active ``run(until=...)`` /
        #: ``run_until(..., limit=...)`` call, or ``None`` outside a bounded
        #: run.  Event-eliding domains (``netsim.flowtransit``) read this to
        #: cap how far they may advance virtual state past the last real
        #: event without overshooting the caller's stop time.
        self._until: Optional[float] = None
        self._hasher = hashlib.blake2b(digest_size=16) if sanitize else None
        self._events_digested = 0
        self._last_pop: tuple[float, int] = (-math.inf, -1)
        #: Sanitizer findings that are suspicious but not fatal (currently
        #: only heap-order violations).  Always an empty list when
        #: ``sanitize=False``.
        self.diagnostics: list[str] = []
        #: Optional :class:`repro.obs.Tracer`, installed by ``Tracer.attach``
        #: or adopted from the process-global ambient tracer (see
        #: :func:`set_ambient_tracer`).  Read-only observer: it folds
        #: per-event engine metrics but never schedules events, so the event
        #: order (and :meth:`digest`) is identical with or without it.
        self.tracer = _ambient_tracer
        if _ambient_tracer is not None:
            _ambient_tracer._sims.append(self)
        if _ambient_profiler is not None:
            _ambient_profiler._watch(self)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def sanitizing(self) -> bool:
        """True when the simulator was created with ``sanitize=True``."""
        return self._sanitize

    def digest(self) -> str:
        """Hex digest of the executed event order (sanitize mode only).

        The digest folds in, for every executed callback, its timestamp,
        its insertion sequence number, and the callable's qualified name.
        Two runs of the same experiment with the same seeds must produce
        identical digests; a mismatch means hidden nondeterminism (wall
        clock, unseeded RNG, iteration-order dependence) crept in.
        """
        if self._hasher is None:
            raise SimulationError(
                "digest() requires Simulator(sanitize=True): the event-order "
                "digest is only recorded in sanitizer mode"
            )
        return self._hasher.hexdigest()

    @staticmethod
    def _describe(fn: Callable[..., Any]) -> str:
        """Stable, address-free name of a callback for diagnostics/digests."""
        name = getattr(fn, "__qualname__", None)
        if name is None:
            # functools.partial and other wrappers: fall back to the wrapped
            # callable, then to the type name (never repr — it embeds ids).
            inner = getattr(fn, "func", None)
            name = getattr(inner, "__qualname__", None) or type(fn).__qualname__
        return name

    def _observe_pop(self, time: float, seq: int, call: ScheduledCall) -> None:
        """Per-event bookkeeping: sanitizer checks/digest, tracer metrics.

        Called from the run loops only when sanitizing or tracing, so the
        plain path pays nothing beyond the combined-flag check.
        """
        if self._sanitize:
            last_time, last_seq = self._last_pop
            if time < last_time:
                self.diagnostics.append(
                    f"event order violation: popped t={time!r} after t={last_time!r} "
                    f"(callback {self._describe(call.fn)})"
                )
            # Exact equality is intended here: heap keys are compared as bit
            # patterns to detect *ties*, not arithmetic near-coincidence.
            elif time == last_time and seq <= last_seq:  # simlint: disable=SIM003 -- exact tie detection on heap keys
                self.diagnostics.append(
                    f"tie at t={time!r} popped out of FIFO order: seq {seq} after "
                    f"{last_seq} (callback {self._describe(call.fn)})"
                )
            self._last_pop = (time, seq)
            self._hasher.update(struct.pack("<dq", time, seq))
            self._hasher.update(self._describe(call.fn).encode())
            self._events_digested += 1
        tracer = self.tracer
        if tracer is not None:
            tracer._engine_events += 1
            qlen = len(self._queue)
            if qlen > tracer._heap_high_water:
                tracer._heap_high_water = qlen

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        ``delay`` must be non-negative.  Ties are broken FIFO (stable order).
        Returns a :class:`ScheduledCall` handle that can be cancelled.

        This is the per-packet hot path (one call per link event), so the
        body is :meth:`schedule_at` inlined: no second past-time check — a
        non-negative delay cannot move time backwards.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule in the past: delay={delay!r} for callback "
                f"{self._describe(fn)} at t={self._now!r}"
            )
        if self._sanitize and not math.isfinite(delay):
            raise SimulationError(
                f"non-finite delay {delay!r} for callback {self._describe(fn)} "
                f"at t={self._now!r} — NaN/inf delays corrupt heap ordering "
                "silently"
            )
        call = ScheduledCall(self._now + delay, fn, args)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (call.time, seq, call))
        return call

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} (now={self._now!r}): time is "
                f"in the past for callback {self._describe(fn)}"
            )
        if self._sanitize and not math.isfinite(time):
            raise SimulationError(
                f"non-finite schedule time {time!r} for callback "
                f"{self._describe(fn)} at t={self._now!r} — NaN/inf times "
                "corrupt heap ordering silently"
            )
        call = ScheduledCall(time, fn, args)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, call))
        return call

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that triggers after ``delay`` seconds with ``value``."""
        ev = Event(self)
        self.schedule(delay, ev.trigger, value)
        return ev

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` from generator ``gen``."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers when the *first* of ``events`` triggers.

        The combined event's value is ``(index, value)`` of the first child
        to fire.  Later triggers of the other children are ignored.
        """
        combined = Event(self)
        for index, ev in enumerate(events):
            ev.add_callback(
                lambda value, index=index: combined.trigger_if_pending((index, value))
            )
        return combined

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers when *all* ``events`` have triggered.

        The combined value is the list of child values, in input order.
        """
        events = list(events)
        combined = Event(self)
        if not events:
            combined.trigger([])
            return combined
        remaining = [len(events)]
        values: list[Any] = [None] * len(events)

        def on_child(index: int, value: Any) -> None:
            values[index] = value
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.trigger(values)

        for index, ev in enumerate(events):
            ev.add_callback(lambda value, index=index: on_child(index, value))
        return combined

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue is empty or ``until`` is reached.

        If ``until`` is given, the clock is advanced to exactly ``until``
        when the run stops because of it (even if no event sits at that
        time), matching NS semantics.  Returns the final clock value.
        Bulk cross traffic schedules nothing (its links generate it when
        read), so without ``until`` the run ends at the last real event,
        and a later read folds cross arrivals only up to that clock.
        """
        if self._running:
            raise SimulationError("run() called reentrantly")
        self._running = True
        # Everything below runs once per simulated event; bind the loop
        # invariants (queue list, heappop, observe flag) to locals so each
        # iteration pays no attribute lookups.  ``observe`` merges the
        # sanitizer and tracer checks into the one flag test the plain path
        # pays; neither can change mid-run, and ``self._queue`` is mutated
        # in place, never rebound.
        queue = self._queue
        pop = heapq.heappop
        observe = self._sanitize or self.tracer is not None
        self._until = until
        try:
            if until is None:
                while queue:
                    time, seq, call = pop(queue)
                    if call.cancelled:
                        continue
                    if observe:
                        self._observe_pop(time, seq, call)
                    self._now = time
                    call.fn(*call.args)
            else:
                while queue:
                    time, seq, call = queue[0]
                    if time > until:
                        break
                    pop(queue)
                    if call.cancelled:
                        continue
                    if observe:
                        self._observe_pop(time, seq, call)
                    self._now = time
                    call.fn(*call.args)
                if self._now < until:
                    self._now = until
        finally:
            self._running = False
            self._until = None
        return self._now

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; return its value.

        Raises :class:`SimulationError` if the queue drains (or ``limit`` is
        hit) before the event fires — a deadlock guard for tests.  Bulk
        cross traffic keeps nothing queued, so it cannot keep a run alive.
        """
        if self._running:
            raise SimulationError("run_until() called reentrantly")
        self._running = True
        # Same per-event local bindings as :meth:`run`.
        queue = self._queue
        pop = heapq.heappop
        observe = self._sanitize or self.tracer is not None
        self._until = limit
        try:
            while not event.triggered:
                if not queue:
                    raise SimulationError(
                        "event queue drained before awaited event triggered"
                    )
                time, seq, call = pop(queue)
                if call.cancelled:
                    continue
                if limit is not None and time > limit:
                    raise SimulationError(
                        f"time limit {limit}s reached before awaited event triggered"
                    )
                if observe:
                    self._observe_pop(time, seq, call)
                self._now = time
                call.fn(*call.args)
        finally:
            self._running = False
            self._until = None
        return event.value

    def pending_count(self) -> int:
        """Number of not-yet-cancelled entries in the event queue."""
        return sum(1 for _t, _s, call in self._queue if not call.cancelled)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or ``None`` if empty.

        Cancelled heads are discarded as a side effect (they would be
        discarded by the next pop anyway).  Event-eliding domains use this
        to cap how far virtual state may advance without overshooting a
        real event.
        """
        q = self._queue
        pop = heapq.heappop
        while q and q[0][2].cancelled:
            pop(q)
        return q[0][0] if q else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6f} queued={len(self._queue)}>"
