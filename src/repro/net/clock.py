"""Discrete-event simulation clock.

Everything time-dependent in the simulator — datagram delivery, player
ticks, resource-monitor sampling, viewer churn — is driven by one
:class:`EventLoop`. Time is a float in seconds; events at equal times
fire in scheduling order (a monotonically increasing sequence number
breaks ties), which keeps runs deterministic.

The loop is the hottest code in the simulator (million-datagram swarms
fire one event per delivery), so the scheduler is two-tier:

- a **timing wheel** (calendar queue) of fixed-width buckets covering
  the narrow in-flight-datagram delay band holds datagram deliveries
  and nothing else: :meth:`EventLoop._push_datagram`, its one enqueue,
  appends in O(1), and dispatch sorts one small bucket at a time;
- the classic **binary heap** holds every timer (``schedule``,
  ``schedule_at``, ``call_every``) and every delivery the wheel does
  not take.

The wheel only pays once buckets fill, so it follows queue depth: a
delivery goes on the wheel only while the loop holds at least ``2 *
slots`` live entries (the *depth gate*). A shallower loop pushes
straight onto the heap, which then skips the wheel's empty-slot
probing and one-row batched drains (``docs/PERFORMANCE.md`` has the
measurements behind the gate).

Dispatch merges the two tiers by ``(when, seq)``, so event order — and
therefore every seed-pinned digest — is bit-identical to a pure-heap
loop (``tests/chaos/test_timing_wheel.py`` proves the equivalence
property). One fire kernel, :meth:`EventLoop._drain`, pops and fires
every event: ``step``, ``run_until`` and ``run_all`` differ only in
the deadline and budget they pass it and in what they do with the fired
count. The kernel contains the loop, so the shared code costs one call
frame per drain, not one per event.
:attr:`EventLoop.pending` is an O(1) counter maintained by
``schedule``/``cancel``/dispatch instead of a queue scan.

Observability: each loop counts the events it fires
(:attr:`EventLoop.events_fired`), and :data:`FIRED_TOTAL` adds up every
loop's count once per drain, so a run's event count costs nothing per
event. Observers armed with :meth:`EventLoop.add_observer`
are called with each event **before** its callback runs, so the event
whose callback raises, or diverges between runs, is already observed
when it does. DetSan's dispatch trace (:mod:`repro.analysis.sanitizer`)
and ``--profile``'s site counts (:mod:`repro.harness.profile`) are the
in-tree observers. They are class-wide so a harness sees every loop an
experiment creates, and they must only observe, never schedule.
:meth:`EventLoop.wheel_stats` exposes the wheel's occupancy and
overflow counters.
"""

from __future__ import annotations

import itertools
from array import array
from heapq import heappop, heappush
from sys import maxsize as _MAX_EVENTS
from typing import Any, Callable, ClassVar

from repro.util.errors import ConfigurationError

_INFINITY = float("inf")

#: Timing-wheel bucket count. A new loop starts with the wheel disabled
#: (a loop without a network never sees a datagram); :class:`~repro.net.
#: network.Network` sizes its loop's wheel from its latency knobs via
#: :meth:`EventLoop.configure_wheel_for_band`.
DEFAULT_WHEEL_SLOTS = 512

#: Floor for a derived bucket width — a degenerate band (all-zero
#: latencies) must not produce zero-width buckets.
MIN_WHEEL_WIDTH = 1e-5

#: Events fired by every loop in this process, plus those shard worker
#: processes report home (:mod:`repro.net.shard`); a harness reads a
#: run's count as the difference across the run. One list cell that
#: each drain adds to in place: rebinding a class attribute instead
#: would reset the interpreter's attribute caches for every EventLoop
#: on each drain.
FIRED_TOTAL = [0]


class TimerHandle:
    """Handle returned by :meth:`EventLoop.schedule`; supports cancel()."""

    __slots__ = ("when", "callback", "args", "cancelled", "_loop")

    #: Class flag the dispatch path branches on instead of isinstance().
    _repeating = False

    def __init__(self, when: float, callback: Callable[..., Any], args: tuple) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The loop whose queue currently holds this handle; None once the
        # handle is popped (or never queued). Lets cancel() keep the
        # loop's live-event counter exact without a queue scan.
        self._loop: "EventLoop | None" = None

    @property
    def queued(self) -> bool:
        """True from scheduling until the event fires or is cancelled."""
        return self._loop is not None

    def cancel(self) -> None:
        """Mark the event cancelled; the loop skips it when it surfaces."""
        if self.cancelled:
            return
        self.cancelled = True
        loop = self._loop
        if loop is not None:
            loop._live -= 1
            self._loop = None


class RepeatingHandle(TimerHandle):
    """Handle for one :meth:`EventLoop.call_every` chain.

    Unlike a plain :class:`TimerHandle`, this handle *is* the entry in
    the loop's queue: after each tick it re-inserts itself, advancing
    :attr:`when` to the next occurrence. ``cancel()`` therefore stops
    the chain directly, and the loop's ``pending`` count sees exactly
    one entry per repeating timer. Like every timer, it lives on the
    heap (see the module docstring).
    """

    __slots__ = ("interval", "until")

    _repeating = True

    def __init__(
        self,
        when: float,
        callback: Callable[..., Any],
        args: tuple,
        interval: float,
        until: float | None,
    ) -> None:
        super().__init__(when, callback, args)
        self.interval = interval
        self.until = until

    def _fire(self, loop: "EventLoop") -> None:
        """Run one tick and reschedule the next occurrence."""
        if self.until is not None and loop.now > self.until:
            return
        self.callback(*self.args)
        if self.cancelled:  # the callback may cancel its own chain
            return
        self.when = loop.now + self.interval
        loop._push(self)


class EventLoop:
    """A two-tier (timing wheel + binary heap) discrete-event scheduler.

    Timers are ``(when, seq, handle)`` entries on the heap. The wheel
    covers ``[_wheel_tick * width, (_wheel_tick + slots) * width)`` and
    holds datagram deliveries only: once the loop is past the depth
    gate, :meth:`_push_datagram` appends a delivery whose bucket index
    (``int(when / width)``) falls in that window to its slot's three
    *column rings* — ``array('d')`` of whens, ``array('q')`` of seqs,
    and a flat stride-4 object list of ``(host, port, payload, src)``
    fields — instead of building a per-datagram entry tuple. Every
    other delivery goes to the heap as ``(when, seq, callback, args)``.
    The columns are preallocated with the wheel geometry and cleared in
    place at collect time, so the same arrays are reused lap after lap.

    At dispatch time the next due slot is *collected*: its columns are
    zipped into 6-field rows ``(when, seq, host, port, payload, src)``
    and sorted descending into ``_cursor``, so ``cursor.pop()`` yields
    them in ascending order. Buckets partition time, so every
    uncollected row is strictly later than every cursor row, and the
    global minimum is always ``min(cursor[-1], heap[0])`` by the unique
    ``(when, seq)`` prefix. When the cursor's top comes first, dispatch
    hands the run of due rows to the installed drain
    (:meth:`set_datagram_plane`) in **one callback frame**, which still
    merges per item against the heap top so dispatch order stays
    bit-identical to a pure-heap loop.
    """

    #: Slotted for the same reason the per-packet classes are: the
    #: dispatch and schedule paths touch half a dozen loop attributes
    #: per event, and slot access skips the instance-dict indirection.
    __slots__ = (
        "now", "_heap", "_seq", "_events_fired", "_live",
        "_cursor", "_wheel_tick", "_wheel_count",
        "_wheel_width", "_wheel_inv", "_wheel_slots", "_wheel_gate",
        "_bwhen", "_bseq", "_bobjs", "_dg_drain", "_dg_callback", "_dg_fired",
        "wheel_overflow", "wheel_batched", "wheel_batch_drains",
    )

    #: Class-wide pre-fire observers (:meth:`add_observer`). A tuple so
    #: the hot-path emptiness check is a plain truthiness test.
    _observers: ClassVar[tuple] = ()

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._events_fired = 0
        #: Not-yet-cancelled entries queued (heap + wheel + cursor) — the
        #: O(1) source of :attr:`pending`, maintained by push/cancel/pop.
        self._live = 0
        # -- timing wheel state: disabled until configure_wheel --------
        self._cursor: list = []  # collected bucket, sorted descending
        self._wheel_tick = 0  # next bucket index not yet collected
        self._wheel_count = 0  # rows resident in columns (not cursor)
        self._wheel_width = 0.0
        self._wheel_inv = 0.0
        self._wheel_slots = 0
        #: Live entries the loop must hold before the wheel takes one
        #: (``2 * slots``; 0 while the wheel is disabled).
        self._wheel_gate = 0
        # -- datagram columns, one triple per slot (class docstring) ---
        self._bwhen: list = []
        self._bseq: list = []
        self._bobjs: list = []
        #: Installed by :meth:`set_datagram_plane`; ``None`` on loops
        #: with no network attached (pure-timer loops never see rows).
        self._dg_drain: Any = None
        self._dg_callback: Any = None
        #: Rows the datagram plane completed in a drain call that raised.
        self._dg_fired = 0
        #: Cumulative wheel counters, surfaced by :meth:`wheel_stats`.
        self.wheel_overflow = 0
        self.wheel_batched = 0
        self.wheel_batch_drains = 0

    # -- instrumentation -------------------------------------------------

    @classmethod
    def add_observer(cls, hook: Callable[["EventLoop", Any], None]) -> None:
        """Call ``hook(loop, entry)`` before every event any loop fires.

        ``entry`` is the event's :class:`TimerHandle`, or for a datagram
        delivery its ``(when, seq, callback, (host, port, payload,
        src))`` entry (:meth:`_datagram_entry`); ``loop.now`` is already
        the event's time.
        """
        cls._observers = cls._observers + (hook,)  # repro: allow[SHARD001] harness-owned observability, not sim state

    @classmethod
    def remove_observer(cls, hook: Callable[["EventLoop", Any], None]) -> None:
        """Disarm an observer previously passed to :meth:`add_observer`."""
        cls._observers = tuple(h for h in cls._observers if h is not hook)  # repro: allow[SHARD001] harness-owned observability, not sim state

    def set_datagram_plane(self, drain: Any, callback: Any) -> None:
        """Install the network's batched datagram delivery plane.

        ``drain(deadline, budget) -> fired`` is invoked by the fire
        kernel whenever the cursor's top row comes before the heap top: it
        must pop and fire consecutive due rows (merging per item against
        the heap top, where it may fire a heap-top entry carrying
        ``callback`` itself, and honouring ``deadline``/``budget``) and
        return how many it fired; when a row raises, it must leave the
        count of rows completed before it in ``_dg_fired`` for the
        kernel and re-raise. ``callback`` is the representative
        per-datagram callable — what a heap-resident delivery carries —
        used to synthesize that entry shape for observers, flushes to
        the heap, and :meth:`_iter_queued` (see :meth:`_datagram_entry`).
        """
        self._dg_drain = drain
        self._dg_callback = callback

    def _datagram_entry(self, row: tuple) -> tuple:
        """The legacy ``(when, seq, callback, (host, port, payload, src))``
        entry for a 6-field batched row.

        The one place a column row takes the classic entry shape:
        observers, heap flushes and queue scans all see it, so
        instrumentation needs only one tuple vocabulary.
        """
        return (row[0], row[1], self._dg_callback, row[2:])

    @property
    def wheel_occupancy(self) -> int:
        """Entries currently wheel-resident (buckets plus cursor)."""
        return self._wheel_count + len(self._cursor)

    def wheel_stats(self) -> dict:
        """The wheel's geometry and counters, for ``--profile`` and benches."""
        return {
            "slots": self._wheel_slots,
            "bucket_width": self._wheel_width,
            "overflow": self.wheel_overflow,
            "occupancy": self.wheel_occupancy,
            "batched": self.wheel_batched,
            "batch_drains": self.wheel_batch_drains,
        }

    def _column_rows(self):
        """Yield every column-resident batched row, as a 6-field tuple."""
        for when, seq, objs in zip(self._bwhen, self._bseq, self._bobjs):
            it = iter(objs)
            yield from zip(when, seq, it, it, it, it)

    def _iter_queued(self):
        """Yield every queued entry across both tiers (tests/debug only).

        Wheel rows — column-resident or already collected into the
        cursor — surface in the legacy ``(when, seq, callback, args)``
        shape so queue scans need only one tuple vocabulary.
        """
        yield from self._heap
        for row in itertools.chain(self._cursor, self._column_rows()):
            yield self._datagram_entry(row)

    # -- wheel geometry --------------------------------------------------

    def configure_wheel(
        self,
        bucket_width: float | None,
        slots: int = DEFAULT_WHEEL_SLOTS,
    ) -> None:
        """Resize the wheel; ``bucket_width=None`` or ``slots=0`` disables it.

        The depth gate follows the geometry: ``2 * slots`` live entries,
        about four per bucket across a band that fills half the wheel.
        Safe mid-run: column-resident rows are flushed to the heap in the
        legacy entry shape and dispatch merges the tiers by ``(when,
        seq)``, so event order is unchanged. The already-collected
        cursor is left in place for the same reason. Counters survive
        reconfiguration.
        """
        if bucket_width is not None and bucket_width <= 0:
            raise ConfigurationError(f"bucket width must be positive (got {bucket_width})")
        heap = self._heap
        for row in self._column_rows():
            heappush(heap, self._datagram_entry(row))
        if bucket_width is None or slots <= 0:
            self._bwhen = []
            self._bseq = []
            self._bobjs = []
            self._wheel_width = 0.0
            self._wheel_inv = 0.0
            self._wheel_slots = 0
            self._wheel_gate = 0
            self._wheel_tick = 0
        else:
            self._bwhen = [array("d") for _ in range(slots)]
            self._bseq = [array("q") for _ in range(slots)]
            self._bobjs = [[] for _ in range(slots)]
            self._wheel_width = bucket_width
            self._wheel_inv = 1.0 / bucket_width
            self._wheel_slots = slots
            self._wheel_gate = 2 * slots
            self._wheel_tick = int(self.now * self._wheel_inv)
        self._wheel_count = 0

    def configure_wheel_for_band(self, max_delay: float) -> None:
        """Size :data:`DEFAULT_WHEEL_SLOTS` buckets so delays up to
        ``max_delay`` stay in-band.

        The horizon is 2x the band: the wheel origin trails ``now`` by
        up to one collected bucket plus scheduling slack, and a delivery
        past the horizon (fault impairments, uplink queueing spikes)
        overflows to the heap.
        """
        slots = DEFAULT_WHEEL_SLOTS
        width = (2.0 * max_delay) / slots
        if width < MIN_WHEEL_WIDTH:
            width = MIN_WHEEL_WIDTH
        if width == self._wheel_width and slots == self._wheel_slots:
            # Same geometry: a knob assignment that leaves the band
            # where it was keeps the columns and their residents.
            return
        self.configure_wheel(width, slots)

    # -- scheduling ------------------------------------------------------

    def _push_datagram(self, when: float, host: Any, port: int, payload: bytes, src: Any) -> None:
        """Queue one datagram delivery: the only code that fills a wheel slot.

        Past the depth gate, an in-band delivery takes three O(1)
        appends into its slot's reused column rings, so no per-datagram
        entry tuple survives to the old GC generations. Every other
        delivery is a heap entry ``(when, seq, callback, (host, port,
        payload, src))`` carrying the plane's callback; past the gate
        (fault impairments, uplink queueing spikes, a disabled wheel)
        it counts as overflow, below it the wheel was skipped, not
        missed. An idle wheel (no residents, empty cursor) whose origin
        trails ``now`` — heap events advanced the clock meanwhile —
        first moves its origin up to ``now``, so a swarm that goes quiet
        and resumes does not stay out of band. The caller guarantees
        ``when >= now``, and the delivery cannot be cancelled.
        """
        self._live += 1
        if self._live > self._wheel_gate:
            if not self._wheel_count and not self._cursor:
                base = int(self.now * self._wheel_inv)
                if base > self._wheel_tick:
                    self._wheel_tick = base
            tick = int(when * self._wheel_inv)
            if 0 <= tick - self._wheel_tick < self._wheel_slots:
                slot = tick % self._wheel_slots
                self._bwhen[slot].append(when)
                self._bseq[slot].append(next(self._seq))
                self._bobjs[slot] += (host, port, payload, src)
                self._wheel_count += 1
                self.wheel_batched += 1
                return
            self.wheel_overflow += 1
        heappush(self._heap, (when, next(self._seq), self._dg_callback,
                              (host, port, payload, src)))

    def _push(self, handle: TimerHandle) -> None:
        """Queue ``handle`` on the heap and count it as live."""
        handle._loop = self
        self._live += 1
        heappush(self._heap, (handle.when, next(self._seq), handle))

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ConfigurationError(f"cannot schedule in the past (delay={delay})")
        handle = TimerHandle(self.now + delay, callback, args)
        self._push(handle)
        return handle

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise ConfigurationError(f"cannot schedule at {when} < now {self.now}")
        handle = TimerHandle(when, callback, args)
        self._push(handle)
        return handle

    def call_every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        until: float | None = None,
    ) -> RepeatingHandle:
        """Schedule a repeating callback every ``interval`` seconds.

        Returns the :class:`RepeatingHandle` driving the chain: its
        ``when`` always points at the next occurrence, and ``cancel()``
        stops the repetition. A tick scheduled past ``until`` fires
        nothing and ends the chain.
        """
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        handle = RepeatingHandle(self.now + interval, callback, args, interval, until)
        self._push(handle)
        return handle

    # -- execution -------------------------------------------------------

    def _collect(self) -> None:
        """Move the next nonempty slot's rows into the sorted cursor.

        Only called when the cursor is empty and ``_wheel_count > 0``;
        every resident row lies within one lap ahead of ``_wheel_tick``
        (the enqueue band check guarantees it), so the scan terminates
        within ``slots`` probes. The slot's columns are zipped into
        6-field rows, sorted descending so ``cursor.pop()`` yields
        ``(when, seq)`` ascending, and cleared *in place* so their
        backing arrays are reused on the wheel's next lap.
        """
        bwhen = self._bwhen
        n = self._wheel_slots
        tick = self._wheel_tick
        slot = tick % n
        while not bwhen[slot]:
            tick += 1
            slot = tick % n
        self._wheel_tick = tick + 1
        when = bwhen[slot]
        seq = self._bseq[slot]
        objs = self._bobjs[slot]
        it = iter(objs)
        rows = list(zip(when, seq, it, it, it, it))
        self._wheel_count -= len(rows)
        del when[:]
        del seq[:]
        del objs[:]
        rows.sort(reverse=True)
        self._cursor = rows

    def _drain(self, deadline: float, budget: int) -> int:
        """Fire due events in ``(when, seq)`` order; the only fire loop.

        Fires every event at or before ``deadline``, stopping early once
        ``budget`` events have fired, and returns how many fired. Every
        public runner is a thin policy over this kernel.

        Selection invariant: :meth:`_collect` runs whenever the cursor
        is empty and the columns are not, so the wheel's minimum row is
        always ``cursor[-1]`` and the global minimum is the smaller of
        ``cursor[-1]`` and ``heap[0]`` by ``(when, seq)`` tuple
        comparison (seq is unique, so the comparison never reaches a
        third element). When the cursor's top comes first, the whole run
        of due rows goes to the datagram plane's drain in one frame,
        with the remaining budget; otherwise the heap top fires here.
        Anonymous 4-tuples (datagram deliveries that went to the heap)
        skip the cancelled check and handle bookkeeping, and observers
        receive the raw 4-tuple for them (see
        ``repro.harness.profile.callback_of``). The fired count is
        flushed to ``events_fired`` and :data:`FIRED_TOTAL` in a
        ``finally``, so the counters are only guaranteed current
        *between* drains — no in-tree callback reads them mid-drain.
        """
        heap = self._heap
        fired = 0
        try:
            while fired < budget:
                # Re-read per iteration: _collect() replaces the cursor
                # object, and a callback may nest another drain call.
                cursor = self._cursor
                if not cursor and self._wheel_count:
                    self._collect()
                    cursor = self._cursor
                if cursor and (not heap or cursor[-1] < heap[0]):
                    # Zero fired means the cursor minimum lies beyond
                    # the deadline.
                    try:
                        n = self._dg_drain(deadline, budget - fired)
                    except BaseException:
                        fired += self._dg_fired
                        raise
                    if n == 0:
                        break
                    fired += n
                    continue
                if not heap or heap[0][0] > deadline:
                    break
                entry = heappop(heap)
                if len(entry) == 4:
                    handle: Any = entry
                else:
                    handle = entry[2]
                    if handle.cancelled:
                        continue
                    handle._loop = None
                self._live -= 1
                self.now = entry[0]
                if EventLoop._observers:
                    for observe in EventLoop._observers:
                        observe(self, handle)
                if handle is entry:
                    entry[2](*entry[3])
                elif handle._repeating:
                    handle._fire(self)
                else:
                    handle.callback(*handle.args)
                fired += 1
        finally:
            self._events_fired += fired
            FIRED_TOTAL[0] += fired  # repro: allow[SHARD001] harness-owned observability, not sim state
        return fired

    def step(self) -> bool:
        """Fire the next event. Returns False when the queue is empty."""
        return self._drain(_INFINITY, 1) == 1

    def run_until(self, deadline: float) -> None:
        """Fire all events scheduled at or before ``deadline``."""
        self._drain(deadline, _MAX_EVENTS)
        self.now = max(self.now, deadline)

    def run(self, duration: float) -> None:
        """Advance the clock ``duration`` seconds, firing due events."""
        self.run_until(self.now + duration)

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded to catch runaway loops).

        Fires at most ``max_events`` events: the bound is exact — if
        live events remain once it is reached, the loop raises without
        firing a ``max_events + 1``-th event.
        """
        if self._drain(_INFINITY, max_events) >= max_events and self._live:
            raise RuntimeError(f"event loop exceeded {max_events} events; likely a livelock")

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    @property
    def events_fired(self) -> int:
        """Total events this loop has fired since construction."""
        return self._events_fired
