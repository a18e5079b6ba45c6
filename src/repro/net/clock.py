"""Discrete-event simulation clock.

Everything time-dependent in the simulator — datagram delivery, player
ticks, resource-monitor sampling, viewer churn — is driven by one
:class:`EventLoop`. Time is a float in seconds; events at equal times
fire in scheduling order (a monotonically increasing sequence number
breaks ties), which keeps runs deterministic.

The loop is the hottest code in the simulator (million-datagram swarms
fire one event per delivery), so the scheduler is two-tier:

- a **timing wheel** (calendar queue) of fixed-width buckets covering
  the narrow in-flight-datagram delay band — O(1) append on schedule,
  one small Timsort per bucket at dispatch time — holds the short-delay
  timer class that dominates at swarm depth;
- the classic **binary heap** holds everything out of band: long fault
  timers, repeating :meth:`EventLoop.call_every` handles, and wheel
  overflow.

Dispatch merges the two tiers by ``(when, seq)``, so event order — and
therefore every seed-pinned digest — is bit-identical to a pure-heap
loop (``tests/chaos/test_timing_wheel.py`` proves the equivalence
property). One fire kernel, :meth:`EventLoop._drain`, pops and fires
every event: ``step``, ``run_until``, ``run_until_window`` and
``run_all`` differ only in the deadline and budget they pass it and in
what they do with the fired count. The kernel contains the loop, so the
shared code costs one call frame per drain, not one per event.
:attr:`EventLoop.pending` is an O(1) counter maintained by
``schedule``/``cancel``/dispatch instead of a queue scan.

Observability: sinks registered via :meth:`EventLoop.add_sink` are
notified after every fired event (see :mod:`repro.harness.profile`);
:meth:`EventLoop.wheel_stats` exposes the wheel's occupancy and
overflow counters. Sinks are class-wide so a harness can observe every
loop an experiment creates; they must only observe, never schedule.
A single *pre-fire* trace hook (:meth:`EventLoop.set_trace`) is called
with each selected event **before** its callback runs — DetSan
(:mod:`repro.analysis.sanitizer`) uses it so the event whose callback
raises, or diverges between runs, is already in the trace when it does.
"""

from __future__ import annotations

import itertools
from array import array
from heapq import heappop, heappush
from sys import maxsize as _MAX_EVENTS
from typing import Any, Callable, ClassVar

from repro.util.errors import ConfigurationError

_INFINITY = float("inf")

#: Default timing-wheel geometry: 512 buckets of 0.5 ms cover a 256 ms
#: horizon — wide enough for the default latency model's delay band
#: (20 ms same-region / 120 ms cross-region base plus jitter) with slack
#: for the wheel origin trailing ``now``. :class:`~repro.net.network.
#: Network` retunes its loop from the latency model's actual band via
#: :meth:`EventLoop.configure_wheel_for_band`.
DEFAULT_WHEEL_SLOTS = 512
DEFAULT_WHEEL_WIDTH = 0.0005

#: Floor for a derived bucket width — a degenerate band (all-zero
#: latencies) must not produce zero-width buckets.
MIN_WHEEL_WIDTH = 1e-5


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
    one entry per repeating timer. Repeating timers are a heap-class
    timer by design — they span arbitrary intervals, so they bypass the
    wheel entirely (see the module docstring).
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
        self._loop = loop
        loop._live += 1
        heappush(loop._heap, (self.when, next(loop._seq), self))


class EventLoop:
    """A two-tier (timing wheel + binary heap) discrete-event scheduler.

    The wheel covers ``[_wheel_tick * width, (_wheel_tick + slots) *
    width)``: an entry whose bucket index (``int(when / width)``) falls
    in that window is appended to its bucket in O(1); everything else —
    including every entry while the wheel is disabled — goes to the
    heap. At dispatch time the next due bucket is *collected*: sorted
    descending by ``(when, seq)`` into ``_cursor`` so ``cursor.pop()``
    yields events in ascending order, then merged entry-by-entry
    against the heap top. Buckets partition time, so every uncollected
    wheel entry is strictly later than every cursor entry, and the
    global minimum is always ``min(cursor[-1], heap[0])``.

    **Batched datagram columns.** Each slot additionally owns three
    *column rings* — ``array('d')`` of whens, ``array('q')`` of seqs,
    and a flat stride-4 object list of ``(host, port, payload, src)``
    fields — that :meth:`_push_datagram` appends in-band datagram
    deliveries into instead of building per-datagram entry tuples
    (:meth:`set_datagram_plane`). The columns are preallocated with the
    wheel geometry and cleared in place at collect time, so the same
    arrays are reused lap after lap. Collection zips the columns into
    sortable 6-field rows ``(when, seq, host, port, payload, src)``,
    sorts them together with the slot's generic entries — ``(when,
    seq)`` is a unique prefix, so mixed-shape tuples compare safely —
    and dispatch hands each contiguous run of rows to the installed
    drain in **one callback frame**, still merging per item against the
    heap top so dispatch order stays bit-identical to a pure-heap loop.
    """

    #: Slotted for the same reason the per-packet classes are: the
    #: dispatch and schedule paths touch half a dozen loop attributes
    #: per event, and slot access skips the instance-dict indirection.
    __slots__ = (
        "now", "_heap", "_seq", "_events_fired", "_live",
        "_wheel", "_cursor", "_wheel_tick", "_wheel_count",
        "_wheel_width", "_wheel_inv", "_wheel_slots",
        "_bwhen", "_bseq", "_bobjs", "_dg_drain", "_dg_callback",
        "wheel_scheduled", "wheel_overflow",
        "wheel_batched", "wheel_batch_drains",
    )

    #: Class-wide observer sinks (see :mod:`repro.harness.profile`). A
    #: tuple so the hot-path emptiness check is a plain truthiness test.
    _sinks: ClassVar[tuple] = ()

    #: Class-wide pre-fire trace hook: ``_trace(loop, entry_or_handle)``
    #: called before each event's callback runs. One hook, not a tuple —
    #: it sits on the hottest line in the simulator, and DetSan is its
    #: only client.
    _trace: ClassVar[Any] = None

    def __init__(
        self,
        wheel_width: float | None = None,
        wheel_slots: int | None = None,
    ) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._events_fired = 0
        #: Not-yet-cancelled entries queued (heap + wheel + cursor) — the
        #: O(1) source of :attr:`pending`, maintained by push/cancel/pop.
        self._live = 0
        # -- timing wheel state (geometry set by configure_wheel) ------
        self._wheel: list[list] = []
        self._cursor: list = []  # collected bucket, sorted descending
        self._wheel_tick = 0  # next bucket index not yet collected
        self._wheel_count = 0  # entries resident in buckets (not cursor)
        self._wheel_width = 0.0
        self._wheel_inv = 0.0
        self._wheel_slots = 0
        # -- batched datagram columns (see the class docstring) --------
        self._bwhen: list = []
        self._bseq: list = []
        self._bobjs: list = []
        #: Installed by :meth:`set_datagram_plane`; ``None`` on loops
        #: with no network attached (pure-timer loops never see rows).
        self._dg_drain: Any = None
        self._dg_callback: Any = None
        #: Cumulative wheel counters, surfaced by :meth:`wheel_stats`.
        self.wheel_scheduled = 0
        self.wheel_overflow = 0
        self.wheel_batched = 0
        self.wheel_batch_drains = 0
        if wheel_slots is None:
            wheel_slots = DEFAULT_WHEEL_SLOTS
        if wheel_width is None:
            wheel_width = DEFAULT_WHEEL_WIDTH
        self.configure_wheel(wheel_width if wheel_slots else None, wheel_slots)

    # -- instrumentation -------------------------------------------------

    @classmethod
    def add_sink(cls, sink: Any) -> None:
        """Register an observer notified as ``sink.record(loop, handle)``."""
        cls._sinks = cls._sinks + (sink,)  # repro: allow[SHARD001] harness-owned observability, not sim state

    @classmethod
    def remove_sink(cls, sink: Any) -> None:
        """Unregister a sink previously passed to :meth:`add_sink`."""
        cls._sinks = tuple(s for s in cls._sinks if s is not sink)  # repro: allow[SHARD001] harness-owned observability, not sim state

    @classmethod
    def set_trace(cls, hook: Any) -> None:
        """Install the pre-fire trace hook (replacing any previous one)."""
        cls._trace = hook  # repro: allow[SHARD001] harness-owned observability, not sim state

    @classmethod
    def clear_trace(cls) -> None:
        """Remove the pre-fire trace hook."""
        cls._trace = None  # repro: allow[SHARD001] harness-owned observability, not sim state

    def set_datagram_plane(self, drain: Any, callback: Any) -> None:
        """Install the network's batched datagram delivery plane.

        ``drain(deadline, budget) -> fired`` is invoked by the fire
        kernel whenever the cursor's minimum is a batched 6-field row: it
        must pop and fire consecutive due rows (merging per item against
        the heap top and honouring ``deadline``/``budget``) and return
        how many it fired. ``callback`` is the representative
        per-datagram callable — what a classic entry would have carried
        — used to synthesize legacy-shaped entries for sinks, the trace
        hook, flushes to the heap, and :meth:`_iter_queued` (see
        :meth:`_datagram_entry`).
        """
        self._dg_drain = drain
        self._dg_callback = callback

    def _datagram_entry(self, row: tuple) -> tuple:
        """The legacy ``(when, seq, callback, (host, port, payload, src))``
        entry for a 6-field batched row.

        The one place a column row takes the classic entry shape: the
        trace hook, sinks, heap flushes and queue scans all see it, so
        instrumentation needs only one tuple vocabulary.
        """
        return (row[0], row[1], self._dg_callback, row[2:])

    @property
    def wheel_occupancy(self) -> int:
        """Entries currently wheel-resident (buckets plus cursor)."""
        return self._wheel_count + len(self._cursor)

    def wheel_stats(self) -> dict:
        """The wheel's geometry and counters, for profile sinks/benches."""
        return {
            "slots": self._wheel_slots,
            "bucket_width": self._wheel_width,
            "scheduled": self.wheel_scheduled,
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

        Batched datagram rows — column-resident or already collected
        into the cursor — surface in the legacy ``(when, seq, callback,
        args)`` shape so queue scans need only one tuple vocabulary.
        """
        yield from self._heap
        for entry in self._cursor:
            yield self._datagram_entry(entry) if len(entry) == 6 else entry
        for bucket in self._wheel:
            yield from bucket
        for row in self._column_rows():
            yield self._datagram_entry(row)

    # -- wheel geometry --------------------------------------------------

    def configure_wheel(
        self,
        bucket_width: float | None,
        slots: int = DEFAULT_WHEEL_SLOTS,
    ) -> None:
        """Resize the wheel; ``bucket_width=None`` or ``slots=0`` disables it.

        Safe mid-run: bucket-resident entries are flushed to the heap
        and dispatch merges the tiers by ``(when, seq)``, so event order
        is unchanged. The already-collected cursor is left in place for
        the same reason. Counters survive reconfiguration.
        """
        if bucket_width is not None and bucket_width <= 0:
            raise ConfigurationError(f"bucket width must be positive (got {bucket_width})")
        heap = self._heap
        for bucket in self._wheel:
            for entry in bucket:
                heappush(heap, entry)
        # Batched datagram rows flush in the legacy entry shape, so a
        # reconfigured (or disabled) wheel degrades to the classic
        # per-entry heap path with order intact.
        for row in self._column_rows():
            heappush(heap, self._datagram_entry(row))
        if bucket_width is None or slots <= 0:
            self._wheel = []
            self._bwhen = []
            self._bseq = []
            self._bobjs = []
            self._wheel_width = 0.0
            self._wheel_inv = 0.0
            self._wheel_slots = 0
            self._wheel_tick = 0
        else:
            self._wheel = [[] for _ in range(slots)]
            self._bwhen = [array("d") for _ in range(slots)]
            self._bseq = [array("q") for _ in range(slots)]
            self._bobjs = [[] for _ in range(slots)]
            self._wheel_width = bucket_width
            self._wheel_inv = 1.0 / bucket_width
            self._wheel_slots = slots
            self._wheel_tick = int(self.now * self._wheel_inv)
        self._wheel_count = 0

    def configure_wheel_for_band(
        self,
        max_delay: float,
        slots: int = DEFAULT_WHEEL_SLOTS,
    ) -> None:
        """Pick a bucket width so delays up to ``max_delay`` stay in-band.

        The horizon is 2x the band: the wheel origin trails ``now`` by
        up to one collected bucket plus scheduling slack, and anything
        past the horizon (fault impairments, uplink queueing spikes)
        overflows to the heap, which is exactly where rare long timers
        belong.
        """
        if slots <= 0:
            self.configure_wheel(None, 0)
            return
        width = (2.0 * max_delay) / slots
        if width < MIN_WHEEL_WIDTH:
            width = MIN_WHEEL_WIDTH
        if width == self._wheel_width and slots == self._wheel_slots:
            # Same geometry: skip the reconfigure so steady-state
            # auto-retune checks don't flush bucket residents for
            # nothing. (An idle wheel whose origin trails `now` resyncs
            # itself in _overflow.)
            return
        self.configure_wheel(width, slots)

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, entry: tuple) -> None:
        """Route one ``(when, seq, …)`` entry to the wheel or the heap."""
        tick = int(entry[0] * self._wheel_inv)
        if 0 <= tick - self._wheel_tick < self._wheel_slots:
            self._wheel[tick % self._wheel_slots].append(entry)
            self._wheel_count += 1
            self.wheel_scheduled += 1
        else:
            self._overflow(entry)

    def _overflow(self, entry: tuple) -> None:
        """Heap fallback for out-of-band entries (resyncs an idle wheel)."""
        if self._wheel_slots and not self._wheel_count and not self._cursor:
            base = int(self.now * self._wheel_inv)
            if base > self._wheel_tick:
                # The wheel sat idle while heap events advanced the
                # clock; drag the origin forward and re-route the entry
                # (an origin already at ``now`` cannot recurse again).
                self._wheel_tick = base
                self._enqueue(entry)
                return
        self.wheel_overflow += 1
        heappush(self._heap, entry)

    def _push_datagram(self, when: float, host: Any, port: int, payload: bytes, src: Any) -> None:
        """Queue one datagram delivery: the network data plane's enqueue.

        In-band deliveries take three O(1) appends into the slot's
        reused column rings, so no per-datagram entry tuple survives to
        the old GC generations; everything else (fault impairments,
        uplink queueing spikes, a disabled wheel) falls through to
        :meth:`_overflow` as a classic entry carrying the plane's
        callback. Like :meth:`schedule_fast`, the caller guarantees
        ``when >= now`` and the delivery cannot be cancelled.
        """
        self._live += 1
        tick = int(when * self._wheel_inv)
        if 0 <= tick - self._wheel_tick < self._wheel_slots:
            slot = tick % self._wheel_slots
            self._bwhen[slot].append(when)
            self._bseq[slot].append(next(self._seq))
            self._bobjs[slot] += (host, port, payload, src)
            self._wheel_count += 1
            self.wheel_scheduled += 1
            self.wheel_batched += 1
        else:
            self._overflow((when, next(self._seq), self._dg_callback, (host, port, payload, src)))

    def _push(self, handle: TimerHandle) -> None:
        """Queue ``handle`` and account for it in the live counter."""
        handle._loop = self
        self._live += 1
        self._enqueue((handle.when, next(self._seq), handle))

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ConfigurationError(f"cannot schedule in the past (delay={delay})")
        handle = TimerHandle(self.now + delay, callback, args)
        self._push(handle)
        return handle

    def schedule_fast(self, when: float, callback: Callable[..., Any], args: tuple) -> None:
        """Trusted fast path for hot callers: anonymous, not cancellable.

        For callers that schedule one event per work item, such as the
        sharded swarm's send pump; this skips :meth:`schedule`'s bounds
        check and the whole :class:`TimerHandle` allocation — the queue
        entry itself becomes a ``(when, seq, callback, args)`` 4-tuple
        the fire kernel special-cases by length (one container
        allocation per event instead of two, which also halves this
        path's GC pressure). The caller guarantees ``when >= now`` and
        gets no handle back, so the event cannot be cancelled. In-band
        entries take an O(1) bucket append instead of an O(log n) heap
        sift. Datagram deliveries use :meth:`_push_datagram` instead.
        """
        self._live += 1
        self._enqueue((when, next(self._seq), callback, args))

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
        nothing and ends the chain. Repeating handles live on the heap,
        never the wheel, matching :meth:`RepeatingHandle._fire`'s
        re-insertion.
        """
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        handle = RepeatingHandle(self.now + interval, callback, args, interval, until)
        handle._loop = self
        self._live += 1
        heappush(self._heap, (handle.when, next(self._seq), handle))
        return handle

    # -- execution -------------------------------------------------------

    def _collect(self) -> None:
        """Move the next nonempty bucket into the sorted cursor.

        Only called when the cursor is empty and ``_wheel_count > 0``;
        every resident entry lies within one lap ahead of
        ``_wheel_tick`` (the enqueue band check guarantees it), so the
        scan terminates within ``slots`` probes. The bucket is sorted
        descending so ``cursor.pop()`` yields ``(when, seq)`` ascending.

        A slot's batched datagram columns are zipped into 6-field rows
        here, sorted together with the slot's generic entries (the
        unique ``(when, seq)`` prefix makes mixed-shape comparison
        safe), and the columns are cleared *in place* so their backing
        arrays are reused on the wheel's next lap.
        """
        wheel = self._wheel
        bwhen = self._bwhen
        n = self._wheel_slots
        tick = self._wheel_tick
        slot = tick % n
        bucket = wheel[slot]
        while not bucket and not bwhen[slot]:
            tick += 1
            slot = tick % n
            bucket = wheel[slot]
        self._wheel_tick = tick + 1
        when = bwhen[slot]
        if when:
            seq = self._bseq[slot]
            objs = self._bobjs[slot]
            it = iter(objs)
            rows = list(zip(when, seq, it, it, it, it))
            self._wheel_count -= len(rows) + len(bucket)
            if bucket:
                rows += bucket
                wheel[slot] = []
            del when[:]
            del seq[:]
            del objs[:]
            rows.sort(reverse=True)
            self._cursor = rows
        else:
            wheel[slot] = []
            self._wheel_count -= len(bucket)
            bucket.sort(reverse=True)
            self._cursor = bucket

    def _drain(self, deadline: float, budget: int) -> int:
        """Fire due events in ``(when, seq)`` order; the only fire loop.

        Fires every event at or before ``deadline``, stopping early once
        ``budget`` events have fired, and returns how many fired. Every
        public runner is a thin policy over this kernel.

        Selection invariant: :meth:`_collect` runs whenever the cursor
        is empty and buckets are not, so the wheel's minimum entry is
        always ``cursor[-1]`` and the global minimum is the smaller of
        ``cursor[-1]`` and ``heap[0]`` by ``(when, seq)`` tuple
        comparison (seq is unique, so the comparison never reaches the
        callback element). A 6-field batched row at the cursor top hands
        the whole run of due rows to the datagram plane's drain in one
        frame, with the remaining budget. Anonymous 4-tuples (from
        :meth:`schedule_fast`, :meth:`inject` and overflowing datagrams)
        skip the cancelled check and handle bookkeeping, and sinks
        receive the raw 4-tuple for them (see
        ``repro.harness.profile.callback_of``). The fired count is
        flushed to ``events_fired`` in a ``finally``, so the counter is
        only guaranteed current *between* drains — no in-tree callback
        reads it mid-drain.
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
                if cursor:
                    top = cursor[-1]
                    if heap and heap[0] < top:
                        if heap[0][0] > deadline:
                            break
                        entry = heappop(heap)
                    elif len(top) == 6:
                        # Zero fired means the cursor minimum lies
                        # beyond the deadline.
                        n = self._dg_drain(deadline, budget - fired)
                        if n == 0:
                            break
                        fired += n
                        continue
                    else:
                        if top[0] > deadline:
                            break
                        entry = cursor.pop()
                elif heap:
                    if heap[0][0] > deadline:
                        break
                    entry = heappop(heap)
                else:
                    break
                if len(entry) == 4:
                    self._live -= 1
                    self.now = entry[0]
                    if EventLoop._trace is not None:
                        EventLoop._trace(self, entry)
                    entry[2](*entry[3])
                    handle: Any = entry
                else:
                    when, _, handle = entry
                    if handle.cancelled:
                        continue
                    self._live -= 1
                    handle._loop = None
                    self.now = when
                    if EventLoop._trace is not None:
                        EventLoop._trace(self, handle)
                    if handle._repeating:
                        handle._fire(self)
                    else:
                        handle.callback(*handle.args)
                fired += 1
                if EventLoop._sinks:
                    for sink in EventLoop._sinks:
                        sink.record(self, handle)
        finally:
            self._events_fired += fired
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

    def run_until_window(self, deadline: float, max_events: int | None = None) -> int:
        """Fire events up to ``deadline`` under an exact event budget.

        The conservative-PDES window primitive (see ``docs/SHARDING.md``):
        a shard's coordinator drives the loop one lookahead window at a
        time, and — unlike :meth:`run_until` — needs both the fired
        count back (for ``run_all(max_events=N)`` exactness across
        shards) and a budget that stops dispatch *mid-window* without
        firing a budget+1-th event. When the budget interrupts the
        window, ``now`` is **not** advanced to ``deadline`` — due events
        may remain at or before it, and a later :meth:`inject` of a
        remote arrival inside the window must still be legal. A window
        that completes (``fired < budget``) advances ``now`` to the
        barrier exactly like :meth:`run_until`.
        """
        budget = _MAX_EVENTS if max_events is None else max_events
        if budget <= 0:
            return 0
        fired = self._drain(deadline, budget)
        if fired < budget:
            self.now = max(self.now, deadline)
        return fired

    def inject(self, when: float, callback: Callable[..., Any], args: tuple) -> None:
        """Enqueue a remote arrival under the window protocol.

        The cross-shard merge seam: the shard coordinator hands each
        remote datagram to the destination loop through here, and the
        entry joins the queue with a *fresh local* sequence number —
        dispatch therefore orders it by the same ``(when, seq)``
        comparison as every local event (seq re-keying, see
        ``docs/SHARDING.md``). ``when < now`` means a remote event
        arrived inside a window the loop already executed: the
        conservative protocol guarantees this never happens, so it is a
        hard error rather than a silent reordering.
        """
        if when < self.now:
            raise ConfigurationError(
                f"cannot inject at {when} < now {self.now} (window protocol violated)"
            )
        self._live += 1
        self._enqueue((when, next(self._seq), callback, args))

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
