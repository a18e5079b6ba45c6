"""DetSan — the runtime determinism sanitizer.

The static rules catch what they can resolve; DetSan catches the rest
at the moment it happens. It has two halves:

**Guards** (:func:`install_guards` / :class:`sanitized_run`) patch the
wall-clock functions in :mod:`time` / :mod:`datetime` and the draw
functions of the *global* :mod:`random` stream. A patched function
called from simulation code (any ``repro.*`` module outside the
sanctioned harness-timing allowlist) raises :class:`DetSanViolation`
carrying the offending file and line — the exact stack the digest
mismatch would otherwise force you to bisect for. Callers outside the
project (stdlib, ``multiprocessing`` plumbing, pytest) pass through
untouched, so guards are safe to hold across worker processes.
Seeded :class:`~repro.util.rand.DeterministicRandom` instances bind
their draw methods to a private ``random.Random`` at construction, so
they are — by design — unaffected by the module-level patch.

**Dispatch tracing** (:class:`DispatchTrace`) is a pre-fire event-loop
observer (:meth:`EventLoop.add_observer`) that folds every
fired event ``(when, callback site)`` into a running SHA-256
fingerprint, keeping a bounded tail window of recent events. Two runs
of the same seed must produce identical fingerprints;
:func:`first_divergence` compares two trace snapshots and names the
*first* event where they disagree — time, site, and event index — so a
cross-run or cross-jobs digest mismatch turns into a line number
instead of a bisection. Snapshots are plain picklable data and travel
back from ``ProcessPoolExecutor`` workers inside each run record.

Everything here runs on the *host* side of the simulation boundary:
patching the clock it polices is this module's job, so its DET001 /
DET002 references are allowlisted in ``pyproject.toml`` rather than
pragma'd line by line.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Module prefixes whose frames may touch the real clock while guards
#: are installed: the harness's own timing/measurement plumbing.
SANCTIONED_PREFIXES = ("repro.util.perf", "repro.analysis", "repro.harness")

#: ``time`` module functions DetSan intercepts (the runtime mirror of
#: the static rule's ``WALL_CLOCK_TARGETS``).
GUARDED_TIME_FNS = (
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
)

#: Global-stream ``random`` module functions DetSan intercepts. Draws
#: through a seeded ``random.Random`` instance (``DeterministicRandom``)
#: bind the instance methods directly and are deliberately not guarded.
GUARDED_RANDOM_FNS = (
    "random", "uniform", "randint", "randrange", "gauss", "expovariate",
    "choice", "choices", "sample", "shuffle", "betavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate",
    "normalvariate", "getrandbits", "randbytes",
)


class DetSanViolation(AssertionError):
    """A nondeterministic primitive was used from simulation code."""


def _caller_module(depth: int = 2) -> str:
    """``__name__`` of the frame ``depth`` levels up ('' when unknown)."""
    frame = sys._getframe(depth)
    return frame.f_globals.get("__name__", "") or ""


def _caller_site(depth: int = 2) -> str:
    """``file:line in function`` of the offending frame, for the report."""
    frame = sys._getframe(depth)
    code = frame.f_code
    return f"{code.co_filename}:{frame.f_lineno} in {code.co_name}"


def _guarded_by_project(module: str) -> bool:
    """Should a call from ``module`` trip the guard?

    Only project simulation code is policed: stdlib machinery (worker
    pools, logging, pytest) legitimately reads the host clock, and the
    harness's own timing utilities are sanctioned by prefix.
    """
    if not (module == "repro" or module.startswith("repro.")):
        return False
    return not any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SANCTIONED_PREFIXES
    )


def _make_guard(target: str, original: Callable) -> Callable:
    """Wrap ``original`` to raise when called from simulation code."""

    def guard(*args: Any, **kwargs: Any):
        module = _caller_module()
        if _guarded_by_project(module):
            raise DetSanViolation(
                f"DetSan: `{target}` called from simulation code at "
                f"{_caller_site()} — use EventLoop.now / a seeded "
                "DeterministicRandom (module "
                f"{module})"
            )
        return original(*args, **kwargs)

    guard.__name__ = getattr(original, "__name__", target)
    guard.__detsan_original__ = original
    return guard


class _Guards:
    """The installed patch set; tracks originals for exact restore."""

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Patch time.* and global random.* entry points in place."""
        import random as random_mod
        import time as time_mod

        for name in GUARDED_TIME_FNS:
            original = getattr(time_mod, name, None)
            if original is None or hasattr(original, "__detsan_original__"):
                continue
            setattr(time_mod, name, _make_guard(f"time.{name}", original))
            self._patched.append((time_mod, name, original))
        for name in GUARDED_RANDOM_FNS:
            original = getattr(random_mod, name, None)
            if original is None or hasattr(original, "__detsan_original__"):
                continue
            setattr(random_mod, name, _make_guard(f"random.{name}", original))
            self._patched.append((random_mod, name, original))

    def uninstall(self) -> None:
        """Restore every patched function to its original."""
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)


#: Events kept verbatim in the trace tail; earlier history lives only
#: in the folded fingerprint. Big enough to show context around a
#: divergence, small enough to pickle back from every worker.
TRACE_WINDOW = 512


@dataclass
class TraceSnapshot:
    """A picklable summary of one run's dispatch trace."""

    count: int
    fingerprint: str
    #: Rolling fingerprint sampled every ``stride`` events, so two
    #: snapshots can locate a divergence without keeping every event.
    checkpoints: list[str]
    stride: int
    #: The last ``TRACE_WINDOW`` events as ``(index, when, site)``.
    tail: list[tuple[int, float, str]]


class DispatchTrace:
    """Fold every fired event into a deterministic fingerprint.

    Armed via :meth:`EventLoop.add_observer`; called before each
    callback with the raw queue entry. The fingerprint chains
    ``sha256(prev_digest | when | site)`` so it commits to order, time,
    and callback identity; memory stays bounded by the checkpoint
    stride and the tail window regardless of run length.
    """

    def __init__(self, stride: int = 4096) -> None:
        self.count = 0
        self.stride = stride
        self._digest = hashlib.sha256()
        self.checkpoints: list[str] = []
        self._tail: list[tuple[int, float, str]] = []

    def __call__(self, loop: Any, entry: Any) -> None:
        """Record one event about to fire, as a loop observer."""
        # Late import keeps sanitizer importable without the net stack.
        from repro.harness.profile import callback_of, callsite_of

        site = callsite_of(callback_of(entry))
        when = loop.now
        self._digest.update(f"{when!r}|{site}\n".encode())
        self.count += 1
        self._tail.append((self.count - 1, when, site))
        if len(self._tail) > TRACE_WINDOW:
            del self._tail[0]
        if self.count % self.stride == 0:
            self.checkpoints.append(self._digest.hexdigest())

    def snapshot(self) -> TraceSnapshot:
        """Freeze the trace into picklable comparison data."""
        return TraceSnapshot(
            count=self.count,
            fingerprint=self._digest.hexdigest(),
            checkpoints=list(self.checkpoints),
            stride=self.stride,
            tail=list(self._tail),
        )


@dataclass
class Divergence:
    """The first observed difference between two dispatch traces."""

    index: int  # event index, 0-based; -1 when only counts differ
    left: tuple[float, str] | None  # (when, site) or None past the end
    right: tuple[float, str] | None
    detail: str

    def render(self) -> str:
        """One-line human-readable description for verify reports."""
        return f"first divergent event #{self.index}: {self.detail}"


def first_divergence(a: TraceSnapshot, b: TraceSnapshot) -> Divergence | None:
    """Compare two trace snapshots; ``None`` when they agree.

    Identical fingerprints (and counts) mean the dispatch sequences
    were bit-identical. On mismatch the tails are aligned by event
    index and scanned for the first differing ``(when, site)`` pair;
    when the divergence predates both tails, the checkpoint streams
    bound the window it happened in.
    """
    if a.count == b.count and a.fingerprint == b.fingerprint:
        return None

    tail_a = {i: (when, site) for i, when, site in a.tail}
    tail_b = {i: (when, site) for i, when, site in b.tail}
    for index in sorted(tail_a.keys() & tail_b.keys()):
        if tail_a[index] != tail_b[index]:
            when_a, site_a = tail_a[index]
            when_b, site_b = tail_b[index]
            return Divergence(
                index=index,
                left=tail_a[index],
                right=tail_b[index],
                detail=(
                    f"run A fired {site_a} at t={when_a:.6f}, "
                    f"run B fired {site_b} at t={when_b:.6f}"
                ),
            )

    # Tails agree (or don't overlap): fall back to the checkpoint
    # streams to bound where history diverged.
    stride = min(a.stride, b.stride)
    for pos, (ca, cb) in enumerate(zip(a.checkpoints, b.checkpoints)):
        if ca != cb:
            lo, hi = pos * stride, (pos + 1) * stride
            return Divergence(
                index=lo,
                left=None,
                right=None,
                detail=(
                    f"dispatch histories diverge between events #{lo} and "
                    f"#{hi} (before the retained tail window); re-run with "
                    "a smaller trace stride to pin the line"
                ),
            )

    if a.count != b.count:
        shorter, longer = (a, b) if a.count < b.count else (b, a)
        extra = next(
            ((when, site) for i, when, site in longer.tail if i == shorter.count),
            None,
        )
        site_hint = f" — first extra event: {extra[1]} at t={extra[0]:.6f}" if extra else ""
        return Divergence(
            index=shorter.count,
            left=None,
            right=extra,
            detail=(
                f"run lengths differ ({a.count} vs {b.count} events); one run "
                f"fired {longer.count - shorter.count} more{site_hint}"
            ),
        )

    return Divergence(
        index=-1,
        left=None,
        right=None,
        detail="fingerprints differ but the retained windows agree; "
        "divergence predates both tails and checkpoints",
    )


class sanitized_run:
    """Context manager arming DetSan for one experiment execution.

    Installs the wall-clock/global-RNG guards and, when ``trace`` is
    true, arms a fresh :class:`DispatchTrace` as an event-loop observer.
    The trace snapshot is read off :attr:`trace` after the block.
    """

    def __init__(self, trace: bool = True, stride: int = 4096) -> None:
        self._guards = _Guards()
        self.trace: DispatchTrace | None = DispatchTrace(stride) if trace else None

    def __enter__(self) -> "sanitized_run":
        from repro.net.clock import EventLoop

        self._guards.install()
        if self.trace is not None:
            EventLoop.add_observer(self.trace)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        from repro.net.clock import EventLoop

        if self.trace is not None:
            EventLoop.remove_observer(self.trace)
        self._guards.uninstall()

    def snapshot(self) -> TraceSnapshot | None:
        """The dispatch-trace snapshot, or ``None`` when not tracing."""
        return self.trace.snapshot() if self.trace is not None else None
