"""Outside-in layer tracer for the stack benchmark.

Nothing under ``src/`` knows about this module. :meth:`Tracer.install`
imports every ``repro`` module and replaces each layer's entry points
with span-recording wrappers:

- every public function and method (plus ``__init__``) defined in a
  module the layer map below assigns to a layer, installed as a class
  attribute or, for module-level functions, rebound in every loaded
  ``repro.*`` module that holds the function under any name (so a
  ``from repro.net.addresses import classify_ip`` inside ``privacy`` is
  reached too);
- every callback a layer hands to the event loop or a socket: the
  callable passed to ``EventLoop.schedule``/``schedule_at``/
  ``schedule_fast``/``call_every``/``inject``/``set_datagram_plane`` or
  ``Host.bind_udp`` is wrapped on its way in and named by
  :func:`repro.harness.profile.callsite_of`, the label the
  ``SiteProfiler`` callback-site table uses. The network's two
  delivery callbacks, which it enqueues without a registration call,
  are wrapped as class attributes;
- each registered experiment runner, re-registered through
  :func:`repro.harness.registry.register`.

A span is opened only where control crosses from one layer into
another; a call into the layer already running is counted but not
timed, so a layer's self time is the time between entering it and
leaving it, minus the spans of other layers it called. Spans are kept
as aggregates per (boundary, parent boundary) plus a bounded list of
raw spans. Counters are read from the ``Network``, ``EventLoop``,
``DataChannelLayer``, ``TrafficCapture``, ``SdkStats`` and
``PlayerStats`` instances as each one is finalized (and from any still
alive when the trace ends), so the tracer holds no reference that
would keep a finished simulation in memory.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import gc
import importlib
import inspect
import pkgutil
import sys
import time
import types

#: Layer name -> the modules it covers (a module or package prefix).
#: Modules outside the map (``environment``, ``proxy``, ``util``,
#: ``analysis``) are not wrapped: their time counts toward the caller.
LAYER_MODULES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("harness", ("repro.harness", "repro.cli")),
    ("experiments", ("repro.experiments", "repro.core")),
    ("net.clock", ("repro.net.clock",)),
    ("net.network", ("repro.net.network", "repro.net.nat")),
    ("net.capture", ("repro.net.capture",)),
    ("net.addresses", ("repro.net.addresses",)),
    ("net.faults", ("repro.net.faults",)),
    ("net.shard", ("repro.net.shard",)),
    ("webrtc.dtls", ("repro.webrtc.dtls", "repro.webrtc.certificates")),
    ("webrtc.datachannel", ("repro.webrtc.datachannel",)),
    ("webrtc.ice", tuple(f"repro.webrtc.{name}" for name in
                         ("ice", "stun", "turn", "sdp", "peer_connection"))),
    ("pdn.sdk", ("repro.pdn.sdk",)),
    ("pdn.signaling", tuple(f"repro.pdn.{name}" for name in
                            ("signaling", "auth", "portal", "billing", "ecdn", "provider"))),
    ("pdn.scheduler", ("repro.pdn.scheduler", "repro.pdn.policy")),
    ("streaming", ("repro.streaming",)),
    ("privacy", ("repro.privacy",)),
    ("attacks", ("repro.attacks",)),
    ("defenses", ("repro.defenses",)),
    ("detection", ("repro.detection",)),
    ("web", ("repro.web",)),
    ("scenarios", ("repro.scenarios",)),
)
LAYERS: tuple[str, ...] = tuple(name for name, _ in LAYER_MODULES)
#: Time inside no span: the benchmark's own code, such as the swarm's send loop.
OTHER = "other"

#: Methods taking a callable that the loop or a socket invokes later:
#: (module, class, method) -> (positional index counting self, keyword).
CALLBACK_ARGS = {
    ("repro.net.clock", "EventLoop", "schedule"): (2, "callback"),
    ("repro.net.clock", "EventLoop", "schedule_at"): (2, "callback"),
    ("repro.net.clock", "EventLoop", "schedule_fast"): (2, "callback"),
    ("repro.net.clock", "EventLoop", "call_every"): (2, "callback"),
    ("repro.net.clock", "EventLoop", "inject"): (2, "callback"),
    ("repro.net.clock", "EventLoop", "set_datagram_plane"): (1, "drain"),
    ("repro.net.network", "Host", "bind_udp"): (2, "handler"),
}
#: Private methods a layer hands to the loop without a registration
#: call: the network binds them once and enqueues them inline.
PRIVATE_CALLBACKS = {
    ("repro.net.network", "Network"): ("_deliver", "_drain_cursor"),
}
#: Entry points whose payload argument is summed (positional index).
PAYLOAD_ARGS = {("repro.webrtc.dtls", "DtlsSession", "send_application"): 1}

#: Raw spans kept per trace; the aggregates cover every span.
RAW_SPAN_LIMIT = 2000


def _loop_counters(loop) -> dict:
    return {
        "loop_events": loop.events_fired,
        "loop_wheel_overflow": loop.wheel_overflow,
        "loop_wheel_batched": loop.wheel_batched,
        "loop_wheel_batch_drains": loop.wheel_batch_drains,
    }


def _network_counters(net) -> dict:
    out = {
        "net_sent": net.datagrams_sent,
        "net_delivered": net.datagrams_delivered,
        "net_dropped": net.datagrams_dropped,
        "net_in_flight": net.datagrams_in_flight,
    }
    if type(net).__name__ == "ShardNetwork":
        out["shard_sent"] = net.datagrams_sent
        out["shard_events"] = net.loop.events_fired
    return out


#: (module, class) -> reader of one instance's public counters.
COUNTER_SOURCES = {
    ("repro.net.clock", "EventLoop"): _loop_counters,
    ("repro.net.network", "Network"): _network_counters,
    ("repro.net.capture", "TrafficCapture"): lambda cap: {
        "capture_records": len(cap.packets) + cap.dropped_records,
    },
    ("repro.webrtc.datachannel", "DataChannelLayer"): lambda layer: {
        "dc_messages": layer.messages_sent,
        "dc_retransmits": layer.chunks_retransmitted,
    },
    ("repro.pdn.sdk", "SdkStats"): lambda stats: {
        "sdk_bytes_p2p_down": stats.bytes_p2p_down,
        "sdk_bytes_cdn": stats.bytes_cdn,
        "sdk_p2p_fallbacks": stats.p2p_fallbacks,
    },
    ("repro.streaming.player", "PlayerStats"): lambda stats: {
        "player_stalls": stats.stalls,
    },
}


def layer_of(module: str | None) -> str | None:
    """The layer a module belongs to, or ``None`` when it is unmapped."""
    if not module:
        return None
    for layer, prefixes in LAYER_MODULES:
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


def import_all_repro_modules() -> None:
    """Import every ``repro`` module, so wrappers exist before any use."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _wrappable_class(cls: type) -> bool:
    return not (
        issubclass(cls, (BaseException, enum.Enum))
        or getattr(cls, "_is_protocol", False)
    )


class Tracer:
    """Span-recording wrappers around every layer's entry points.

    Call :meth:`install`, run the work, then :meth:`collect_counters`
    once the work's objects have died, then :meth:`uninstall`.
    """

    def __init__(self) -> None:
        #: Per boundary id: "module.qualname", layer index, call count.
        self.names: list[str] = []
        self.layer_index: list[int] = []
        self.calls: list[int] = []
        #: (boundary id, parent boundary id) -> [spans, inclusive s, self s].
        self.aggregates: dict[tuple[int, int], list] = {}
        #: (boundary id, parent boundary id, start, end), the first
        #: RAW_SPAN_LIMIT spans to end.
        self.raw: list[tuple[int, int, float, float]] = []
        self.payload_bytes: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        # Frames are [boundary id, layer index, child span time]; the
        # root frame (-1, -1) stands for code outside every span.
        self._stack: list[list] = [[-1, -1, 0.0]]
        self._ids_by_name: dict[str, int] = {}
        self._site_ids: dict[str, int] = {}
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._counted_types: tuple[type, ...] = ()
        self._callsite_of = None
        self.installed = False

    # -- boundaries and wrappers ------------------------------------------

    def _boundary(self, name: str, layer: str) -> int:
        bid = self._ids_by_name.get(name)
        if bid is None:
            bid = len(self.names)
            self._ids_by_name[name] = bid
            self.names.append(name)
            self.layer_index.append(LAYERS.index(layer))
            self.calls.append(0)
        return bid

    def _span(self, fn, bid: int):
        """A wrapper timing ``fn`` as boundary ``bid`` when it crosses layers."""
        layer = self.layer_index[bid]
        stack = self._stack
        calls = self.calls
        aggregates = self.aggregates
        raw = self.raw
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[bid] += 1
            parent = stack[-1]
            if parent[1] == layer:
                return fn(*args, **kwargs)
            frame = [bid, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[2] += duration
                key = (bid, parent[0])
                agg = aggregates.get(key)
                if agg is None:
                    aggregates[key] = [1, duration, duration - frame[2]]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[2]
                if len(raw) < RAW_SPAN_LIMIT:
                    raw.append((bid, parent[0], start, end))

        traced._stack_traced = True
        return traced

    def wrap_callback(self, callback):
        """Wrap a callable handed to the loop or a socket, named by call site."""
        if callback is None:
            return None
        target = getattr(callback, "__func__", callback)
        if getattr(target, "_stack_traced", False):
            return callback
        site = self._callsite_of(callback)
        bid = self._site_ids.get(site)
        if bid is None:
            layer = layer_of(getattr(target, "__module__", None))
            bid = -1 if layer is None else self._boundary(site, layer)
            self._site_ids[site] = bid
        if bid < 0:
            return callback
        return self._span(callback, bid)

    def _wrap_function(self, fn, name: str, layer: str, key: tuple) -> object:
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known[1]
        wrapper = self._span(fn, self._boundary(name, layer))
        registration = CALLBACK_ARGS.get(key)
        if registration is not None:
            wrapper = self._registering(wrapper, *registration)
        payload_index = PAYLOAD_ARGS.get(key)
        if payload_index is not None:
            wrapper = self._payload_counting(wrapper, name, payload_index)
        functools.update_wrapper(wrapper, fn)
        wrapper._stack_traced = True
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    def _registering(self, span, position: int, keyword: str):
        wrap = self.wrap_callback

        def traced(*args, **kwargs):
            if len(args) > position:
                args = (*args[:position], wrap(args[position]), *args[position + 1:])
            elif keyword in kwargs:
                kwargs[keyword] = wrap(kwargs[keyword])
            return span(*args, **kwargs)

        return traced

    def _payload_counting(self, span, name: str, position: int):
        totals = self.payload_bytes
        totals[name] = 0

        def traced(*args, **kwargs):
            totals[name] += len(args[position])
            return span(*args, **kwargs)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer's entry points (imports all ``repro`` modules)."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        import_all_repro_modules()
        from repro.harness.profile import callsite_of

        self._callsite_of = callsite_of
        modules = sorted(
            (name, module) for name, module in sys.modules.items()
            if (name == "repro" or name.startswith("repro.")) and module is not None
        )
        for modname, module in modules:
            layer = layer_of(modname)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == modname:
                    self._wrap_class(value, modname, layer)
                elif (isinstance(value, types.FunctionType) and value.__module__ == modname
                      and not attr.startswith("_") and not _is_generator(value)):
                    self._wrap_function(value, f"{modname}.{value.__qualname__}", layer,
                                        (modname, None, attr))
        self._wrap_registry()
        # Rebind every module-level alias of a wrapped function, in the
        # defining module and in each module that imported it by name.
        for _, module in modules:
            for attr, value in list(vars(module).items()):
                known = self._wrappers.get(id(value))
                if known is not None and known[0] is value and isinstance(value, types.FunctionType):
                    self._set(module, attr, known[1])
        self._install_finalizers()
        # Installing called a few wrapped harness functions; the trace
        # starts empty.
        self.calls[:] = [0] * len(self.calls)
        self.aggregates.clear()
        self.raw.clear()
        self.installed = True
        return self

    def _wrap_class(self, cls: type, modname: str, layer: str) -> None:
        if not _wrappable_class(cls):
            return
        private = PRIVATE_CALLBACKS.get((modname, cls.__name__), ())
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__" and attr not in private:
                continue
            kind = type(value) if isinstance(value, (staticmethod, classmethod)) else None
            fn = value.__func__ if kind is not None else value
            if (not isinstance(fn, types.FunctionType) or _is_generator(fn)
                    or fn.__qualname__ != f"{cls.__qualname__}.{attr}"):
                continue
            wrapper = self._wrap_function(
                fn, f"{modname}.{cls.__qualname__}.{attr}", layer, (modname, cls.__name__, attr)
            )
            self._set(cls, attr, kind(wrapper) if kind is not None else wrapper)

    def _wrap_registry(self) -> None:
        from repro.harness import registry

        for spec in registry.all_specs():
            known = self._wrappers.get(id(spec.runner))
            if known is None:
                continue
            registry.register(dataclasses.replace(spec, runner=known[1]))
            self._undo.append((registry, _REGISTRY_SPEC, spec))

    def _install_finalizers(self) -> None:
        counted = []
        for (modname, clsname), reader in COUNTER_SOURCES.items():
            cls = getattr(sys.modules[modname], clsname)
            counted.append(cls)
            self._set(cls, "__del__", self._finalizer(reader))
        self._counted_types = tuple(counted)

    def _finalizer(self, reader):
        counters = self.counters

        def __del__(obj) -> None:
            for key, value in reader(obj).items():
                counters[key] = counters.get(key, 0) + value

        return __del__

    def collect_counters(self) -> dict[str, int]:
        """The counters of every instance: finalize the dead, read the live.

        Returns a snapshot, so a live instance that is collected later
        (and read again by its finalizer) cannot change the result.
        """
        gc.collect()
        for obj in gc.get_objects():
            if isinstance(obj, self._counted_types):
                obj.__del__()  # the installed finalizer reads the instance
        return dict(self.counters)

    def uninstall(self) -> None:
        """Restore every original, in reverse order of installation."""
        from repro.harness import registry

        while self._undo:
            owner, attr, old = self._undo.pop()
            if attr is _REGISTRY_SPEC:
                registry.register(old)
            else:
                _restore(owner, attr, old)
        self.installed = False

    # -- results ----------------------------------------------------------

    def function_calls(self, name: str) -> int:
        """Calls recorded for one boundary (0 when it was never wrapped)."""
        bid = self._ids_by_name.get(name)
        return 0 if bid is None else self.calls[bid]

    def layer_table(self, wall_s: float) -> dict[str, dict[str, float]]:
        """Self time and span count per layer, ``other`` = time in no span."""
        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        top_level = 0.0
        for (bid, parent), (count, inclusive, self_s) in self.aggregates.items():
            row = table[LAYERS[self.layer_index[bid]]]
            row["self_s"] += self_s
            row["calls"] += count
            if parent < 0:
                top_level += inclusive
        table[OTHER] = {"self_s": wall_s - top_level, "calls": 0}
        return table

    def boundaries(self) -> list[dict]:
        """Every (boundary, parent boundary) aggregate, most self time first."""
        def label(bid: int) -> tuple[str, str]:
            if bid < 0:
                return OTHER, "<root>"
            return LAYERS[self.layer_index[bid]], self.names[bid]

        rows = []
        for (bid, parent), (count, inclusive, self_s) in self.aggregates.items():
            layer, name = label(bid)
            parent_layer, parent_name = label(parent)
            rows.append({
                "layer": layer, "function": name,
                "parent_layer": parent_layer, "parent_function": parent_name,
                "spans": count, "inclusive_s": inclusive, "self_s": self_s,
            })
        rows.sort(key=lambda row: (-row["self_s"], row["function"], row["parent_function"]))
        return rows

    def raw_spans(self, origin: float) -> list[dict]:
        """The first raw spans, start/end relative to ``origin``."""
        def name(bid: int) -> str:
            return "<root>" if bid < 0 else self.names[bid]

        return [
            {"layer": LAYERS[self.layer_index[bid]], "function": name(bid),
             "parent": name(parent), "start_s": start - origin, "end_s": end - origin}
            for bid, parent, start, end in self.raw
        ]

    def callback_sites(self) -> dict[str, int]:
        """Calls per wrapped loop/socket callback site (the SiteProfiler labels)."""
        return {site: self.calls[bid] for site, bid in sorted(self._site_ids.items()) if bid >= 0}


_MISSING = object()
_REGISTRY_SPEC = "<registry spec>"


def _restore(owner, attr: str, old) -> None:
    if old is _MISSING:
        delattr(owner, attr)
    else:
        setattr(owner, attr, old)


def _is_generator(fn) -> bool:
    return inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn)
