"""One benchmark iteration in a fresh process; prints one JSON line.

Usage (``run.py`` spawns this with ``PYTHONPATH`` pointing at ``src``)::

    python benchmarks/stack/child.py WORKLOAD INPUT_SEED {setup,run,trace} \
        [--smoke] [--trace-out FILE]

``setup`` stops once the workload is ready (imports, registry lookup,
inputs generated), ``run`` also times one untraced iteration, and
``trace`` runs it under the layer tracer, writes the trace to
``--trace-out`` and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, prepare


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, wall_s: float, import_s: float, counters: dict) -> dict:
    """Every per-layer metric but ``trace_overhead`` (which needs untraced runs)."""
    from tracer import OTHER

    calls = tracer.function_calls
    metrics: dict[str, float] = {}
    for layer, row in tracer.layer_table(wall_s).items():
        metrics[f"{layer}.self_share"] = row["self_s"] / wall_s
        if layer != OTHER:
            metrics[f"{layer}.calls"] = row["calls"]
    records = calls("repro.webrtc.dtls.DtlsSession.send_application")
    retransmits = counters.get("dc_retransmits", 0)
    p2p, cdn = counters.get("sdk_bytes_p2p_down", 0), counters.get("sdk_bytes_cdn", 0)
    wants = calls("repro.net.capture.TrafficCapture.wants")
    capture_records = counters.get("capture_records", 0)
    metrics.update({
        "harness.import_s": import_s,
        "net.clock.events": counters.get("loop_events", 0),
        "net.clock.wheel_overflow": counters.get("loop_wheel_overflow", 0),
        "net.clock.rows_per_drain": _ratio(counters.get("loop_wheel_batched", 0),
                                           counters.get("loop_wheel_batch_drains", 0)),
        "net.network.sent": counters.get("net_sent", 0),
        "net.network.delivered": counters.get("net_delivered", 0),
        "net.network.dropped": counters.get("net_dropped", 0),
        "net.capture.wants_calls": wants,
        "net.capture.records": capture_records,
        "net.capture.hit_ratio": _ratio(capture_records, wants),
        "net.addresses.classify_calls": calls("repro.net.addresses.classify_ip"),
        "net.shard.windows": calls("repro.net.shard.ShardWorker.run_window"),
        "net.shard.events_per_datagram": _ratio(counters.get("shard_events", 0),
                                                counters.get("shard_sent", 0)),
        "webrtc.dtls.records": records,
        "webrtc.dtls.mb_sealed": tracer.payload_bytes.get(
            "repro.webrtc.dtls.DtlsSession.send_application", 0) / 1e6,
        "webrtc.datachannel.messages": counters.get("dc_messages", 0),
        "webrtc.datachannel.retransmits": retransmits,
        "webrtc.datachannel.retransmit_ratio": _ratio(retransmits, records),
        "pdn.sdk.p2p_share": _ratio(p2p, p2p + cdn),
        "pdn.sdk.p2p_fallbacks": counters.get("sdk_p2p_fallbacks", 0),
        "pdn.signaling.requests": calls("repro.pdn.signaling.PdnSignalingServer.handle_request"),
        "streaming.stalls": counters.get("player_stalls", 0),
        "detection.scanned": calls("repro.detection.scanner.WebsiteScanner.scan"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    prepared = prepare(WORKLOADS[args.workload], args.seed, args.smoke)
    # CLOCK_MONOTONIC is system-wide: the parent subtracts its spawn time.
    report = {"ready_at": time.monotonic(), "import_s": prepared.import_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer().install()
        try:
            started = time.perf_counter()
            outcome = prepared.run()
            wall_s = time.perf_counter() - started
            if tracer is not None:
                counters = tracer.collect_counters()
                metrics = layer_metrics(tracer, wall_s, prepared.import_s, counters)
                if args.trace_out is not None:
                    _write_trace(args, tracer, started, wall_s, outcome, counters, metrics)
                report["metrics"] = metrics
        finally:
            if tracer is not None:
                tracer.uninstall()
        report.update(wall_s=wall_s, digest=outcome.digest, work=outcome.work,
                      problems=outcome.problems)
    report["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def _write_trace(args, tracer, started, wall_s, outcome, counters, metrics) -> None:
    from tracer import RAW_SPAN_LIMIT

    args.trace_out.parent.mkdir(parents=True, exist_ok=True)
    args.trace_out.write_text(json.dumps({
        "workload": args.workload,
        "input_seed": args.seed,
        "smoke": args.smoke,
        "wall_s": wall_s,
        "digest": outcome.digest,
        "layers": tracer.layer_table(wall_s),
        "metrics": metrics,
        "counters": counters,
        "callback_sites": tracer.callback_sites(),
        "boundaries": tracer.boundaries(),
        "raw_span_limit": RAW_SPAN_LIMIT,
        "raw_spans": tracer.raw_spans(started),
    }, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
