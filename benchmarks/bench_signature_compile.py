"""PERF001 regression micro-benchmark: ``Signature.compiled()`` caching.

The seed shipped ``compiled()`` recompiling its regex on every
``matches()`` call — the hottest path in the whole detection pipeline
(every signature × every page of every site, §III-C). The fix compiles
once per distinct (kind, pattern) behind ``functools.lru_cache``. This
benchmark times the scan hot path and fails if cached calls are not
several times faster than recompiling, so the regression is visible if
the cache is ever dropped; reprolint rule PERF001 guards the same bug
statically.
"""

from repro.detection.signatures import (
    Signature,
    SignatureKind,
    _compile_signature,
    provider_signatures,
)
from repro.util.perf import WallTimer

COMPILE_CALLS = 20_000


def _scan_pages(signatures: list[Signature], pages: list[str]) -> int:
    hits = 0
    for page in pages:
        for signature in signatures:
            if signature.matches(page):
                hits += 1
    return hits


def test_signature_match_hot_path(benchmark):
    signatures = provider_signatures()
    pages = [
        f'<script src="https://api.peer5.com/peer5.js?id={i:08x}"></script>'
        for i in range(200)
    ]
    hits = benchmark(_scan_pages, signatures, pages)
    assert hits == 200  # every page carries exactly one Peer5 URL signature

    # One-shot cached vs uncached comparison, the PERF001 regression check.
    probe = Signature(SignatureKind.URL_PATTERN, "api.peer5.com/peer5.js?id=*", "peer5")
    probe.compiled()  # warm the cache
    with WallTimer() as cached:
        for _ in range(COMPILE_CALLS):
            probe.compiled()
    with WallTimer() as uncached:
        for _ in range(COMPILE_CALLS):
            _compile_signature.__wrapped__(probe.kind, probe.pattern)
    speedup = uncached.elapsed / max(cached.elapsed, 1e-9)
    assert speedup > 3.0, "lru_cache on _compile_signature should dominate recompiling"
