"""The PDN analyzer — the paper's analysis framework (Fig. 2).

The analyzer accepts a PDN service and a security test as input. Its
control panel sets test parameters, runs each PDN peer as a container
(web driver + proxy client + resource monitor), and can intercept and
modify the traffic between a peer and the PDN server through the
configured proxy. After execution it returns playback records (the
screen-recording analog), execution logs, and resource statistics for
risk evaluation. A test that needs dumped traffic registers its own
scoped capture, so no peer holds one it does not read.
"""

from repro.core.testbed import TestBed, build_test_bed
from repro.core.analyzer import PdnAnalyzer, PeerContainer
from repro.core.report import RiskVerdict, TestReport
from repro.core.security_test import SecurityTest

__all__ = [
    "TestBed",
    "build_test_bed",
    "PdnAnalyzer",
    "PeerContainer",
    "RiskVerdict",
    "TestReport",
    "SecurityTest",
]
