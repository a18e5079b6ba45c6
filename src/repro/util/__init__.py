"""Shared utilities for the PDN reproduction library.

This package deliberately contains only small, dependency-free helpers:
error types shared across subsystems, deterministic randomness, id
generation, byte/base64url encoding, lightweight metrics, and plain-text
table rendering used by the benchmark harness.
"""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    NetworkError,
    ProtocolError,
    AuthenticationError,
    IntegrityError,
)
from repro.util.ids import IdFactory
from repro.util.rand import DeterministicRandom
from repro.util.encoding import b64url_decode, b64url_encode
from repro.util.metrics import TimeSeries
from repro.util.tables import render_table

__all__ = [
    "ReproError",
    "ConfigurationError",
    "NetworkError",
    "ProtocolError",
    "AuthenticationError",
    "IntegrityError",
    "IdFactory",
    "DeterministicRandom",
    "b64url_encode",
    "b64url_decode",
    "TimeSeries",
    "render_table",
]
