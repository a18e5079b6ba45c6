"""Exception hierarchy shared by every subsystem in the library.

All library-raised exceptions derive from :class:`ReproError` so that
applications can catch one base class at their outermost boundary while
tests assert on the precise subclass.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or invoked with invalid parameters."""


class NetworkError(ReproError):
    """A simulated network operation could not be completed."""


class AddressInUseError(NetworkError):
    """A host tried to bind a UDP/TCP port that is already bound."""


class ProtocolError(ReproError):
    """A protocol message was malformed or arrived in the wrong state."""


class StunDecodeError(ProtocolError):
    """Raw bytes could not be parsed as a STUN message."""


class DtlsHandshakeError(ProtocolError):
    """The DTLS-like handshake failed (bad fingerprint, wrong flight...)."""


class DtlsRecordError(ProtocolError):
    """A DTLS record failed authentication or decryption."""


class SdpError(ProtocolError):
    """An SDP-like session description was malformed."""


class HttpError(ProtocolError):
    """An HTTP exchange failed. Carries the response status code."""

    def __init__(self, status: int, message: str = "") -> None:
        super().__init__(message or f"HTTP error {status}")
        self.status = status


class AuthenticationError(ReproError):
    """A peer or customer failed PDN authentication."""


class TokenError(AuthenticationError):
    """An authentication token was invalid, expired, or over-used."""


class IntegrityError(ReproError):
    """Content integrity verification failed (polluted segment, bad SIM)."""


class ShardWorkerError(ReproError):
    """A sharded-swarm worker process failed.

    The worker either raised, and ``detail`` is the formatted traceback
    it sent home, or died without replying, and ``detail`` gives its
    exit code. ``window`` counts barrier windows from 1; window 0 is the
    worker building its shard.
    """

    def __init__(self, shard: int, window: int, barrier: float, detail: str) -> None:
        super().__init__(
            f"shard worker {shard} failed in window {window} (barrier {barrier!r}):\n{detail}"
        )
        self.shard = shard
        self.window = window
        self.barrier = barrier
