"""Error types shared across the stack.

Server roles transmit failures to clients as ``error`` records carrying the
exception class name; ``raise_remote`` reconstructs them on the client side,
so every name here is part of the wire contract.
"""


class ScreeningError(Exception):
    """Base class for all protocol-level errors."""


# --- crypto ---------------------------------------------------------------

class AuthenticationFailure(ScreeningError):
    """AEAD open failed: wrong key, wrong sequence number, or tampered bytes."""


class DecodeError(ScreeningError):
    """Byte string does not parse as the expected canonical encoding."""


# --- doprf ----------------------------------------------------------------

class InvalidThreshold(ScreeningError):
    pass


class DuplicateIndex(ScreeningError):
    pass


class WrongResponseCount(ScreeningError):
    pass


class NonInvertibleBlind(ScreeningError):
    pass


# --- pki ------------------------------------------------------------------

class LevelViolation(ScreeningError):
    pass


class TypeMismatch(ScreeningError):
    pass


class NotASubset(ScreeningError):
    pass


class NoSubtokenKey(ScreeningError):
    pass


class ChainError(ScreeningError):
    """Chain validation failure; ``depth`` 0 is the token, root is deepest."""

    def __init__(self, msg: str = "", depth: int | None = None):
        super().__init__(msg if depth is None else f"{msg} (depth {depth})")
        self.depth = depth


class BadSignature(ChainError):
    pass


class UntrustedRoot(ChainError):
    pass


class Expired(ChainError):
    pass


class Revoked(ChainError):
    pass


# --- channel ---------------------------------------------------------------

class BadServerCert(ScreeningError):
    pass


class BadKeyExchangeSig(ScreeningError):
    pass


class FinishedMismatch(ScreeningError):
    pass


class MessageDropped(ScreeningError):
    """The adversary dropped a message the sender was waiting on."""


# --- scep -------------------------------------------------------------------

class BadClientChain(ScreeningError):
    pass


class BadServerChain(ScreeningError):
    pass


class BadServerSig(ScreeningError):
    pass


class BadCookie(ScreeningError):
    pass


class BadClientSig(ScreeningError):
    pass


# --- screening ----------------------------------------------------------------

class RateLimited(ScreeningError):
    pass


class BadEltChain(ScreeningError):
    pass


class AuthBackendRejected(ScreeningError):
    pass


class UnknownDevice(ScreeningError):
    pass


class ResponseBindingMismatch(ScreeningError):
    pass


class InvalidSequence(ScreeningError):
    pass


# --- simnet ---------------------------------------------------------------

class ScriptError(ScreeningError):
    pass


def _subclasses(cls) -> list:
    return [c for sub in cls.__subclasses__()
            for c in [sub, *_subclasses(sub)]]


# Registry used to rehydrate errors received over the wire: every error above.
_REMOTE = {cls.__name__: cls for cls in _subclasses(ScreeningError)}


def raise_remote(name: str, detail: str = ""):
    """Re-raise an error that a server reported over the wire."""
    raise _REMOTE.get(name, ScreeningError)(detail or name)
