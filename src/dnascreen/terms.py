"""Formal terms of wire messages for the adversary-knowledge closure.

A message is its term. Every term reads its wire bytes as ``.data``: an
``Atom`` and an ``ExpTerm`` hold theirs, a ``Sealed`` holds its ciphertext
(a record's whole frame, with ``start`` past the header), and a ``Cat``
packs its parts' ``data`` as length-prefixed fields on each read. So the
structure the closure engine splits, decrypts and exponentiates is exactly
the structure on the wire, and the bytes stay ground truth for transcripts
and byte-level tampering. The one place bytes and a term are paired is a
server's opened request: the plaintext it decrypted and the term the sender
sealed (``screening.ServerConnection.handle``). Atom labels are derived from
content hashes, so equal values get equal labels with no plumbing.

A run keeps every term that crossed its network, so terms hold no bytes twice
and carry no per-instance ``__dict__``: a ``Cat`` stores no bytes at all, a
record's ``Sealed`` keeps the frame its transcript event keeps and reads its
ciphertext off it, and fixed message tags are atoms bound once per module.
"""

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter

from . import wire


_DATA = attrgetter("data")


def atom_label(kind: str, data: bytes) -> str:
    return f"{kind}:{hashlib.sha256(data).hexdigest()[:12]}"


@dataclass(frozen=True, slots=True)
class Atom:
    """An indivisible value: nonce, key, scalar, group element, or blob."""

    kind: str  # nonce | cookie | key | scalar | element | blob | text
    data: bytes
    label: str = field(default="")

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", atom_label(self.kind, self.data))


@dataclass(frozen=True, slots=True)
class Cat:
    """Concatenation at length-prefixed boundaries the adversary can parse."""

    parts: tuple

    @property
    def data(self) -> bytes:
        """The parts' ``data`` packed as fields, on each read: never stored."""
        return wire.pack_fields(*map(_DATA, self.parts))


@dataclass(frozen=True, slots=True)
class Sealed:
    """AEAD ciphertext under the key identified by key_label at seq.

    The ciphertext is ``data[start:]``. A record's term is the record: its
    ``data`` is the whole frame, with ``start`` past the header, the frame
    its transcript event keeps, so the run holds those bytes once. A sealed
    part of a message (a handshake finished) has ``start`` 0.
    """

    key_label: str
    seq: int
    inner: object
    data: bytes
    start: int = 0

    @property
    def ct(self) -> bytes:
        return self.data[self.start:]


@dataclass(frozen=True, slots=True)
class ExpTerm:
    """A group element derived by exponentiating a base atom.

    ``factors`` is a sorted tuple of (scalar_label, sign) with inverse pairs
    cancelled; an empty tuple means the term IS the base atom.
    """

    base: Atom
    factors: tuple
    data: bytes


def blob(data: bytes, kind: str = "blob") -> Atom:
    return Atom(kind, data)


def nonce(data: bytes) -> Atom:
    return Atom("nonce", data)


def key_atom(key: bytes) -> Atom:
    return Atom("key", key)


def scalar_atom(data: bytes) -> Atom:
    return Atom("scalar", data)


def element_atom(data: bytes) -> Atom:
    return Atom("element", data)


def cat(*parts) -> Cat:
    return Cat(tuple(parts))


def term_key(term) -> tuple:
    """Stable identity for knowledge-set membership."""
    if isinstance(term, Atom):
        return ("a", term.label)
    if isinstance(term, Sealed):
        return ("s", hashlib.sha256(term.ct).hexdigest()[:16], term.seq)
    if isinstance(term, Cat):
        return ("c",) + tuple(term_key(p) for p in term.parts)
    if isinstance(term, ExpTerm):
        return ("e", term.base.label, term.factors)
    raise TypeError(f"not a term: {term!r}")


def render_term(term) -> str:
    if isinstance(term, Atom):
        return f"{term.label}({len(term.data)}B)"
    if isinstance(term, Sealed):
        return f"seal[{term.key_label}#{term.seq}]({render_term(term.inner)})"
    if isinstance(term, Cat):
        return "(" + "|".join(render_term(p) for p in term.parts) + ")"
    if isinstance(term, ExpTerm):
        facs = ",".join(f"{l}^{s:+d}" for l, s in term.factors)
        return f"exp[{term.base.label};{facs}]"
    return repr(term)
