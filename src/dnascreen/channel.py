"""Simplified one-way-authenticated handshake and record layer.

The handshake is ephemeral Diffie-Hellman in the group backend with a
CA-signed static server identity, a server-signed key exchange, and
finished messages over the handshake transcript. It is deliberately a
model, not a real TLS stack: just enough structure that the record-layer
sequence-number behaviour (per-direction counters that always begin at
zero) and same-keys session resumption can be exercised byte-for-byte by
the simulator. The channel resumes a session whenever asked; whether to
ask, and whether to accept, is the roles' decision (``screening``).

Record wire format: 1-byte direction tag, 8-byte big-endian sequence
number, 4-byte length, ciphertext. The receiver trusts only its own
counter; the header fields must match it exactly.
"""

import hashlib
from dataclasses import dataclass

from . import terms, wire
from .crypto import (
    FIN_SEQ,
    GroupBackend,
    GroupElement,
    SigningKey,
    VerifyKey,
    aead_open,
    aead_seal,
)
from .errors import (
    AuthenticationFailure,
    BadKeyExchangeSig,
    BadServerCert,
    DecodeError,
    FinishedMismatch,
)
from .terms import Payload

DIR_C2S = 0x01
DIR_S2C = 0x02

_HDR = 1 + 8 + 4

# bound once: every flight shares its tag's atom and the label hashed for it
_CLIENT_HELLO = terms.blob(b"client-hello", "text")
_SERVER_HELLO = terms.blob(b"server-hello", "text")
_CLIENT_KEX = terms.blob(b"client-kex", "text")
_SERVER_FIN = terms.blob(b"server-fin", "text")


@dataclass(frozen=True)
class ServerTlsIdentity:
    """Static channel identity: name and verify key bound by the channel CA."""

    name: str
    verify_key: VerifyKey
    ca_signature: bytes

    def signed_portion(self) -> bytes:
        return wire.pack_fields(b"channel-identity", wire.pack_str(self.name),
                                self.verify_key.encode())

    def encode(self) -> bytes:
        return wire.pack_fields(wire.pack_str(self.name),
                                self.verify_key.encode(), self.ca_signature)

    @classmethod
    def decode(cls, b: bytes) -> "ServerTlsIdentity":
        name, vk, sig = wire.expect_fields(b, 3)
        return cls(wire.unpack_str(name), VerifyKey(vk), sig)


def issue_tls_identity(ca_key: SigningKey, name: str, rng
                       ) -> tuple[ServerTlsIdentity, SigningKey]:
    static = SigningKey.generate(rng)
    unsigned = ServerTlsIdentity(name, static.verify_key, b"")
    sig = ca_key.sign(unsigned.signed_portion())
    return ServerTlsIdentity(name, static.verify_key, sig), static


def _key_label(key: bytes) -> str:
    # must agree with the label of terms.key_atom(key)
    return terms.atom_label("key", key)


class ChannelSession:
    """Established channel endpoint: write keys plus per-direction counters."""

    def __init__(self, role: str, client_write: bytes, server_write: bytes,
                 peer_server_identity: str | None):
        self.role = role  # "client" | "server"
        self.client_write = client_write
        self.server_write = server_write
        self.peer_server_identity = peer_server_identity
        self.send_seq = 0
        self.recv_seq = 0

    @property
    def send_key(self) -> bytes:
        return self.client_write if self.role == "client" else self.server_write

    @property
    def recv_key(self) -> bytes:
        return self.server_write if self.role == "client" else self.client_write

    @property
    def send_dir(self) -> int:
        return DIR_C2S if self.role == "client" else DIR_S2C

    @property
    def recv_dir(self) -> int:
        return DIR_S2C if self.role == "client" else DIR_C2S

    def session_id(self) -> bytes:
        return hashlib.sha256(b"session-id" + self.client_write
                              + self.server_write).digest()[:16]


def resume_session(old: ChannelSession) -> ChannelSession:
    """Same keys, counters back to zero. The channel never refuses: the
    roles decide whether a session is offered or accepted for resumption."""
    return ChannelSession(
        role=old.role, client_write=old.client_write,
        server_write=old.server_write,
        peer_server_identity=old.peer_server_identity,
    )


def _decode_share(backend: GroupBackend, b: bytes) -> GroupElement:
    """The peer's DH share: a subgroup element other than the identity.

    An identity share fixes the premaster secret whatever our own secret
    is (SP 800-56A Rev. 3 section 5.6.2.3.1, RFC 7919 section 5.1).
    """
    share = backend.decode_element(b)
    if share.is_identity():
        raise DecodeError("DH share is the identity")
    return share


def _derive_write_key(pms: bytes, r_c: bytes, r_s: bytes, label: bytes) -> bytes:
    return wire.digest_fields(label, pms, r_c, r_s)


def channel_send(session: ChannelSession, payload) -> Payload:
    """Seal a plaintext at the current send counter and frame it."""
    if isinstance(payload, bytes):
        payload = Payload.opaque(payload)
    seq = session.send_seq
    ct = aead_seal(session.send_key, seq, payload.data)
    frame = (bytes([session.send_dir]) + seq.to_bytes(8, "big")
             + len(ct).to_bytes(4, "big") + ct)
    session.send_seq += 1
    # the term reads its ciphertext off the frame: one copy of the bytes
    term = terms.Sealed(_key_label(session.send_key), seq, payload.term,
                        frame, _HDR)
    return Payload(frame, term)


def parse_record_header(frame: bytes) -> tuple[int, int, bytes]:
    if len(frame) < _HDR:
        raise DecodeError("record too short")
    direction = frame[0]
    seq = int.from_bytes(frame[1:9], "big")
    length = int.from_bytes(frame[9:13], "big")
    ct = frame[13:]
    if len(ct) != length:
        raise AuthenticationFailure("record length mismatch")
    return direction, seq, ct


def channel_recv(session: ChannelSession, frame: bytes) -> bytes:
    """Open the next record; any deviation from the expected slot is fatal."""
    direction, seq, ct = parse_record_header(frame)
    if direction != session.recv_dir or seq != session.recv_seq:
        raise AuthenticationFailure(
            f"record at (dir={direction}, seq={seq}) does not match expected "
            f"(dir={session.recv_dir}, seq={session.recv_seq})")
    plaintext = aead_open(session.recv_key, session.recv_seq, ct)
    session.recv_seq += 1
    return plaintext


# --- handshake ----------------------------------------------------------------

class ClientHandshake:
    """Client half of the handshake; drives four flights then yields a session."""

    def __init__(self, server_name: str, channel_ca_key: VerifyKey,
                 backend: GroupBackend, rng):
        self.server_name = server_name
        self.ca_key = channel_ca_key
        self.backend = backend
        self.r_c = rng.randbytes(32)
        self.e_c = backend.random_nonzero_scalar(rng)
        self._flight2 = None
        self._session = None
        self._pms = None
        self._c_fin = None

    def client_hello(self) -> Payload:
        return Payload.of(terms.cat(_CLIENT_HELLO, terms.nonce(self.r_c)))

    def receive_server_flight(self, flight2: bytes) -> Payload:
        tag, r_s, ident_b, ske_pub_b, ske_sig = wire.expect_fields(flight2, 5)
        if tag != b"server-hello":
            raise DecodeError("expected server hello")
        ident = ServerTlsIdentity.decode(ident_b)
        if ident.name != self.server_name:
            raise BadServerCert(
                f"certificate names {ident.name!r}, wanted {self.server_name!r}")
        if not self.ca_key.verify(ident.signed_portion(), ident.ca_signature):
            raise BadServerCert("channel CA signature invalid")
        ske_msg = wire.pack_fields(b"key-exchange", self.r_c, r_s, ske_pub_b)
        if not ident.verify_key.verify(ske_msg, ske_sig):
            raise BadKeyExchangeSig("server key-exchange signature invalid")
        server_pub = _decode_share(self.backend, ske_pub_b)

        self._flight2 = flight2
        pms = server_pub.exp(self.e_c).encode()
        self._pms = pms
        c_write = _derive_write_key(pms, self.r_c, r_s, b"client-write")
        s_write = _derive_write_key(pms, self.r_c, r_s, b"server-write")
        self._session = ChannelSession(
            role="client", client_write=c_write, server_write=s_write,
            peer_server_identity=ident.name,
        )
        transcript = wire.digest_fields(pms, b"client-fin", self.r_c, flight2)
        c_fin = aead_seal(c_write, FIN_SEQ, transcript)
        self._c_fin = c_fin
        client_pub = self.backend.generator.exp(self.e_c).encode()
        return Payload.of(terms.cat(
            _CLIENT_KEX, terms.element_atom(client_pub),
            terms.Sealed(_key_label(c_write), FIN_SEQ, terms.blob(transcript),
                         c_fin)))

    def receive_server_finished(self, flight4: bytes) -> ChannelSession:
        tag, s_fin = wire.expect_fields(flight4, 2)
        if tag != b"server-fin":
            raise DecodeError("expected server finished")
        expected = wire.digest_fields(self._pms, b"server-fin", self.r_c,
                                      self._flight2, self._c_fin)
        try:
            got = aead_open(self._session.server_write, FIN_SEQ, s_fin)
        except AuthenticationFailure:
            raise FinishedMismatch("server finished failed to open") from None
        if got != expected:
            raise FinishedMismatch("server finished covers a different transcript")
        return self._session


class ServerHandshake:
    """Server half; consumes client flights, emits replies, yields a session."""

    def __init__(self, tls_identity: ServerTlsIdentity, static_key: SigningKey,
                 backend: GroupBackend, rng):
        self.identity = tls_identity
        self.static_key = static_key
        self.backend = backend
        self.rng = rng
        self.r_s = None
        self.e_s = None
        self._r_c = None
        self._flight2 = None
        self._session = None

    def receive_client_hello(self, flight1: bytes) -> Payload:
        tag, r_c = wire.expect_fields(flight1, 2)
        if tag != b"client-hello":
            raise DecodeError("expected client hello")
        self._r_c = r_c
        self.r_s = self.rng.randbytes(32)
        self.e_s = self.backend.random_nonzero_scalar(self.rng)
        ske_pub = self.backend.generator.exp(self.e_s).encode()
        ske_sig = self.static_key.sign(
            wire.pack_fields(b"key-exchange", r_c, self.r_s, ske_pub))
        flight2 = Payload.of(terms.cat(
            _SERVER_HELLO, terms.nonce(self.r_s),
            terms.blob(self.identity.encode()), terms.element_atom(ske_pub),
            terms.blob(ske_sig)))
        self._flight2 = flight2.data
        return flight2

    def receive_client_kex(self, flight3: bytes) -> Payload:
        tag, client_pub_b, c_fin = wire.expect_fields(flight3, 3)
        if tag != b"client-kex":
            raise DecodeError("expected client key exchange")
        client_pub = _decode_share(self.backend, client_pub_b)
        pms = client_pub.exp(self.e_s).encode()
        c_write = _derive_write_key(pms, self._r_c, self.r_s, b"client-write")
        s_write = _derive_write_key(pms, self._r_c, self.r_s, b"server-write")
        expected = wire.digest_fields(pms, b"client-fin", self._r_c, self._flight2)
        try:
            got = aead_open(c_write, FIN_SEQ, c_fin)
        except AuthenticationFailure:
            raise FinishedMismatch("client finished failed to open") from None
        if got != expected:
            raise FinishedMismatch("client finished covers a different transcript")
        self._session = ChannelSession(
            role="server", client_write=c_write, server_write=s_write,
            peer_server_identity=None,
        )
        transcript = wire.digest_fields(pms, b"server-fin", self._r_c,
                                        self._flight2, c_fin)
        s_fin = aead_seal(s_write, FIN_SEQ, transcript)
        return Payload.of(terms.cat(
            _SERVER_FIN,
            terms.Sealed(_key_label(s_write), FIN_SEQ, terms.blob(transcript),
                         s_fin)))

    @property
    def session(self) -> ChannelSession:
        return self._session


def handshake_client(transport, server_name: str, channel_ca_key: VerifyKey,
                     backend: GroupBackend, rng) -> ChannelSession:
    """Run the full client handshake over ``transport(payload) -> bytes``."""
    hs = ClientHandshake(server_name, channel_ca_key, backend, rng)
    flight2 = transport(hs.client_hello())
    flight4 = transport(hs.receive_server_flight(flight2))
    return hs.receive_server_finished(flight4)


def handshake_pair(server_name: str, ca_key: VerifyKey,
                   identity: ServerTlsIdentity, static_key: SigningKey,
                   backend: GroupBackend, rng
                   ) -> tuple[ChannelSession, ChannelSession]:
    """Directly-connected handshake for tests; returns (client, server) sessions."""
    server = ServerHandshake(identity, static_key, backend, rng)

    def transport(payload: Payload) -> bytes:
        data = payload.data
        tag = wire.unpack_fields(data)[0]
        if tag == b"client-hello":
            return server.receive_client_hello(data).data
        return server.receive_client_kex(data).data

    client = handshake_client(transport, server_name, ca_key, backend, rng)
    return client, server.session
