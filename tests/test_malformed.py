"""Malformed or rejected input ends in a typed error, never a raw exception."""

from dataclasses import dataclass, replace

import pytest

from dnascreen import errors, scep, terms, wire
from dnascreen.channel import channel_recv, channel_send, handshake_client
from dnascreen.errors import (
    BadClientSig,
    BadCookie,
    DecodeError,
    Revoked,
    ScreeningError,
)
from dnascreen.scenarios import CLEAN_SEQUENCES, ScenarioConfig, build_world
from dnascreen.screening import open_reply

ORDER = [CLEAN_SEQUENCES[0], CLEAN_SEQUENCES[1]]


@pytest.fixture
def world():
    return build_world(ScenarioConfig(), seed=31)


@pytest.mark.parametrize("server", ["K1", "H", "A"])
def test_client_kex_before_client_hello(world, server):
    conn = world.net.dial("S", server)
    with pytest.raises(DecodeError):
        conn.send(wire.pack_fields(b"client-kex", b"\x00" * 4, b"fin"))


@pytest.mark.parametrize("server", ["K1", "H", "A"])
def test_bare_resume(world, server):
    conn = world.net.dial("S", server)
    with pytest.raises(DecodeError):
        conn.send(wire.pack_fields(b"resume"))


@pytest.mark.parametrize("fields_", [
    [b"auth-verify", b"authdev-C1", b"123456"],
    [b"auth-verify", b"authdev-C1", b"123456", b"\x00" * 8, b"extra"],
])
def test_auth_verify_with_wrong_field_count(world, fields_):
    conn = world.net.dial("H", "A")
    session = handshake_client(conn.send, "A", world.channel_ca.verify_key,
                               world.backend, world.net.rng)
    reply = conn.send(channel_send(session, wire.pack_fields(*fields_)))
    with pytest.raises(DecodeError):
        open_reply(session, reply)


def _stub(role, tag: bytes, reply):
    """The role answers requests tagged ``tag`` with the message ``reply``."""
    setattr(role, role.requests[tag],
            lambda conn, plaintext, term, fields_: reply)


@pytest.mark.parametrize("reply", [
    terms.cat(terms.blob(b"ks-eval-ok", "text"),
              terms.element_atom(b"\x00\x00\x00\x02")),
    terms.blob(b""),
], ids=["fewer-elements", "empty-record"])
def test_short_keyserver_reply(world, reply):
    _stub(world.keyservers["K1"], b"ks-eval", reply)
    with pytest.raises(DecodeError):
        world.synth.basic_query(ORDER)


def test_empty_database_reply(world):
    _stub(world.hdb, b"hdb-query", terms.blob(b""))
    with pytest.raises(DecodeError):
        world.synth.basic_query(ORDER)


@pytest.mark.parametrize("fields_", [
    [b"error"],
    [b"error", b"RateLimited"],
    [b"error", b"\xff", b"not utf-8"],
])
def test_malformed_error_record(world, fields_):
    _stub(world.keyservers["K1"], b"ks-eval",
          terms.blob(wire.pack_fields(*fields_)))
    with pytest.raises(DecodeError):
        world.synth.basic_query(ORDER)


def test_scep_rejection_reaches_the_synthesizer_typed(world):
    # K1 answers the revoked token's hello with an error record, which the
    # synthesizer raises as that error instead of misreading it as a respond
    revocations = world.keyservers["K1"].scep_config.revocations
    revocations.revoked_sigma.add(world.synth.chain.token.sigma)
    with pytest.raises(Revoked):
        world.synth.basic_query(ORDER)


def test_relayed_scep_rejection_reaches_the_synthesizer_typed():
    # the corrupt K1 relays the hello to K2, which alone revoked the token:
    # K2's error record travels back through K1 as the same error
    world = build_world(ScenarioConfig(corrupt={"K1": "mitm"}), seed=31)
    revocations = world.keyservers["K2"].scep_config.revocations
    revocations.revoked_sigma.add(world.synth.chain.token.sigma)
    with pytest.raises(Revoked):
        world.synth.basic_query(ORDER)


@pytest.mark.parametrize("server", ["K1", "H"])
def test_finish_after_a_rejected_hello(world, server):
    # the hello is refused and no cookie issued: the finish that follows is
    # an error record too, and the server authenticates no one
    world.net.roles[server].scep_config.revocations.revoke_sigma(
        world.synth.chain.token.sigma)
    conn = world.net.dial("S", server)
    session = handshake_client(conn.send, server, world.channel_ca.verify_key,
                               world.backend, world.net.rng)
    hello = scep.encode_hello(b"\x00" * scep.NONCE_SIZE, world.synth.chain)
    with pytest.raises(Revoked):
        open_reply(session, conn.send(channel_send(session, hello)))
    finish = scep.encode_finish(b"\x00" * scep.COOKIE_SIZE, b"sig")
    with pytest.raises(BadCookie, match="in state Failed"):
        open_reply(session, conn.send(channel_send(session, finish)))
    assert not list(world.net.honest_authenticated_sessions())


@pytest.mark.parametrize("server", ["K1", "H"])
def test_finish_after_a_rejected_finish(world, server):
    # a server takes one finish per session: after a forged signature is
    # refused, the client's own valid finish is refused too
    synth = world.synth
    client = scep.ScepClientSession(synth.config.scep_variant, synth.chain,
                                    synth.signing_key, synth.trusted_infra_root,
                                    world.net.rng)
    conn = world.net.dial("S", server)
    session = handshake_client(conn.send, server, world.channel_ca.verify_key,
                               world.backend, world.net.rng)
    respond = channel_recv(session, conn.send(client.hello(session)))
    omega = scep.decode_respond(respond)[0]
    forged = scep.encode_finish(omega, b"\x00" * 64)
    with pytest.raises(BadClientSig):
        open_reply(session, conn.send(channel_send(session, forged)))
    reply = conn.send(client.finish(respond, session, world.net.now()))
    assert reply is not None
    with pytest.raises(BadCookie, match="in state Failed"):
        open_reply(session, reply)
    assert not list(world.net.honest_authenticated_sessions())


ERROR_CLASSES = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, ScreeningError)
                 and obj is not ScreeningError]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_survives_the_wire(cls):
    with pytest.raises(ScreeningError) as info:
        errors.raise_remote(cls.__name__, "detail")
    assert type(info.value) is cls


@dataclass(frozen=True)
class _Raw:
    """Stands in for a certificate field, shipping bytes it would refuse."""

    data: bytes

    def encode(self) -> bytes:
        return self.data


DOCTORED_LEAVES = {
    "level-lean": {"level": "lean"},
    "type-manufactured": {"cert_type": "manufactured"},
    "empty-name": {"name": ""},
}


def _doctored(chain, cert_type=None, level=None, name=None):
    """The chain with its leaf's type, level or subject name replaced."""
    leaf = chain.path[0]
    desc = wire.pack_fields(wire.pack_u32(leaf.desc.version),
                            wire.pack_str(cert_type or leaf.desc.cert_type),
                            wire.pack_str(level or leaf.desc.level))
    subject = (leaf.subject_id.encode() if name is None
               else wire.pack_fields(wire.pack_str(name), b""))
    leaf = replace(leaf, desc=_Raw(desc), subject_id=_Raw(subject))
    return replace(chain, path=(leaf, *chain.path[1:]))


@pytest.mark.parametrize("doctor", DOCTORED_LEAVES.values(),
                         ids=DOCTORED_LEAVES.keys())
@pytest.mark.parametrize("server", ["K1", "H"])
def test_hello_with_doctored_certificate(world, server, doctor):
    conn = world.net.dial("S", server)
    session = handshake_client(conn.send, server, world.channel_ca.verify_key,
                               world.backend, world.net.rng)
    hello = scep.encode_hello(b"\x00" * scep.NONCE_SIZE,
                              _doctored(world.synth.chain, **doctor))
    reply = conn.send(channel_send(session, hello))
    with pytest.raises(DecodeError):
        open_reply(session, reply)


def _short_nonce_hello(chain_b: bytes) -> bytes:
    return wire.pack_fields(b"\x00" * (scep.NONCE_SIZE - 1), chain_b)


def _raw_nonce_hello(chain_b: bytes) -> bytes:
    # the earlier layout: r_S without a length prefix, then an extras field
    return b"\x00" * scep.NONCE_SIZE + wire.pack_fields(chain_b, b"")


@pytest.mark.parametrize("layout", [_short_nonce_hello, _raw_nonce_hello],
                         ids=["31-byte-nonce", "raw-nonce"])
@pytest.mark.parametrize("server", ["K1", "H"])
def test_hello_with_malformed_nonce(world, server, layout):
    conn = world.net.dial("S", server)
    session = handshake_client(conn.send, server, world.channel_ca.verify_key,
                               world.backend, world.net.rng)
    hello = layout(world.synth.chain.encode())
    reply = conn.send(channel_send(session, hello))
    with pytest.raises(DecodeError):
        open_reply(session, reply)


@pytest.mark.parametrize("doctor", DOCTORED_LEAVES.values(),
                         ids=DOCTORED_LEAVES.keys())
def test_respond_with_doctored_certificate(world, monkeypatch, doctor):
    original = scep.encode_respond
    monkeypatch.setattr(
        scep, "encode_respond", lambda omega, r_w, chain, sig: original(
            omega, r_w, _doctored(chain, **doctor), sig))
    with pytest.raises(DecodeError):
        world.synth.basic_query(ORDER)
