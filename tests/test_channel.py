"""Handshake and record layer: one-way auth, counters, resumption."""

import random

import pytest

from dnascreen import wire
from dnascreen.channel import (
    ClientHandshake,
    ServerHandshake,
    channel_recv,
    channel_send,
    handshake_pair,
    issue_tls_identity,
    resume_session,
)
from dnascreen.crypto import (
    FIN_SEQ,
    TEST_BACKEND,
    SigningKey,
    aead_seal,
    get_backend,
)
from dnascreen.errors import (
    AuthenticationFailure,
    BadKeyExchangeSig,
    BadServerCert,
    DecodeError,
    FinishedMismatch,
    ResumptionDisabled,
)

B = TEST_BACKEND


@pytest.fixture
def world():
    rng = random.Random(7)
    ca = SigningKey.generate(rng)
    ident, static = issue_tls_identity(ca, "H", rng)
    return rng, ca, ident, static


def pair(world, resumption=False):
    rng, ca, ident, static = world
    return handshake_pair("H", ca.verify_key, ident, static, B, rng,
                          resumption_allowed=resumption)


def test_honest_handshake_equal_keys(world):
    client, server = pair(world)
    assert client.client_write == server.client_write
    assert client.server_write == server.server_write
    assert client.client_write != client.server_write
    assert client.peer_server_identity == "H"
    assert (client.send_seq, client.recv_seq) == (0, 0)


def test_client_rejects_wrong_name(world):
    rng, ca, ident, static = world
    server = ServerHandshake(ident, static, B, rng)
    hs = ClientHandshake("K1", ca.verify_key, B, rng)
    flight2 = server.receive_client_hello(hs.client_hello().data).data
    with pytest.raises(BadServerCert):
        hs.receive_server_flight(flight2)


def test_adversary_substituted_key_exchange_rejected(world):
    rng, ca, ident, static = world
    server = ServerHandshake(ident, static, B, rng)
    hs = ClientHandshake("H", ca.verify_key, B, rng)
    flight2 = server.receive_client_hello(hs.client_hello().data).data
    tag, r_s, ident_b, ske_pub, ske_sig = wire.expect_fields(flight2, 5)
    # substitute g^e' without the server's signing key
    evil = B.generator.exp(B.scalar(9)).encode()
    doctored = wire.pack_fields(tag, r_s, ident_b, evil, ske_sig)
    with pytest.raises(BadKeyExchangeSig):
        hs.receive_server_flight(doctored)


def test_adversary_with_own_ca_identity_completes(world):
    # one-way auth only authenticates the server the client chose to trust
    rng, ca, _, _ = world
    evil_ident, evil_static = issue_tls_identity(ca, "K-evil", rng)
    client, server = handshake_pair("K-evil", ca.verify_key, evil_ident,
                                    evil_static, B, rng)
    assert client.client_write == server.client_write


@pytest.mark.parametrize("name", ["test", "prod"])
def test_server_rejects_identity_client_share(world, name):
    # with client_pub = 1 the premaster secret is encode(1) whatever e_s is,
    # so the sender could seal a valid finished and know every session key
    G = get_backend(name)
    rng, ca, ident, static = world
    server = ServerHandshake(ident, static, G, rng)
    r_c = rng.randbytes(32)
    flight2 = server.receive_client_hello(
        wire.pack_fields(b"client-hello", r_c)).data
    r_s = wire.expect_fields(flight2, 5)[1]
    pms = G.identity.encode()
    c_write = wire.digest_fields(b"client-write", pms, r_c, r_s)
    c_fin = aead_seal(c_write, FIN_SEQ,
                      wire.digest_fields(pms, b"client-fin", r_c, flight2))
    with pytest.raises(DecodeError):
        server.receive_client_kex(
            wire.pack_fields(b"client-kex", pms, c_fin))
    assert server.session is None


@pytest.mark.parametrize("name", ["test", "prod"])
def test_client_rejects_signed_identity_server_share(world, name):
    # the server's own static key signs an identity share
    G = get_backend(name)
    rng, ca, ident, static = world
    hs = ClientHandshake("H", ca.verify_key, G, rng)
    r_c = wire.expect_fields(hs.client_hello().data, 2)[1]
    r_s = rng.randbytes(32)
    share = G.identity.encode()
    sig = static.sign(wire.pack_fields(b"key-exchange", r_c, r_s, share))
    flight2 = wire.pack_fields(b"server-hello", r_s, ident.encode(), share, sig)
    with pytest.raises(DecodeError):
        hs.receive_server_flight(flight2)


@pytest.mark.parametrize("name", ["test", "prod"])
def test_handshake_secrets_are_nonzero_scalar_draws(world, name):
    G = get_backend(name)
    rng, ca, ident, static = world
    mirror = random.Random()
    mirror.setstate(rng.getstate())
    server = ServerHandshake(ident, static, G, rng)
    hs = ClientHandshake("H", ca.verify_key, G, rng)
    mirror.randbytes(32)  # r_c
    assert hs.e_c == G.random_nonzero_scalar(mirror)
    flight2 = server.receive_client_hello(hs.client_hello().data).data
    mirror.randbytes(32)  # r_s
    assert server.e_s == G.random_nonzero_scalar(mirror)
    assert rng.getstate() == mirror.getstate()
    flight4 = server.receive_client_kex(hs.receive_server_flight(flight2).data)
    client = hs.receive_server_finished(flight4.data)
    assert client.client_write == server.session.client_write
    assert client.server_write == server.session.server_write


def test_tampered_finished_detected(world):
    rng, ca, ident, static = world
    server = ServerHandshake(ident, static, B, rng)
    hs = ClientHandshake("H", ca.verify_key, B, rng)
    flight2 = server.receive_client_hello(hs.client_hello().data).data
    flight3 = hs.receive_server_flight(flight2).data
    tag, pub, c_fin = wire.expect_fields(flight3, 3)
    broken = bytearray(c_fin)
    broken[0] ^= 1
    with pytest.raises(FinishedMismatch):
        server.receive_client_kex(wire.pack_fields(tag, pub, bytes(broken)))


def test_records_in_order(world):
    client, server = pair(world)
    r0 = channel_send(client, b"p0").data
    r1 = channel_send(client, b"p1").data
    assert channel_recv(server, r0) == b"p0"
    assert channel_recv(server, r1) == b"p1"
    back = channel_send(server, b"pong").data
    assert channel_recv(client, back) == b"pong"


def test_reorder_rejected(world):
    client, server = pair(world)
    channel_send(client, b"p0")
    r1 = channel_send(client, b"p1").data
    with pytest.raises(AuthenticationFailure):
        channel_recv(server, r1)


def test_duplicate_rejected(world):
    client, server = pair(world)
    r0 = channel_send(client, b"p0").data
    assert channel_recv(server, r0) == b"p0"
    with pytest.raises(AuthenticationFailure):
        channel_recv(server, r0)


def test_record_single_byte_mutations_rejected(world):
    client, server = pair(world)
    record = channel_send(client, b"sensitive verdict").data
    for i in range(len(record)):
        broken = bytearray(record)
        broken[i] ^= 0x01
        fresh_client, fresh_server = pair(world)
        rec = channel_send(fresh_client, b"sensitive verdict").data
        mutated = bytearray(rec)
        mutated[i] ^= 0x01
        with pytest.raises(AuthenticationFailure):
            channel_recv(fresh_server, bytes(mutated))


def test_resumption_disabled_by_default(world):
    client, _ = pair(world, resumption=False)
    with pytest.raises(ResumptionDisabled):
        resume_session(client)


def test_resumption_resets_counters(world):
    client, server = pair(world, resumption=True)
    channel_send(client, b"x")
    channel_send(client, b"y")
    resumed = resume_session(client)
    assert resumed.send_seq == 0 and resumed.recv_seq == 0
    assert resumed.client_write == client.client_write
    assert resumed.session_id() == client.session_id()


def test_cross_connection_swap_accepted_when_resumed(world):
    # records at equal positions from original and resumed connections are
    # mutually acceptable: same keys, same sequence numbers
    client, server = pair(world, resumption=True)
    rec_a = channel_send(server, b"answer A").data
    client2 = resume_session(client)
    server2 = resume_session(server)
    rec_b = channel_send(server2, b"answer B").data
    assert channel_recv(client, rec_b) == b"answer B"
    assert channel_recv(client2, rec_a) == b"answer A"


def test_swap_across_fresh_connections_rejected(world):
    client1, server1 = pair(world)
    client2, server2 = pair(world)
    rec_a = channel_send(server1, b"answer A").data
    with pytest.raises(AuthenticationFailure):
        channel_recv(client2, rec_a)
