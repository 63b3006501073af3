"""SCEP / SCEP+ state machines and the rate-limit ledger."""

import random

import pytest

from dnascreen import pki, wire
from dnascreen.channel import (
    channel_recv,
    channel_send,
    handshake_pair,
    issue_tls_identity,
)
from dnascreen.crypto import TEST_BACKEND, SigningKey
from dnascreen.errors import (
    BadClientChain,
    BadClientSig,
    BadCookie,
    BadServerChain,
    BadServerSig,
    DecodeError,
    Revoked,
    ScreeningError,
)
from dnascreen.scep import (
    SCEP,
    SCEP_PLUS,
    Authenticated,
    mutauth_hash,
    NONCE_SIZE,
    RateLimitLedger,
    rate_limit_check,
    ScepClientSession,
    ScepServerConfig,
    ScepServerSession,
    WINDOW_SECONDS,
    decode_hello,
    encode_finish,
)

B = TEST_BACKEND
START, END = 0, 2_000_000_000_000
NOW = 1_000_000


class World:
    """Honest PKI plus channel CA, shared by the SCEP tests."""

    def __init__(self, seed=5):
        rng = self.rng = random.Random(seed)
        self.ca = SigningKey.generate(rng)
        # manufacturer hierarchy for the synthesizer
        m_root, m_root_key = pki.create_root(pki.MANUFACTURER,
                                             pki.Identity("F"), rng, START, END)
        mi_key = SigningKey.generate(rng)
        m_inter = pki.issue_certificate(m_root, m_root_key, pki.Identity("MI"),
                                        mi_key.verify_key, pki.INTERMEDIATE,
                                        START, END, rng)
        ml_key = SigningKey.generate(rng)
        m_leaf = pki.issue_certificate(m_inter, mi_key, pki.Identity("ML"),
                                       ml_key.verify_key, pki.LEAF, START, END,
                                       rng)
        self.m_root = m_root
        self.s_key = SigningKey.generate(rng)
        s_token = pki.issue_token(m_leaf, ml_key, pki.TOKEN_SYNTHESIZER,
                                  pki.SynthesizerPayload("S", 100),
                                  pki.Identity("S"), self.s_key.verify_key,
                                  START, END, rng)
        self.s_chain = pki.CertChain(path=(m_leaf, m_inter, m_root),
                                     token=s_token)
        # infrastructure hierarchy for the server W
        i_root, i_root_key = pki.create_root(pki.INFRASTRUCTURE,
                                             pki.Identity("F"), rng, START, END)
        ii_key = SigningKey.generate(rng)
        i_inter = pki.issue_certificate(i_root, i_root_key, pki.Identity("II"),
                                        ii_key.verify_key, pki.INTERMEDIATE,
                                        START, END, rng)
        il_key = SigningKey.generate(rng)
        i_leaf = pki.issue_certificate(i_inter, ii_key, pki.Identity("IL"),
                                       il_key.verify_key, pki.LEAF, START, END,
                                       rng)
        self.i_root = i_root
        self.i_leaf, self.il_key = i_leaf, il_key
        self.i_path = (i_leaf, i_inter, i_root)
        self.w_key = SigningKey.generate(rng)
        w_token = pki.issue_token(i_leaf, il_key, pki.TOKEN_KEYSERVER,
                                  pki.KeyserverPayload(1), pki.Identity("W"),
                                  self.w_key.verify_key, START, END, rng)
        self.w_chain = pki.CertChain(path=self.i_path, token=w_token)

    def channels(self, server_name="W"):
        ident, static = issue_tls_identity(self.ca, server_name, self.rng)
        return handshake_pair(server_name, self.ca.verify_key, ident, static,
                              B, self.rng)

    def server_config(self, variant, revocations=None):
        return ScepServerConfig(
            variant=variant, chain=self.w_chain, signing_key=self.w_key,
            trusted_manufacturer_root=self.m_root,
            revocations=revocations or pki.RevocationList())

    def client(self, variant, peer_chains=None):
        return ScepClientSession(variant, self.s_chain, self.s_key,
                                 self.i_root, self.rng,
                                 peer_chains=peer_chains)


def run_scep(world, variant, client=None, server_cfg=None, server_chains=None):
    c_ch, s_ch = world.channels()
    client = client or world.client(variant)
    server = ScepServerSession(server_cfg or world.server_config(variant),
                               server_chains)
    hello = client.hello(c_ch)
    respond = server.respond(channel_recv(s_ch, hello.data), s_ch, world.rng,
                             NOW)
    finish = client.finish(channel_recv(c_ch, respond.data), c_ch, NOW)
    auth = server.verify(channel_recv(s_ch, finish.data))
    return client, server, auth


@pytest.mark.parametrize("variant", [SCEP, SCEP_PLUS])
def test_honest_roundtrip_reaches_finished(variant):
    world = World()
    client, server, auth = run_scep(world, variant)
    assert client.agreed() == server.agreed()
    assert isinstance(auth, Authenticated)
    assert auth.sigma == world.s_chain.token.sigma
    assert auth.rate_limit == 100


def test_hello_layout_starts_with_nonce():
    world = World()
    c_ch, s_ch = world.channels()
    client = world.client(SCEP)
    hello_plain = channel_recv(s_ch, client.hello(c_ch).data)
    assert hello_plain == wire.pack_fields(client.r_s, world.s_chain.encode())
    r_s, chain = decode_hello(hello_plain)
    assert r_s == client.r_s and len(r_s) == NONCE_SIZE
    assert chain.token.sigma == world.s_chain.token.sigma


def test_scep_server_hash_excludes_cookie():
    h1 = mutauth_hash(SCEP, b"server-mutauth", b"r" * 32, b"w" * 32,
                      b"\x01" * 32, b"TC", b"TS")
    h2 = mutauth_hash(SCEP, b"server-mutauth", b"r" * 32, b"w" * 32,
                      b"\x02" * 32, b"TC", b"TS")
    assert h1 == h2  # cookie not covered
    h3 = mutauth_hash(SCEP, b"server-mutauth", b"r" * 32, b"w" * 32,
                      b"\x01" * 32, b"OTHER-CLIENT", b"TS")
    assert h1 == h3  # client token not covered either


def test_scep_plus_hash_covers_cookie_and_both_tokens():
    base = dict(r_s=b"r" * 32, r_w=b"w" * 32)
    h = mutauth_hash(SCEP_PLUS, b"server-mutauth", base["r_s"], base["r_w"],
                     b"\x01" * 32, b"TC", b"TS")
    assert h != mutauth_hash(SCEP_PLUS, b"server-mutauth", base["r_s"],
                             base["r_w"], b"\x02" * 32, b"TC", b"TS")
    assert h != mutauth_hash(SCEP_PLUS, b"server-mutauth", base["r_s"],
                             base["r_w"], b"\x01" * 32, b"XX", b"TS")
    assert h != mutauth_hash(SCEP_PLUS, b"server-mutauth", base["r_s"],
                             base["r_w"], b"\x01" * 32, b"TC", b"YY")


def test_revoked_client_rejected():
    world = World()
    revs = pki.RevocationList()
    revs.revoke_sigma(world.s_chain.token.sigma)
    c_ch, s_ch = world.channels()
    client = world.client(SCEP)
    server = ScepServerSession(world.server_config(SCEP, revs))
    hello = client.hello(c_ch)
    with pytest.raises(Revoked):
        server.respond(channel_recv(s_ch, hello.data), s_ch, world.rng, NOW)


def test_bad_client_chain_rejected():
    world = World()
    other = World(seed=9)  # different root: chain will not validate here
    c_ch, s_ch = world.channels()
    client = ScepClientSession(SCEP, other.s_chain, other.s_key, world.i_root,
                               world.rng)
    server = ScepServerSession(world.server_config(SCEP))
    hello = client.hello(c_ch)
    with pytest.raises(BadClientChain):
        server.respond(channel_recv(s_ch, hello.data), s_ch, world.rng, NOW)
    # no cookie was issued: any finish after the rejected hello is refused
    finish = channel_send(c_ch, encode_finish(b"\x00" * 32, b"sig"))
    with pytest.raises(BadCookie, match="in state Failed"):
        server.verify(channel_recv(s_ch, finish.data))


def test_finish_after_a_rejected_finish_is_refused():
    # the server takes one finish per session: after a bad signature, the
    # client's valid finish finds the session failed
    world = World()
    c_ch, s_ch = world.channels()
    client = world.client(SCEP)
    server = ScepServerSession(world.server_config(SCEP))
    hello = client.hello(c_ch)
    respond = server.respond(channel_recv(s_ch, hello.data), s_ch, world.rng,
                             NOW)
    respond_plain = channel_recv(c_ch, respond.data)
    forged = channel_send(c_ch, encode_finish(server.omega, b"\x00" * 64))
    with pytest.raises(BadClientSig):
        server.verify(channel_recv(s_ch, forged.data))
    finish = client.finish(respond_plain, c_ch, NOW)
    with pytest.raises(BadCookie, match="in state Failed"):
        server.verify(channel_recv(s_ch, finish.data))


def test_server_token_must_match_channel_peer():
    # a chain for a different server relayed over this channel is rejected
    world = World()
    other_key = SigningKey.generate(world.rng)
    other_token = pki.issue_token(world.i_leaf, world.il_key,
                                  pki.TOKEN_KEYSERVER, pki.KeyserverPayload(2),
                                  pki.Identity("W2"), other_key.verify_key,
                                  START, END, world.rng)
    other_chain = pki.CertChain(path=world.i_path, token=other_token)
    cfg = ScepServerConfig(SCEP, other_chain, other_key, world.m_root,
                           pki.RevocationList())
    c_ch, s_ch = world.channels(server_name="W")  # client authenticated "W"
    client = world.client(SCEP)
    server = ScepServerSession(cfg)
    hello = client.hello(c_ch)
    respond = server.respond(channel_recv(s_ch, hello.data), s_ch, world.rng,
                             NOW)
    with pytest.raises(BadServerChain):
        client.finish(channel_recv(c_ch, respond.data), c_ch, NOW)


def test_variant_mismatch_fails_signature_checks():
    world = World()
    c_ch, s_ch = world.channels()
    client = world.client(SCEP_PLUS)
    server = ScepServerSession(world.server_config(SCEP))
    hello = client.hello(c_ch)
    respond = server.respond(channel_recv(s_ch, hello.data), s_ch, world.rng,
                             NOW)
    with pytest.raises(BadServerSig):
        client.finish(channel_recv(c_ch, respond.data), c_ch, NOW)


def test_wrong_cookie_in_finish():
    world = World()
    c_ch, s_ch = world.channels()
    client = world.client(SCEP)
    server = ScepServerSession(world.server_config(SCEP))
    hello = client.hello(c_ch)
    respond = server.respond(channel_recv(s_ch, hello.data), s_ch, world.rng,
                             NOW)
    channel_recv(c_ch, respond.data)
    bad = channel_send(c_ch, encode_finish(b"\x00" * 32, b"sig"))
    with pytest.raises(BadCookie):
        server.verify(channel_recv(s_ch, bad.data))


def test_scep_client_sig_is_server_independent():
    """The forwarding primitive: under SCEP the client's signature verifies
    for any server that shares (r_S, r_W); under SCEP+ it is bound to the
    server token and fails elsewhere."""
    world = World()
    client, server, _ = run_scep(world, SCEP)
    # reconstruct the signed hash as a DIFFERENT server would check it
    other_token_bytes = b"some other server token"
    h_any_server = mutauth_hash(SCEP, b"client-mutauth", client.r_s,
                                client.r_w, client.cookie,
                                world.s_chain.token.encode(),
                                other_token_bytes)
    sig = world.s_key.sign(
        mutauth_hash(SCEP, b"client-mutauth", client.r_s, client.r_w,
                     client.cookie, world.s_chain.token.encode(),
                     world.w_chain.token.encode()))
    assert world.s_key.verify_key.verify(h_any_server, sig)

    client_p, _, _ = run_scep(World(), SCEP_PLUS)
    w = World()
    sig_plus = w.s_key.sign(
        mutauth_hash(SCEP_PLUS, b"client-mutauth", client_p.r_s, client_p.r_w,
                     client_p.cookie, w.s_chain.token.encode(),
                     w.w_chain.token.encode()))
    h_other = mutauth_hash(SCEP_PLUS, b"client-mutauth", client_p.r_s,
                           client_p.r_w, client_p.cookie,
                           w.s_chain.token.encode(), other_token_bytes)
    assert not w.s_key.verify_key.verify(h_other, sig_plus)


def test_harvested_sig_accepted_by_scep_server():
    """A finish built from a signature harvested in a parallel same-nonce
    session authenticates under SCEP: the flaw in one assertion."""
    world = World()
    cfg = world.server_config(SCEP)
    c_ch, s_ch = world.channels()
    client = world.client(SCEP)
    server = ScepServerSession(cfg)
    hello = client.hello(c_ch)
    respond_plain_record = server.respond(channel_recv(s_ch, hello.data), s_ch,
                                          world.rng, NOW)
    # the adversary (in a parallel session with the same r_S, r_W) gets the
    # client to sign; here we play that client directly
    respond_plain = channel_recv(c_ch, respond_plain_record.data)
    finish = client.finish(respond_plain, c_ch, NOW)
    # replaying that finish verbatim is exactly what the server accepts
    auth = server.verify(channel_recv(s_ch, finish.data))
    assert auth.sigma == world.s_chain.token.sigma


# --- ledger ------------------------------------------------------------------


def test_ledger_worked_example():
    ledger = RateLimitLedger()
    t = 1_000_000
    sigma = b"\xaa" * 16
    assert rate_limit_check(ledger, sigma, 60, t, 100)
    assert rate_limit_check(ledger, sigma, 40, t + 3600, 100)       # total 100
    assert not rate_limit_check(ledger, sigma, 1, t + 7200, 100)    # would be 101
    assert rate_limit_check(ledger, sigma, 1, t + 25 * 3600, 100)   # 60 aged out
    # the 40-entry is still inside the inclusive window: total is 41
    assert ledger.window_total(sigma, t + 25 * 3600) == 41


def test_ledger_deny_consumes_nothing():
    ledger = RateLimitLedger()
    sigma = b"\xbb" * 16
    assert rate_limit_check(ledger, sigma, 90, 1000, 100)
    assert not rate_limit_check(ledger, sigma, 20, 1001, 100)
    assert rate_limit_check(ledger, sigma, 10, 1002, 100)


class _RescanOracle:
    """The ledger beside a full history of allowed requests, rescanned."""

    def __init__(self):
        self.ledger = RateLimitLedger()
        self.history = {}  # sigma -> [(ts, count)] of ALLOWED requests only

    def total(self, sigma, now):
        return sum(c for ts, c in self.history.get(sigma, [])
                   if ts >= now - WINDOW_SECONDS)

    def check(self, sigma, count, now, mu) -> bool:
        """One request; the decision and every window total must agree."""
        allow = self.total(sigma, now) + count <= mu
        assert rate_limit_check(self.ledger, sigma, count, now, mu) == allow
        if allow:
            self.history.setdefault(sigma, []).append((now, count))
        for s in self.history:
            assert self.ledger.window_total(s, now) == self.total(s, now)
        return allow


def test_ledger_against_rescan_oracle():
    """Randomized and edge-case histories match a full-history rescan."""
    rng = random.Random(99)
    window = WINDOW_SECONDS
    # 1000 single-sigma histories with gaps up to two windows
    for _ in range(1000):
        mu = rng.randrange(1, 50)
        oracle = _RescanOracle()
        now = rng.randrange(10 ** 6)
        sigma = rng.randbytes(4)
        for _ in range(rng.randrange(1, 12)):
            now += rng.randrange(0, 2 * window)
            oracle.check(sigma, rng.randrange(0, mu + 2), now, mu)

    # several sigmas interleaved, each with its own budget
    for _ in range(50):
        oracle = _RescanOracle()
        sigmas = [rng.randbytes(4) for _ in range(rng.randrange(2, 6))]
        budgets = {s: rng.randrange(1, 80) for s in sigmas}
        now = rng.randrange(10 ** 6)
        for _ in range(60):
            now += rng.randrange(0, window // 4)
            s = rng.choice(sigmas)
            oracle.check(s, rng.randrange(0, budgets[s] // 3 + 2), now,
                         budgets[s])

    # test-screen's shape: 240 allowed entries inside one window, then the
    # oldest age out one by one
    oracle = _RescanOracle()
    sigma = b"\x5c" * 16
    start = 10 ** 6
    for i in range(240):
        assert oracle.check(sigma, rng.randrange(1, 21), start + 60 * i,
                            10 ** 6)
    for i in range(240):
        oracle.check(sigma, 0, start + window + 60 * i + 1, 10 ** 6)
    assert oracle.ledger.window_total(sigma, start + window + 60 * 240) == 0

    # an entry exactly WINDOW_SECONDS old still counts; a zero count is an
    # entry too; a denied request changes no total
    oracle = _RescanOracle()
    sigma = b"\xed" * 16
    assert oracle.check(sigma, 7, 1000, 10)
    assert oracle.check(sigma, 0, 1000 + window // 2, 10)
    assert not oracle.check(sigma, 4, 1000 + window, 10)
    assert oracle.ledger.window_total(sigma, 1000 + window) == 7
    assert oracle.check(sigma, 10, 1000 + window + 1, 10)
    assert not oracle.check(sigma, 1, 1000 + window + 1, 10)
    assert oracle.ledger.window_total(sigma, 1000 + window + 1) == 10


# --- each role's store of decoded peer chains ----------------------------------
# A store hands back the chain it kept for the same bytes; every session
# still validates that chain in full, and only an accepted chain is kept.


def _hello_plain(chain_b: bytes) -> bytes:
    return wire.pack_fields(b"r" * NONCE_SIZE, chain_b)


def test_kept_server_chain_is_refused_once_expired():
    world = World()
    chains = pki.PeerChains()
    run_scep(world, SCEP, client=world.client(SCEP, peer_chains=chains))
    kept = chains.chains[world.w_chain.encode()]
    # the server answers inside its window, the client reads it past END
    c_ch, s_ch = world.channels()
    client = world.client(SCEP, peer_chains=chains)
    server = ScepServerSession(world.server_config(SCEP))
    respond = server.respond(channel_recv(s_ch, client.hello(c_ch).data),
                             s_ch, world.rng, NOW)
    with pytest.raises(BadServerChain, match="outside validity window"):
        client.finish(channel_recv(c_ch, respond.data), c_ch, END + 1)
    assert chains.chains == {world.w_chain.encode(): kept}


def test_kept_client_chain_is_refused_once_revoked():
    world = World()
    chains, revs = pki.PeerChains(), pki.RevocationList()
    cfg = world.server_config(SCEP, revs)
    _, first, _ = run_scep(world, SCEP, server_cfg=cfg, server_chains=chains)
    _, second, _ = run_scep(world, SCEP, server_cfg=cfg, server_chains=chains)
    assert second.client_chain is first.client_chain
    assert list(chains.chains) == [world.s_chain.encode()]
    revs.revoke_sigma(world.s_chain.token.sigma)
    with pytest.raises(Revoked):
        run_scep(world, SCEP, server_cfg=cfg, server_chains=chains)


def test_refused_client_chains_are_not_kept():
    world = World()
    revs = pki.RevocationList()
    revs.revoke_key(world.s_chain.path[1].subject_key)
    chain_b = world.s_chain.encode()
    refused = [
        (chain_b[:-1], DecodeError, world.server_config(SCEP)),
        (World(seed=9).s_chain.encode(), BadClientChain,
         world.server_config(SCEP)),
        (pki.CertChain(path=world.s_chain.path).encode(), BadClientChain,
         world.server_config(SCEP)),
        (chain_b, Revoked, world.server_config(SCEP, revs)),
    ]
    _, s_ch = world.channels()
    for blob, error, cfg in refused:
        chains = pki.PeerChains()
        with pytest.raises(error):
            ScepServerSession(cfg, chains).respond(_hello_plain(blob), s_ch,
                                                   world.rng, NOW)
        assert chains.chains == {}


def test_flipped_byte_is_decoded_afresh_and_refused_as_before():
    world = World()
    cfg = world.server_config(SCEP)
    chains = pki.PeerChains()
    run_scep(world, SCEP, server_cfg=cfg, server_chains=chains)
    kept = dict(chains.chains)
    chain_b = world.s_chain.encode()
    _, s_ch = world.channels()

    def refusal(blob, store):
        with pytest.raises(ScreeningError) as e:
            ScepServerSession(cfg, store).respond(_hello_plain(blob), s_ch,
                                                  world.rng, NOW)
        return type(e.value), str(e.value)

    for pos in range(0, len(chain_b), 7):
        blob = bytearray(chain_b)
        blob[pos] ^= 0x01
        blob = bytes(blob)
        assert refusal(blob, chains) == refusal(blob, pki.PeerChains())
    assert chains.chains == kept
