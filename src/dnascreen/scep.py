"""SCEP and SCEP+ mutual-authentication state machines plus the rate ledger.

Both variants run inside an established channel as three messages:

  1. client hello:   r_S || client token chain || opaque keyserver extras
  2. server respond: omega || r_W || server token chain || sig_server
  3. client finish:  omega || sig_client

Under SCEP the signed hashes cover ("server-mutauth", r_S, r_W, T_server)
and ("client-mutauth", r_S, r_W, T_client): the client's signature names
neither the cookie nor the server, so it can be replayed to any server
that saw the same nonces. SCEP+ widens both hashes to cover the cookie and
BOTH tokens, binding each signature to one specific session.

The variant is scenario configuration, never negotiated on the wire: peers
configured differently fail with BadServerSig / BadClientSig.
"""

from collections import deque
from dataclasses import dataclass, field

from . import terms, wire
from .channel import ChannelSession, channel_send
from .crypto import SigningKey
from .errors import (
    BadClientChain,
    BadClientSig,
    BadCookie,
    BadServerChain,
    BadServerSig,
    DecodeError,
    Revoked,
    ScreeningError,
)
from .pki import (
    TOKEN_SYNTHESIZER,
    CertChain,
    Certificate,
    PeerChains,
    RevocationList,
    validate_chain,
)
from .terms import Payload

SCEP = "scep"
SCEP_PLUS = "scep-plus"
VARIANTS = (SCEP, SCEP_PLUS)

NONCE_SIZE = 32
COOKIE_SIZE = 32

STATE_INIT = "Init"
STATE_HELLO_SENT = "HelloSent"
STATE_RESPONDED = "Responded"
STATE_FINISHED = "Finished"
STATE_FAILED = "Failed"


def mutauth_hash(variant: str, label: bytes, r_s: bytes, r_w: bytes,
                 omega: bytes, client_token: bytes, server_token: bytes) -> bytes:
    """The hash each side signs. SCEP covers only the signer's own leg."""
    if variant == SCEP:
        own = server_token if label == b"server-mutauth" else client_token
        return wire.digest_fields(label, r_s, r_w, own)
    if variant == SCEP_PLUS:
        return wire.digest_fields(label, r_s, r_w, omega, client_token,
                                  server_token)
    raise ValueError(f"unknown variant {variant!r}")


def encode_hello(r_s: bytes, chain: CertChain, extra: bytes = b"") -> Payload:
    chain_b = chain.encode()
    # explicit bytes: r_S goes out without a length prefix
    return Payload(r_s + wire.pack_fields(chain_b, extra),
                   terms.cat(terms.nonce(r_s), terms.blob(chain_b),
                             terms.blob(extra, "text")))


def decode_hello(plaintext: bytes, decode_chain=CertChain.decode
                 ) -> tuple[bytes, CertChain, bytes]:
    """(r_S, client chain, extra); ``decode_chain`` turns the chain's bytes
    into a chain, e.g. a role's ``PeerChains.decode``."""
    if len(plaintext) < NONCE_SIZE:
        raise DecodeError("hello shorter than its nonce")
    r_s = plaintext[:NONCE_SIZE]
    chain_b, extra = wire.expect_fields(plaintext[NONCE_SIZE:], 2)
    return r_s, decode_chain(chain_b), extra


def encode_respond(omega: bytes, r_w: bytes, chain: CertChain,
                   sig: bytes) -> Payload:
    return Payload.of(terms.cat(terms.Atom("cookie", omega), terms.nonce(r_w),
                                terms.blob(chain.encode()), terms.blob(sig)))


def decode_respond(plaintext: bytes, decode_chain=CertChain.decode
                   ) -> tuple[bytes, bytes, CertChain, bytes]:
    """(omega, r_W, server chain, signature), decoding as ``decode_hello``."""
    omega, r_w, chain_b, sig = wire.expect_fields(plaintext, 4)
    return omega, r_w, decode_chain(chain_b), sig


def encode_finish(omega: bytes, sig: bytes) -> Payload:
    return Payload.of(terms.cat(terms.Atom("cookie", omega), terms.blob(sig)))


def decode_finish(plaintext: bytes) -> tuple[bytes, bytes]:
    omega, sig = wire.expect_fields(plaintext, 2)
    return omega, sig


@dataclass
class Authenticated:
    """Successful server-side verification; binds the connection to (sigma, mu)."""

    sigma: bytes
    rate_limit: int
    client_name: str


class ScepClientSession:
    """Client side of one SCEP(+) run inside one channel.

    ``peer_chains`` is the client role's store of server chains; a session
    without one keeps the chain it accepts to itself.
    """

    def __init__(self, variant: str, chain: CertChain, signing_key: SigningKey,
                 trusted_infra_root: Certificate, rng,
                 revocations: RevocationList | None = None,
                 keyserver_extra: bytes = b"",
                 peer_chains: PeerChains | None = None):
        assert variant in VARIANTS
        self.variant = variant
        self.chain = chain
        self.signing_key = signing_key
        self.trusted_infra_root = trusted_infra_root
        self.revocations = revocations or RevocationList()
        self.keyserver_extra = keyserver_extra
        self.peer_chains = peer_chains or PeerChains()
        self.r_s = rng.randbytes(NONCE_SIZE)
        self.r_w = None
        self.cookie = None
        self.server_chain = None
        self.state = STATE_INIT

    def hello(self, channel: ChannelSession) -> Payload:
        payload = encode_hello(self.r_s, self.chain, self.keyserver_extra)
        self.state = STATE_HELLO_SENT
        return channel_send(channel, payload)

    def finish(self, response_plain: bytes, channel: ChannelSession,
               now: int) -> Payload:
        omega, r_w, server_chain, sig = decode_respond(
            response_plain, self.peer_chains.decode)
        try:
            validate_chain(server_chain, self.trusted_infra_root, now,
                           self.revocations)
        except ScreeningError as e:
            self.state = STATE_FAILED
            raise BadServerChain(f"server chain rejected: {e}") from None
        if server_chain.token is None:
            self.state = STATE_FAILED
            raise BadServerChain("server chain carries no token")
        self.peer_chains.keep(server_chain)
        # The presented token must belong to the channel peer the client
        # verified during the handshake; otherwise any certified server's
        # chain could be relayed.
        peer = channel.peer_server_identity
        if peer is not None and server_chain.token.subject_id.name != peer:
            self.state = STATE_FAILED
            raise BadServerChain(
                f"server token names {server_chain.token.subject_id.name!r} "
                f"but the channel authenticates {peer!r}")
        expected = mutauth_hash(self.variant, b"server-mutauth", self.r_s, r_w,
                                omega, self.chain.token.encode(),
                                server_chain.token.encode())
        if not server_chain.token.subject_key.verify(expected, sig):
            self.state = STATE_FAILED
            raise BadServerSig("server mutauth signature invalid")
        self.r_w = r_w
        self.cookie = omega
        self.server_chain = server_chain
        client_sig = self.signing_key.sign(
            mutauth_hash(self.variant, b"client-mutauth", self.r_s, r_w, omega,
                         self.chain.token.encode(), server_chain.token.encode()))
        self.state = STATE_FINISHED
        return channel_send(channel, encode_finish(omega, client_sig))

    def params(self) -> dict:
        """Session parameters for agreement bookkeeping."""
        return {
            "r_s": self.r_s,
            "r_w": self.r_w,
            "omega": self.cookie,
            "client_token": self.chain.token.encode(),
            "server_token": (self.server_chain.token.encode()
                             if self.server_chain else None),
        }


@dataclass
class ScepServerConfig:
    variant: str
    chain: CertChain
    signing_key: SigningKey
    trusted_manufacturer_root: Certificate
    revocations: RevocationList = field(default_factory=RevocationList)


class ScepServerSession:
    """Server side of one SCEP(+) run inside one connection.

    ``peer_chains`` is the server role's store of client chains, as for
    ``ScepClientSession``.
    """

    def __init__(self, config: ScepServerConfig,
                 peer_chains: PeerChains | None = None):
        self.config = config
        self.peer_chains = peer_chains or PeerChains()
        self.r_s = None
        self.r_w = None
        self.omega = None
        self.client_chain = None
        self.tokens = (None, None)  # (client, server) as verify hashed them
        self.state = STATE_INIT

    def respond(self, hello_plain: bytes, channel: ChannelSession, rng,
                now: int) -> Payload:
        r_s, client_chain, _extra = decode_hello(hello_plain,
                                                 self.peer_chains.decode)
        try:
            validate_chain(client_chain, self.config.trusted_manufacturer_root,
                           now, self.config.revocations)
        except Revoked:
            self.state = STATE_FAILED
            raise
        except ScreeningError as e:
            self.state = STATE_FAILED
            raise BadClientChain(f"client chain rejected: {e}") from None
        if client_chain.token is None:
            self.state = STATE_FAILED
            raise BadClientChain("client chain carries no token")
        self.peer_chains.keep(client_chain)
        self.r_s = r_s
        self.client_chain = client_chain
        self.r_w = rng.randbytes(NONCE_SIZE)
        # The cookie is issued exactly once per session.
        self.omega = rng.randbytes(COOKIE_SIZE)
        sig = self.config.signing_key.sign(
            mutauth_hash(self.config.variant, b"server-mutauth", r_s, self.r_w,
                         self.omega, client_chain.token.encode(),
                         self.config.chain.token.encode()))
        self.state = STATE_RESPONDED
        return channel_send(channel,
                            encode_respond(self.omega, self.r_w,
                                           self.config.chain, sig))

    def verify(self, finish_plain: bytes) -> Authenticated:
        if self.state != STATE_RESPONDED:
            raise BadCookie(f"finish received in state {self.state}")
        omega, sig = decode_finish(finish_plain)
        if omega != self.omega:
            self.state = STATE_FAILED
            raise BadCookie("cookie echo does not match")
        token = self.client_chain.token
        self.tokens = (token.encode(), self.config.chain.token.encode())
        expected = mutauth_hash(self.config.variant, b"client-mutauth",
                                self.r_s, self.r_w, self.omega, *self.tokens)
        if not token.subject_key.verify(expected, sig):
            self.state = STATE_FAILED
            raise BadClientSig("client mutauth signature invalid")
        self.state = STATE_FINISHED
        mu = (token.payload.rate_limit
              if token.token_type == TOKEN_SYNTHESIZER else 0)
        return Authenticated(sigma=token.sigma, rate_limit=mu,
                             client_name=token.subject_id.name)

    def params(self) -> dict:
        """Session parameters for agreement bookkeeping; the tokens are the
        encodings ``verify`` hashed."""
        client_token, server_token = self.tokens
        return {
            "r_s": self.r_s,
            "r_w": self.r_w,
            "omega": self.omega,
            "client_token": client_token,
            "server_token": server_token,
        }


# --- rate-limit ledger -----------------------------------------------------

WINDOW_SECONDS = 24 * 3600


class RateLimitLedger:
    """Per-sigma window of (timestamp, sequence_count), non-decreasing in time.

    Each sigma keeps a deque of its entries and a running total of their
    counts. ``window_total`` pops the entries that fell out of the sliding
    window from the left and subtracts them; ``record`` appends and adds. So
    a check costs the entries it prunes, not a rescan of the window. The
    brute-force oracle in the tests keeps the full history instead and must
    agree decision-for-decision.
    """

    def __init__(self):
        self.entries: dict[bytes, deque[tuple[int, int]]] = {}
        self.totals: dict[bytes, int] = {}

    def window_total(self, sigma: bytes, now: int) -> int:
        entries = self.entries.get(sigma)
        if not entries:
            return 0
        cutoff = now - WINDOW_SECONDS
        total = self.totals[sigma]
        while entries and entries[0][0] < cutoff:
            total -= entries.popleft()[1]
        self.totals[sigma] = total
        return total

    def record(self, sigma: bytes, now: int, count: int):
        entries = self.entries.setdefault(sigma, deque())
        if entries and now < entries[-1][0]:
            raise ValueError("ledger timestamps must be non-decreasing")
        entries.append((now, count))
        self.totals[sigma] = self.totals.get(sigma, 0) + count


def rate_limit_check(ledger: RateLimitLedger, sigma: bytes,
                     requested_count: int, now: int, mu: int) -> bool:
    """True (Allow) iff the 24h window total stays within mu; records on Allow.

    The window is boundary-inclusive at both ends and denied requests do not
    consume budget.
    """
    if ledger.window_total(sigma, now) + requested_count > mu:
        return False
    ledger.record(sigma, now, requested_count)
    return True
