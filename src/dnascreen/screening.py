"""Role state machines and the two end-to-end query protocols.

The synthesizer (customer and synthesizer merged into one role) blinds each
order sequence, has a threshold of keyservers apply their key shares, combines
and unblinds the results into keyed hashes, and asks the hashed database
whether each one is listed. That database is a plain dict from each
hazard's keyed hash to its (name, reason); it never holds a plaintext
sequence. The exemption flow adds the exemption list to the order's one
keyserver batch and ships its keyed hashes, the ELT chain and a one-time
device code to the database, which clears listed sequences the ELT covers.

Server roles are single-threaded state machines driven one connection at a
time by the simulator; the only cross-connection state is the rate ledger,
the resumption cache and the role's ``PeerChains``, the peer chains it has
decoded and accepted. Each connection still validates its peer's chain in
full.
"""

from dataclasses import dataclass

from . import terms, wire
from .channel import (
    ChannelSession,
    ServerHandshake,
    ServerTlsIdentity,
    channel_recv,
    channel_send,
    handshake_client,
    resume_session,
)
from .crypto import GroupBackend, Scalar, SigningKey, VerifyKey
from .doprf import (
    blind,
    combine,
    doprf_direct,
    eval_share,
    KeyShare,
    random_blinding,
    unblind,
)
from .errors import (
    AuthBackendRejected,
    BadCookie,
    BadEltChain,
    DecodeError,
    InvalidSequence,
    RateLimited,
    ResponseBindingMismatch,
    ScreeningError,
    UnknownDevice,
    raise_remote,
)
from .pki import (
    CertChain,
    Certificate,
    PeerChains,
    RevocationList,
    TOKEN_EXEMPTION,
    validate_chain,
)
from .scep import (
    Authenticated,
    RateLimitLedger,
    ScepClientSession,
    ScepServerConfig,
    ScepServerSession,
    rate_limit_check,
)
from .terms import Payload

GRANT = "grant"
DENY = "deny"

CLEAR = "clear"
HIT = "hit"
HIT_EXEMPT = "hit-exempt"

DEFAULT_MAX_SEQUENCE_LEN = 30
TOTP_WINDOW_SECONDS = 30

# bound once: every message shares its tag's atom and the label hashed for it
TAG_KS_EVAL = terms.blob(b"ks-eval", "text")
TAG_KS_EVAL_OK = terms.blob(b"ks-eval-ok", "text")
TAG_HDB_QUERY = terms.blob(b"hdb-query", "text")
TAG_AUTH_VERIFY = terms.blob(b"auth-verify", "text")
TAG_RESUME = terms.blob(b"resume", "text")
TAG_ERROR = terms.blob(b"error", "text")


def hashed_seq_label(seq: bytes) -> str:
    """Formal name of the hashed-to-group image of one sequence."""
    return f"M({seq.hex()})"


# --- hazard database -----------------------------------------------------------

def build_hdb(plaintext_hazards: list[tuple[bytes, str, str]],
              k: Scalar) -> dict[bytes, tuple[str, str]]:
    """{keyed hash: (name, reason)} of every plaintext hazard; a duplicate
    keeps its first entry."""
    db = {}
    for seq, name, reason in plaintext_hazards:
        db.setdefault(doprf_direct(seq, k).encode(), (name, reason))
    return db


# --- query messages ------------------------------------------------------------

@dataclass
class ExemptionPart:
    chain_bytes: bytes
    auth_code: str
    hashed_exempt: list  # element encodings


@dataclass
class QueryRequest:
    cookie: bytes
    hashed: list  # element encodings, in order-sequence order
    exemption: ExemptionPart | None = None

    @classmethod
    def decode(cls, plaintext: bytes) -> "QueryRequest":
        tag, cookie, hashed_b, ex_b = wire.expect_fields(plaintext, 4)
        if tag != b"hdb-query":
            raise DecodeError("not an hdb query")
        exemption = None
        if ex_b:
            chain_b, code, ex_hashed = wire.expect_fields(ex_b, 3)
            exemption = ExemptionPart(chain_b, wire.unpack_str(code),
                                      wire.unpack_fields(ex_hashed))
        return cls(cookie, wire.unpack_fields(hashed_b), exemption)


def encode_query_payload(req: QueryRequest) -> Payload:
    """A basic query's exemption field is ``terms.cat()``: an empty field."""
    ex = req.exemption
    ex_term = terms.cat() if ex is None else terms.cat(
        terms.blob(ex.chain_bytes), terms.blob(ex.auth_code.encode(), "text"),
        terms.cat(*map(terms.element_atom, ex.hashed_exempt)))
    return Payload.of(terms.cat(
        TAG_HDB_QUERY, terms.Atom("cookie", req.cookie),
        terms.cat(*map(terms.element_atom, req.hashed)), ex_term))


@dataclass(frozen=True)
class Verdict:
    flag: str  # clear | hit | hit-exempt
    hazard_name: str = ""
    reason: str = ""


@dataclass
class QueryResponse:
    verdicts: list
    overall: str  # grant | deny

    def encode_core(self) -> bytes:
        recs = [wire.pack_fields(wire.pack_str(v.flag),
                                 wire.pack_str(v.hazard_name),
                                 wire.pack_str(v.reason))
                for v in self.verdicts]
        return wire.pack_fields(b"hdb-resp", wire.pack_str(self.overall), *recs)

    @classmethod
    def decode_core(cls, core: bytes) -> "QueryResponse":
        fields_ = wire.unpack_fields(core)
        if not fields_ or fields_[0] != b"hdb-resp":
            raise DecodeError("not an hdb response")
        verdicts = []
        for rec in fields_[2:]:
            f, n, r = wire.expect_fields(rec, 3)
            verdicts.append(Verdict(wire.unpack_str(f), wire.unpack_str(n),
                                    wire.unpack_str(r)))
        return cls(verdicts, wire.unpack_str(fields_[1]))


def overall_of(verdicts: list) -> str:
    return GRANT if all(v.flag in (CLEAR, HIT_EXEMPT) for v in verdicts) else DENY


# --- database lookup --------------------------------------------------------------

def hdb_lookup(db: dict, request: QueryRequest, ledger: RateLimitLedger,
               now: int, *, expected_cookie: bytes, sigma: bytes, mu: int,
               exemption_root: Certificate | None = None,
               revocations: RevocationList | None = None,
               auth_check=None,
               peer_chains: PeerChains | None = None) -> QueryResponse:
    """Membership plus exemption flags for one authenticated request.

    ``auth_check(device_id, code, now) -> bool`` consults the authentication
    backend; it is required whenever an exemption part is present.
    ``peer_chains`` is the database role's store, which decodes the ELT
    chain and keeps it once accepted.
    """
    if request.cookie != expected_cookie:
        raise BadCookie("query cookie does not match this connection")
    if not rate_limit_check(ledger, sigma, len(request.hashed), now, mu):
        raise RateLimited(f"window budget exceeded for sigma {sigma.hex()}")

    exempt_set = set()
    if request.exemption is not None:
        try:
            if peer_chains is None:
                peer_chains = PeerChains()
            chain = peer_chains.decode(request.exemption.chain_bytes)
            if exemption_root is None:
                raise BadEltChain("no exemption root configured")
            validate_chain(chain, exemption_root, now,
                           revocations or RevocationList())
            if chain.token is None or chain.token.token_type != TOKEN_EXEMPTION:
                raise BadEltChain("chain does not carry an exemption token")
            peer_chains.keep(chain)
        except BadEltChain:
            raise
        except ScreeningError as e:
            raise BadEltChain(f"exemption chain rejected: {e}") from None
        if auth_check is None:
            raise AuthBackendRejected("no authentication backend reachable")
        device_id = chain.token.payload.device_id
        if not auth_check(device_id, request.exemption.auth_code, now):
            raise AuthBackendRejected(
                f"device {device_id!r} rejected the one-time code")
        exempt_set = set(request.exemption.hashed_exempt)
    return screen_hashed(db, request.hashed, exempt_set)


def oracle_query(order: list, k: Scalar, db: dict,
                 exempt_seqs: tuple = ()) -> QueryResponse:
    """No-network oracle: keyed-hash each sequence directly and scan the db."""
    return screen_hashed(db, [doprf_direct(s, k).encode() for s in order],
                         {doprf_direct(s, k).encode() for s in exempt_seqs})


def screen_hashed(db: dict, hashed: list, exempt: set) -> QueryResponse:
    """The verdict on each encoded keyed hash: clear, exempt hit, or hit."""
    verdicts = []
    for elt in hashed:
        meta = db.get(elt)
        if meta is None:
            verdicts.append(Verdict(CLEAR))
        elif elt in exempt:
            verdicts.append(Verdict(HIT_EXEMPT))
        else:
            verdicts.append(Verdict(HIT, meta[0], meta[1]))
    return QueryResponse(verdicts, overall_of(verdicts))


# --- authentication backend --------------------------------------------------------

def totp_code(device_secret: bytes, timestamp: int) -> str:
    """Six digits from the device secret and the 30-second window index."""
    window = timestamp // TOTP_WINDOW_SECONDS
    h = wire.digest_fields(b"totp", device_secret, wire.pack_u64(window))
    return str(int.from_bytes(h, "big") % 10 ** 6).zfill(6)


def auth_backend_verify(devices: dict, device_id: str, code: str,
                        timestamp: int) -> bool:
    """OK iff the code matches the device's current window. Single window only."""
    secret = devices.get(device_id)
    if secret is None:
        raise UnknownDevice(f"no authenticator registered as {device_id!r}")
    return code == totp_code(secret, timestamp)


# --- wire helpers shared by roles -----------------------------------------------------

def error_payload(err: Exception) -> Payload:
    return Payload.of(terms.cat(TAG_ERROR,
                                terms.blob(type(err).__name__.encode(), "text"),
                                terms.blob(str(err).encode(), "text")))


def _tag_payload(tag: bytes) -> Payload:
    """A message that is nothing but its tag: resume-ok, auth-reject, ..."""
    return Payload.of(terms.cat(terms.blob(tag, "text")))


def open_reply(channel: ChannelSession, frame: bytes) -> list:
    """Receive a record, raising remotely-reported errors locally."""
    return raise_error_record(wire.unpack_fields(channel_recv(channel, frame)))


def raise_error_record(fields_: list) -> list:
    """The fields of a record, unless it is an ``error`` record: raise that."""
    if fields_ and fields_[0] == b"error":
        if len(fields_) != 3:
            raise DecodeError("malformed error record")
        raise_remote(wire.unpack_str(fields_[1]), wire.unpack_str(fields_[2]))
    return fields_


@dataclass
class ServerLink:
    """An established connection to one server. It is SCEP-authenticated,
    except the database's link to the authentication backend (no ``scep``)."""

    conn: object
    channel: ChannelSession
    scep: ScepClientSession | None = None

    def request(self, payload: Payload) -> list:
        """Send one record and open its answer: the reply's fields."""
        return open_reply(self.channel,
                          self.conn.send(channel_send(self.channel, payload)))


# --- server plumbing ----------------------------------------------------------------

class ServerConnection:
    """One inbound connection: handshake flights, then SCEP, then requests."""

    def __init__(self, role):
        self.role = role
        self.hs = None
        self.channel = None
        self.scep = None
        self.auth: Authenticated | None = None

    def handle(self, data: bytes, inbound_term) -> Payload | None:
        if self.channel is None:
            return self._handshake_step(data)
        if isinstance(inbound_term, terms.Sealed):
            inbound_term = inbound_term.inner
        request = Payload(channel_recv(self.channel, data), inbound_term)
        try:
            if self.role.requires_scep and self.auth is None:
                return self._scep_step(request)
            return self._request(request)
        except ScreeningError as err:
            return channel_send(self.channel, error_payload(err))

    def _handshake_step(self, data: bytes) -> Payload:
        fields_ = wire.unpack_fields(data)
        tag = fields_[0] if fields_ else b""
        if tag == b"client-hello":
            self.hs = ServerHandshake(self.role.tls_identity, self.role.tls_key,
                                      self.role.backend, self.role.rng)
            return self.hs.receive_client_hello(data)
        if tag == b"resume":
            if len(fields_) != 2:
                raise DecodeError("malformed resume")
            # the cache fills only while the role allows resumption
            cached = self.role.session_cache.get(fields_[1])
            if cached is None:
                return _tag_payload(b"resume-reject")
            self.channel = resume_session(cached)
            reply = _tag_payload(b"resume-ok")
        elif tag == b"client-kex":
            if self.hs is None:
                raise DecodeError("client key exchange before client hello")
            reply = self.hs.receive_client_kex(data)
            self.channel = self.hs.session
            if self.role.resumption_allowed:
                self.role.session_cache[self.channel.session_id()] = self.channel
        else:
            raise DecodeError(f"unexpected handshake message {tag!r}")
        self.role.net.register_channel(self.role.name, self.channel)
        return reply

    def _scep_step(self, request: Payload) -> Payload | None:
        net = self.role.net
        if self.scep is None:
            self.scep = ScepServerSession(self.role.scep_config,
                                          self.role.peer_chains)
            reply = self.scep.respond(request.data, self.channel,
                                      self.role.rng, net.now())
            net.record_server_session(self.role.name, self.scep)
            return reply
        self.auth = self.scep.verify(request.data)
        net.record_server_authenticated(self.scep, self.auth)
        return None

    def _request(self, request: Payload) -> Payload:
        fields_ = wire.unpack_fields(request.data)
        tag = fields_[0] if fields_ else b""
        name = self.role.requests.get(tag)
        if name is None:
            raise DecodeError(f"no handler for request {tag!r}")
        reply = getattr(self.role, name)(self, request, fields_)
        return channel_send(self.channel, reply)


class ServerRole:
    """Shared shape of every network-facing server role.

    ``requests`` names the method that answers each request tag, called as
    ``method(conn, request, fields_)``; a corrupt role overrides it.
    """

    requires_scep = True
    requests: dict = {}

    def __init__(self, name: str, backend: GroupBackend,
                 tls_identity: ServerTlsIdentity, tls_key: SigningKey,
                 rng, resumption_allowed: bool = False):
        self.name = name
        self.backend = backend
        self.tls_identity = tls_identity
        self.tls_key = tls_key
        self.rng = rng
        self.resumption_allowed = resumption_allowed
        self.session_cache = {}
        self.peer_chains = PeerChains()
        self.net = None  # set at registration

    def open_connection(self) -> ServerConnection:
        return ServerConnection(self)

    def long_term_key_atoms(self) -> list:
        """Atoms exported to the adversary when this role is corrupted."""
        return [terms.key_atom(self.tls_key.encode())]


class KeyserverRole(ServerRole):
    """Applies its key share to blinded elements, subject to the rate ledger."""

    requests = {b"ks-eval": "_eval"}

    def __init__(self, name, backend, tls_identity, tls_key,
                 scep_config: ScepServerConfig, share: KeyShare, rng,
                 resumption_allowed=False):
        super().__init__(name, backend, tls_identity, tls_key, rng,
                         resumption_allowed)
        self.scep_config = scep_config
        self.share = share
        self.ledger = RateLimitLedger()

    def _eval(self, conn: ServerConnection, request: Payload,
              fields_: list) -> Payload:
        if len(fields_) < 2:
            raise DecodeError("malformed eval request")
        cookie = fields_[1]
        if cookie != conn.scep.omega:
            raise BadCookie("eval cookie does not match this connection")
        element_bytes = fields_[2:]
        now = self.net.now()
        if not rate_limit_check(self.ledger, conn.auth.sigma,
                                len(element_bytes), now,
                                conn.auth.rate_limit):
            raise RateLimited(
                f"window budget exceeded for sigma {conn.auth.sigma.hex()}")
        out_terms = []
        in_terms = _element_terms_of(request.term, len(element_bytes))
        for b, t in zip(element_bytes, in_terms):
            res = eval_share(self.share, self.backend.decode_element(b)).encode()
            out_terms.append(_extend_element_term(t, self.share.value, res))
        return Payload.of(terms.cat(TAG_KS_EVAL_OK, *out_terms))

    def long_term_key_atoms(self):
        return super().long_term_key_atoms() + [
            terms.key_atom(self.scep_config.signing_key.encode()),
            terms.scalar_atom(self.share.value.encode()),
        ]


def _element_terms_of(request_term, count: int) -> list:
    """Pull the element sub-terms out of an eval-request term, if present."""
    if isinstance(request_term, terms.Cat) and len(request_term.parts) >= 2:
        tail = request_term.parts[2:]
        if len(tail) == count:
            return list(tail)
    return [None] * count


def _extend_element_term(inbound, share_scalar: Scalar, result_bytes: bytes):
    label = terms.atom_label("scalar", share_scalar.encode())
    if isinstance(inbound, terms.ExpTerm):
        factors = tuple(sorted(inbound.factors + ((label, 1),)))
        return terms.ExpTerm(inbound.base, factors, result_bytes)
    if isinstance(inbound, terms.Atom) and inbound.kind == "element":
        return terms.ExpTerm(inbound, ((label, 1),), result_bytes)
    return terms.element_atom(result_bytes)


class HashedDbRole(ServerRole):
    """Holds the keyed-hash database; answers membership and exemption queries."""

    requests = {b"hdb-query": "_query"}

    def __init__(self, name, backend, tls_identity, tls_key,
                 scep_config: ScepServerConfig, db: dict, rng, *,
                 exemption_root: Certificate, auth_backend_name: str,
                 channel_ca_key: VerifyKey, bind_responses: bool,
                 resumption_allowed: bool,
                 elt_revocations: RevocationList | None = None):
        super().__init__(name, backend, tls_identity, tls_key, rng,
                         resumption_allowed)
        self.scep_config = scep_config
        self.db = db
        self.exemption_root = exemption_root
        self.elt_revocations = elt_revocations or RevocationList()
        self.auth_backend_name = auth_backend_name
        self.channel_ca_key = channel_ca_key
        self.bind_responses = bind_responses
        self.ledger = RateLimitLedger()

    def _auth_check(self, device_id: str, code: str, now: int) -> bool:
        """One backend round-trip per request; results are never cached."""
        conn = self.net.dial(self.name, self.auth_backend_name)
        session = handshake_client(conn.send, self.auth_backend_name,
                                   self.channel_ca_key, self.backend, self.rng)
        self.net.register_channel(self.name, session)
        req = terms.cat(TAG_AUTH_VERIFY,
                        terms.blob(wire.pack_str(device_id), "text"),
                        terms.Atom("code", wire.pack_str(code)),
                        terms.blob(wire.pack_u64(now), "text"))
        reply = ServerLink(conn, session).request(Payload.of(req))
        return reply == [b"auth-ok"]

    def _query(self, conn: ServerConnection, request: Payload,
               fields_: list) -> Payload:
        response = hdb_lookup(
            self.db, QueryRequest.decode(request.data), self.ledger,
            self.net.now(), expected_cookie=conn.scep.omega,
            sigma=conn.auth.sigma, mu=conn.auth.rate_limit,
            exemption_root=self.exemption_root,
            revocations=self.elt_revocations, auth_check=self._auth_check,
            peer_chains=self.peer_chains)
        core = response.encode_core()
        sig = b""
        if self.bind_responses:
            sig = self.scep_config.signing_key.sign(wire.digest_fields(
                b"response-binding", request.data, core))
        return Payload.of(terms.cat(terms.blob(core), terms.blob(sig)))

    def long_term_key_atoms(self):
        return super().long_term_key_atoms() + [
            terms.key_atom(self.scep_config.signing_key.encode()),
        ]


class AuthBackendRole(ServerRole):
    """Verifies one-time device codes; reachable over its own channel."""

    requires_scep = False
    requests = {b"auth-verify": "_verify"}

    def __init__(self, name, backend, tls_identity, tls_key, devices: dict,
                 rng):
        super().__init__(name, backend, tls_identity, tls_key, rng)
        self.devices = devices

    def _verify(self, conn: ServerConnection, request: Payload,
                fields_: list) -> Payload:
        if len(fields_) != 4:
            raise DecodeError("malformed auth-verify")
        _, dev, code, ts = fields_
        ok = auth_backend_verify(self.devices, wire.unpack_str(dev),
                                 wire.unpack_str(code), wire.unpack_u64(ts))
        return _tag_payload(b"auth-ok" if ok else b"auth-reject")


# --- synthesizer ---------------------------------------------------------------------

@dataclass
class SynthesizerConfig:
    scep_variant: str
    keyservers: list  # the first `threshold` listed are dialled; no failover
    hdb: str
    threshold: int
    bind_responses: bool = False
    resumption: bool = False


class SynthesizerRole:
    """Client role driving the basic and exemption-handling protocols."""

    def __init__(self, name: str, backend: GroupBackend, chain: CertChain,
                 signing_key: SigningKey, trusted_infra_root: Certificate,
                 channel_ca_key: VerifyKey, config: SynthesizerConfig, rng):
        self.name = name
        self.backend = backend
        self.chain = chain
        self.signing_key = signing_key
        self.trusted_infra_root = trusted_infra_root
        self.channel_ca_key = channel_ca_key
        self.config = config
        self.rng = rng
        self.net = None
        self._hdb_session: ChannelSession | None = None
        self.peer_chains = PeerChains()
        # infrastructure tokens this synthesizer refuses (keyservers, H)
        self.revocations = RevocationList()

    # -- connection management --

    def _connect(self, server: str, try_resume: bool = False) -> ServerLink:
        net = self.net
        conn = net.dial(self.name, server)
        session = None
        if try_resume and self._hdb_session is not None:
            if self.config.resumption:
                resumed = resume_session(self._hdb_session)
                reply = conn.send(Payload.of(terms.cat(
                    TAG_RESUME,
                    terms.blob(self._hdb_session.session_id()))))
                if wire.unpack_fields(reply) == [b"resume-ok"]:
                    session = resumed
                    net.note(f"resumed channel to {server}")
            else:
                # a full handshake follows; the note's text is transcript
                # content and must not change
                net.note("resumption attempt failed: ResumptionDisabled")
        if session is None:
            session = handshake_client(conn.send, server, self.channel_ca_key,
                                       self.backend, self.rng)
        scep_session = ScepClientSession(
            self.config.scep_variant, self.chain, self.signing_key,
            self.trusted_infra_root, self.rng, revocations=self.revocations,
            peer_chains=self.peer_chains)
        # a server that rejects the hello answers with an error record
        respond = channel_recv(session, conn.send(scep_session.hello(session)))
        raise_error_record(wire.unpack_fields(respond))
        finish = scep_session.finish(respond, session, net.now())
        result = conn.send(finish)
        if result is not None:
            open_reply(session, result)  # only error records come back here
        net.record_client_session(self.name, server, scep_session)
        if server == self.config.hdb:
            self._hdb_session = session
        return ServerLink(conn, session, scep_session)

    def _keyserver_round(self, links: list, blinded: list) -> list:
        """One eval round against every linked keyserver; returns keyed hashes."""
        responses_by_ks = []
        for link in links:
            reply = link.request(Payload.of(terms.cat(
                TAG_KS_EVAL, terms.Atom("cookie", link.scep.cookie), *blinded)))
            if len(reply) != len(blinded) + 1 or reply[0] != b"ks-eval-ok":
                raise DecodeError("unexpected keyserver reply")
            index = link.scep.server_chain.token.payload.share_index
            responses_by_ks.append((index, reply[1:]))
        return responses_by_ks

    def _assemble(self, responses_by_ks: list, count: int, beta) -> list:
        keyed = []
        for j in range(count):
            parts = [(idx, self.backend.decode_element(vals[j]))
                     for idx, vals in responses_by_ks]
            keyed.append(unblind(combine(parts, self.config.threshold),
                                 beta).encode())
        return keyed

    def _blind_batch(self, sequences: list, beta) -> list:
        """Blinded-element terms; each one's bytes are its ``data``."""
        beta_label = terms.atom_label("scalar", beta.encode())
        bterms = []
        for s in sequences:
            h = self.backend.hash_to_group(s)
            # provenance-labelled base atom: the closure judges element
            # secrets by formal identity, not by value collisions in the
            # tiny test group
            base = terms.Atom("element", h.encode(), label=hashed_seq_label(s))
            bterms.append(terms.ExpTerm(base, ((beta_label, 1),),
                                        blind(h, beta).encode()))
        return bterms

    def _check_order(self, order: list):
        for s in order:
            if not s or len(s) > DEFAULT_MAX_SEQUENCE_LEN:
                raise InvalidSequence(
                    f"sequence length {len(s)} outside (0, "
                    f"{DEFAULT_MAX_SEQUENCE_LEN}]")

    def _hdb_round(self, link: ServerLink, request: QueryRequest
                   ) -> QueryResponse:
        payload = encode_query_payload(request)
        reply = link.request(payload)
        if len(reply) != 2:
            raise DecodeError("database response is not (core, signature)")
        core, sig = reply
        if self.config.bind_responses:
            expected = wire.digest_fields(b"response-binding", payload.data,
                                          core)
            server_key = link.scep.server_chain.token.subject_key
            if not sig or not server_key.verify(expected, sig):
                raise ResponseBindingMismatch(
                    "response is not bound to this query")
        return QueryResponse.decode_core(core)

    # -- the two protocols --

    def basic_query(self, order: list, resume_hdb: bool = False
                    ) -> QueryResponse:
        return self._query(order, None, "", resume_hdb)

    def exemption_query(self, order: list, elt_chain: CertChain,
                        auth_code: str, resume_hdb: bool = False
                        ) -> QueryResponse:
        return self._query(order, elt_chain, auth_code, resume_hdb)

    def _query(self, order: list, elt_chain: CertChain | None,
               auth_code: str, resume_hdb: bool) -> QueryResponse:
        """Screen an order; an ELT chain's list joins its keyserver batch."""
        self._check_order(order)
        exempt = [] if elt_chain is None else elt_chain.token.payload.sequences
        beta = random_blinding(self.backend, self.rng)
        bterms = self._blind_batch([*order, *exempt], beta)
        links = [self._connect(n)
                 for n in self.config.keyservers[: self.config.threshold]]
        keyed = self._assemble(self._keyserver_round(links, bterms),
                               len(bterms), beta)
        hdb = self._connect(self.config.hdb, try_resume=resume_hdb)
        n = len(order)
        exemption = None if elt_chain is None else ExemptionPart(
            elt_chain.encode(), auth_code, keyed[n:])
        return self._hdb_round(hdb, QueryRequest(hdb.scep.cookie, keyed[:n],
                                                 exemption))
