"""World building, the line-oriented scenario script, and honest scenarios.

A world is one synthesizer S, keyservers K1..Kn, the hashed database H, and
the authentication backend A, wired up with fresh hierarchies, a shared
DOPRF key split (t, n), and a deterministic clock. Scenario scripts drive
queries and adversary actions. Every run ends with one check pass (oracle
agreement of each query, order and cookie secrecy, injective agreement,
rate-limit attribution and, without resumption, record-slot uniqueness); a
scenario names the checks it predicts to be violated, and ships its
transcript.

A finished run keeps its world, and with it the network's transcript of
events; ``ScenarioResult.transcript_text`` renders that transcript each time
it is read, so a run that nobody prints never holds its text.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace

from . import closure, pki
from .crypto import SigningKey, get_backend
from .channel import issue_tls_identity
from .doprf import share_key
from .errors import ScreeningError, ScriptError
from .scep import SCEP, VARIANTS, ScepServerConfig
from .screening import (
    AuthBackendRole,
    HashedDbRole,
    KeyserverRole,
    QueryResponse,
    SynthesizerConfig,
    SynthesizerRole,
    build_hdb,
    hashed_seq_label,
    oracle_query,
    totp_code,
)
from .simnet import Selector, SimNetwork, TapRule

VALIDITY_YEARS = 10

DEFAULT_HAZARDS = [
    (b"TTGACGGCTAGCTCAGTCCTAGGTACAGTG", "toxin-alpha",
     "encodes a potent cytotoxin subunit"),
    (b"GGTCTATATAATCCTAGCTCAGTCGGTAGA", "agent-k12",
     "capsid fragment of a restricted agent"),
    (b"CACCATACGGAAACCTTCGGGTTCCATGCC", "neuro-gamma",
     "neurotoxic peptide precursor"),
]

CLEAN_SEQUENCES = [
    b"ATGGCGATTGCAATCGGCACTGGCTGGTCC",
    b"CGGAATTCGCGGCCGCTTCTAGAGGGCCCA",
    b"GCTTGGATCCTCTGCAGAAGCTTGAGCTCG",
]


@dataclass
class ScenarioConfig:
    backend_name: str = "test"
    scep_variant: str = SCEP
    resumption: bool = False
    bind_responses: bool = False
    rate_limit: int = 100
    threshold: int = 2
    n_keyservers: int = 3
    hazards: list = field(default_factory=lambda: list(DEFAULT_HAZARDS))
    elt_sequences: tuple = ()
    corrupt: dict = field(default_factory=dict)  # role name -> strategy name

    def validate(self):
        if self.scep_variant not in VARIANTS:
            raise ScriptError(f"unknown SCEP variant {self.scep_variant!r}")
        if not 1 <= self.threshold <= self.n_keyservers:
            raise ScriptError("threshold must be within the keyserver count")
        if not 0 <= self.rate_limit <= pki.U64_MAX:
            raise ScriptError("rate limit must fit in 64 bits")


@dataclass
class Assertion:
    id: str
    passed: bool  # the check held
    evidence: str = ""
    expected: bool = True  # False where the scenario predicts a violation


@dataclass
class ScenarioOutcome:
    name: str
    assertions: list
    token: str = ""

    @property
    def ok(self) -> bool:
        """Every check came out as the scenario predicted."""
        return all(a.passed == a.expected for a in self.assertions)

    def violated(self, prefix: str) -> bool:
        """Whether a check whose id starts with ``prefix`` was violated."""
        return any(not a.passed and a.id.startswith(prefix)
                   for a in self.assertions)

    def render(self) -> str:
        lines = [f"scenario: {self.name}"]
        for a in self.assertions:
            mark = (("PASS" if a.passed else "FAIL") if a.expected
                    else ("XPASS" if a.passed else "XFAIL"))
            lines.append(f"  [{mark}] {a.id}" +
                         (f" :: {a.evidence}" if a.evidence else ""))
        return "\n".join(lines)


@dataclass
class ScenarioResult:
    name: str
    world: "World"
    outcome: ScenarioOutcome
    # what each script query got, in order: a QueryResponse or the
    # ScreeningError it raised
    replies: list = field(default_factory=list)

    @property
    def transcript_text(self) -> str:
        """The world's transcript, rendered afresh on each read."""
        return self.world.net.transcript.render()


class World:
    """All the roles plus the out-of-band facts the oracles need."""

    def __init__(self, config: ScenarioConfig, net: SimNetwork):
        self.config = config
        self.net = net
        self.backend = get_backend(config.backend_name)
        rng = net.rng
        end = net.clock + VALIDITY_YEARS * 365 * 86400
        start = net.clock - 3600

        # Channel CA and TLS identities for every server role.
        self.channel_ca = SigningKey.generate(rng)
        ca_pub = self.channel_ca.verify_key

        # Manufacturer hierarchy: the synthesizer mints its own token.
        # Infrastructure: keyservers and the database. Exemption: the ELT,
        # which belongs to customer C1.
        self.m_root, self.m_path, self.m_leaf_key = _hierarchy(
            pki.MANUFACTURER, "M", rng, start, end)
        self.i_root, self.i_path, self.i_leaf_key = _hierarchy(
            pki.INFRASTRUCTURE, "I", rng, start, end)
        self.e_root, self.e_path, self.e_leaf_key = _hierarchy(
            pki.EXEMPTION, "E", rng, start, end)

        self.device_id = "authdev-C1"
        self.device_secret = rng.randbytes(16)
        self.elt_chain = None
        self.elt_subtoken_key = None
        if config.elt_sequences:
            self.elt_subtoken_key = SigningKey.generate(rng)
            elt = pki.issue_token(
                self.e_path[0], self.e_leaf_key, pki.TOKEN_EXEMPTION,
                pki.ExemptionPayload(tuple(config.elt_sequences),
                                     self.device_id,
                                     self.elt_subtoken_key.verify_key),
                pki.Identity("C1", "customer@lab"),
                SigningKey.generate(rng).verify_key, start, end, rng)
            self.elt_chain = pki.CertChain(path=self.e_path, token=elt)

        # One shared DOPRF key; k=1 would put M(s) itself on the wire.
        self.k = self.backend.scalar(
            rng.randrange(2, self.backend.q))
        shares = share_key(self.k, config.n_keyservers, config.threshold, rng)
        self.db = build_hdb(config.hazards, self.k)
        self.hazard_map = {seq: (name, reason)
                           for seq, name, reason in config.hazards}

        def infrastructure(name: str, token_type: str, payload) -> tuple:
            """(TLS identity, its static key, SCEP config) of one server."""
            ident, static = issue_tls_identity(self.channel_ca, name, rng)
            key = SigningKey.generate(rng)
            token = pki.issue_token(
                self.i_path[0], self.i_leaf_key, token_type, payload,
                pki.Identity(name), key.verify_key, start, end, rng)
            return ident, static, ScepServerConfig(
                variant=config.scep_variant,
                chain=pki.CertChain(path=self.i_path, token=token),
                signing_key=key, trusted_manufacturer_root=self.m_root)

        # Keyserver roles, then the hashed database role.
        self.keyserver_names = [f"K{i + 1}" for i in range(config.n_keyservers)]
        self.keyservers = {
            name: KeyserverRole(
                name, self.backend,
                *infrastructure(name, pki.TOKEN_KEYSERVER,
                                pki.KeyserverPayload(share.index)),
                share, rng, resumption_allowed=config.resumption)
            for name, share in zip(self.keyserver_names, shares)}
        self.hdb = HashedDbRole(
            "H", self.backend,
            *infrastructure("H", pki.TOKEN_DATABASE, pki.DatabasePayload()),
            self.db, rng, exemption_root=self.e_root,
            auth_backend_name="A", channel_ca_key=ca_pub,
            bind_responses=config.bind_responses,
            resumption_allowed=config.resumption)

        # Authentication backend.
        ident, static = issue_tls_identity(self.channel_ca, "A", rng)
        self.auth = AuthBackendRole("A", self.backend, ident, static,
                                    {self.device_id: self.device_secret}, rng)

        # The synthesizer role.
        self.synthesizers = {}
        self.synth = self.add_synthesizer("S", config.rate_limit)

        for role in [*self.keyservers.values(), self.hdb, self.auth]:
            net.register_role(role)

    def add_synthesizer(self, name: str, rate_limit: int,
                        forced_sigma: bytes | None = None) -> SynthesizerRole:
        rng = self.net.rng
        end = self.net.clock + VALIDITY_YEARS * 365 * 86400
        key = SigningKey.generate(rng)
        token_rng = (_ForcedSigmaRng(rng, forced_sigma)
                     if forced_sigma is not None else rng)
        token = pki.issue_token(
            self.m_path[0], self.m_leaf_key, pki.TOKEN_SYNTHESIZER,
            pki.SynthesizerPayload(name, rate_limit), pki.Identity(name),
            key.verify_key, self.net.clock - 3600, end, token_rng)
        cfg = SynthesizerConfig(
            scep_variant=self.config.scep_variant,
            keyservers=list(self.keyserver_names), hdb="H",
            threshold=self.config.threshold,
            bind_responses=self.config.bind_responses,
            resumption=self.config.resumption)
        role = SynthesizerRole(name, self.backend,
                               pki.CertChain(path=self.m_path, token=token),
                               key, self.i_root, self.channel_ca.verify_key,
                               cfg, rng)
        role.net = self.net
        self.synthesizers[name] = role
        return role

    # -- conveniences for scenarios --

    def fresh_code(self) -> str:
        return totp_code(self.device_secret, self.net.now())

    def stale_code(self) -> str:
        return totp_code(self.device_secret, self.net.now() - 30)

    def oracle(self, order: list, exempt: tuple = ()) -> QueryResponse:
        return oracle_query(order, self.k, self.db, exempt)

    def register_order_secrets(self, order: list):
        for s in order:
            self.net.add_secret(f"s:{s.hex()[:16]}", data=s)
            self.net.add_secret(f"M(s):{s.hex()[:16]}",
                                label=hashed_seq_label(s))


def _hierarchy(kind: str, prefix: str, rng, start: int, end: int) -> tuple:
    """(root, path from leaf to root, leaf key) of a fresh three-level PKI."""
    root, root_key = pki.create_root(
        kind, pki.Identity("F", "root@screening"), rng, start, end)
    inter_key = SigningKey.generate(rng)
    inter = pki.issue_certificate(
        root, root_key, pki.Identity(f"{prefix}-intermediate"),
        inter_key.verify_key, pki.INTERMEDIATE, start, end, rng)
    leaf_key = SigningKey.generate(rng)
    leaf = pki.issue_certificate(
        inter, inter_key, pki.Identity(f"{prefix}-leaf"),
        leaf_key.verify_key, pki.LEAF, start, end, rng)
    return root, (leaf, inter, root), leaf_key


class _ForcedSigmaRng:
    """Feeds one chosen token identifier, then defers to the real rng."""

    def __init__(self, inner, sigma: bytes):
        self.inner = inner
        self.sigma = sigma
        self.used = False

    def randbytes(self, n: int) -> bytes:
        if n == pki.SIGMA_SIZE and not self.used:
            self.used = True
            return self.sigma
        return self.inner.randbytes(n)


def build_world(config: ScenarioConfig, seed: int) -> World:
    """A fresh world, with the roles named in ``config.corrupt`` corrupted."""
    config.validate()
    world = World(config, SimNetwork(seed))
    if config.corrupt:
        # the strategies live with the attack scripts, which import this
        from .attacks import apply_corruption
        apply_corruption(world)
    return world


# --- the check pass ----------------------------------------------------------

def secrecy_assertions(world: World) -> list:
    """Order secrecy, and cookie secrecy of authenticated sessions.

    The cookies under test are those of honest-server sessions that reached
    Authenticated: a cookie of a failed session protects nothing.
    """
    net = world.net
    out = []
    kn = closure.build_knowledge(net, world.backend)
    results = closure.probe(kn, net.secrets)
    bad = [r for r in results if r.leaked]
    out.append(Assertion(
        "order-secrecy", not bad,
        "; ".join(f"{r.name} leaked via {r.evidence}" for r in bad)
        or f"{len(results)} order secrets stay out of the closure"))

    cookie_secrets = [
        {"name": f"omega:{entry['server']}:{i}",
         "data": entry["session"].omega, "label": ""}
        for i, entry in net.honest_authenticated_sessions()]
    if cookie_secrets:
        results = closure.probe(kn, cookie_secrets)
        leaked = [r for r in results if r.leaked]
        out.append(Assertion(
            "cookie-secrecy", not leaked,
            "; ".join(f"{r.name}: " + r.evidence.replace("\n", " | ")
                      for r in leaked)
            or f"{len(results)} cookies stay out of the closure"))
    return out


def _client_session_index(net: SimNetwork) -> Counter:
    """Client sessions counted by (server, client, what they agreed on)."""
    return Counter((c["server"], c["client"], c["agreed"])
                   for c in net.client_sessions)


def _agreement_key(entry: dict, client: str) -> tuple:
    """The index key a client session agreeing with ``entry`` would have."""
    return (entry["server"], client, entry["agreed"])


def agreement_assertions(world: World) -> list:
    """Injective agreement at every honest server.

    Each authenticated session there needs exactly one client session that
    agrees on (client, server, r_S, r_W, omega) and both tokens.
    """
    net = world.net
    index = _client_session_index(net)
    out = []
    for i, entry in net.honest_authenticated_sessions():
        n = index[_agreement_key(entry, entry["auth"].client_name)]
        out.append(Assertion(
            f"agreement:{entry['server']}:{i}", n == 1,
            f"{n} honest client sessions share these parameters"))
    return out


def attribution_assertion(world: World) -> Assertion:
    """Rate-limit attribution: every debit under sigma is its holder's.

    Each session an honest server authenticated under sigma must agree with
    a client session of sigma's one holder among the world's synthesizers.
    """
    holders = defaultdict(list)
    for name, synth in world.synthesizers.items():
        holders[synth.chain.token.sigma].append(name)
    index = _client_session_index(world.net)
    checked, bad = 0, []
    for i, entry in world.net.honest_authenticated_sessions():
        checked += 1
        owners = holders[entry["auth"].sigma]
        if len(owners) != 1 or not index[_agreement_key(entry, owners[0])]:
            bad.append(f"{entry['server']}:{i} (holders of its sigma: "
                       f"{', '.join(owners) or 'none'})")
    return Assertion(
        "rate-limit-attribution", not bad,
        f"{len(bad)} of {checked} sessions do not agree with their sigma's "
        f"one holder, first {bad[0]}" if bad
        else f"{checked} sessions each agree with their sigma's one holder")


def key_slot_uniqueness_assertion(world: World) -> Assertion:
    """With resumption off, no two records share (write key, direction, seq)."""
    slots = world.net.record_key_slots()
    dupes = {s for s, n in Counter(slots).items() if n > 1}
    return Assertion(
        "record-slot-uniqueness", not dupes,
        f"duplicated slots: {sorted(dupes)}" if dupes
        else f"{len(slots)} records each own a unique (key, dir, seq) slot")


# --- the scenario script -------------------------------------------------------

def parse_script(text: str) -> list:
    commands = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        commands.append((lineno, parts))
    return commands


def _parse_order(spec: str) -> list:
    try:
        return [bytes.fromhex(h) for h in spec.split(",") if h]
    except ValueError as e:
        raise ScriptError(f"bad sequence hex: {e}") from None


def run_scenario(config: ScenarioConfig, script: str, seed: int,
                 name: str = "scripted", violated: tuple = ()
                 ) -> ScenarioResult:
    """Parse and execute a line-oriented scenario script deterministically.

    The run ends with the check pass. ``violated`` names the checks the
    scenario predicts to be violated; ``outcome.ok`` means that every check
    came out as predicted.
    """
    commands = parse_script(script)

    # corruption must be known before the world is built
    config = replace(config, corrupt=dict(config.corrupt))
    for lineno, parts in commands:
        if parts[0] == "corrupt":
            if len(parts) < 2:
                raise ScriptError(f"line {lineno}: corrupt needs a role")
            config.corrupt[parts[1]] = parts[2] if len(parts) > 2 else "leaky"

    world = build_world(config, seed)
    assertions = []
    replies = []
    resume_next = set()
    query_no = 0

    for lineno, parts in commands:
        cmd, args = parts[0], parts[1:]
        try:
            if cmd in ("corrupt", "deliver"):
                continue  # corrupt: done in the pre-pass; deliver: the default
            elif cmd == "advance-clock":
                world.net.advance_clock(int(args[0]))
            elif cmd == "drop":
                world.net.add_tap(TapRule(Selector.parse(args[0]), "drop"))
            elif cmd == "swap":
                a, b = args
                world.net.add_tap(TapRule(Selector.parse(a), "capture",
                                          name=f"swap@{a}"))
                world.net.add_tap(TapRule(Selector.parse(b), "replace",
                                          name=f"swap@{a}"))
            elif cmd == "replace":
                world.net.add_tap(TapRule(Selector.parse(args[0]),
                                          "replace-hex",
                                          data=bytes.fromhex(args[1])))
            elif cmd == "inject":
                world.net.inject(args[0], bytes.fromhex(args[1]))
            elif cmd == "resume-next":
                resume_next.add(args[0])
            elif cmd == "add-synth":
                if args[0] in world.synthesizers or args[0] in world.net.roles:
                    raise ScriptError(f"name {args[0]!r} is already in use")
                if args[1:] not in ([], ["forced"]):
                    raise ScriptError("add-synth takes NAME [forced]")
                # forced: the new token reuses S's identifier sigma
                sigma = world.synth.chain.token.sigma if args[1:] else None
                world.add_synthesizer(args[0], config.rate_limit,
                                      forced_sigma=sigma)
            elif cmd == "replay-code":
                if config.corrupt.get(args[0]) != "leaky":
                    raise ScriptError(f"{args[0]!r} is not a leaky database")
                world.net.roles[args[0]].replay_stolen_code()
            elif cmd in ("query", "query-exempt"):
                synth = world.synthesizers.get(args[0])
                if synth is None:
                    raise ScriptError(f"undeclared role {args[0]!r}")
                order = _parse_order(args[1])
                world.register_order_secrets(order)
                resume = args[0] in resume_next
                resume_next.discard(args[0])
                query_no += 1
                qid = f"query-{query_no}"
                if cmd == "query":
                    expected = world.oracle(order)
                    runner = lambda: synth.basic_query(order,
                                                       resume_hdb=resume)
                else:
                    if world.elt_chain is None:
                        raise ScriptError("no exemption token configured")
                    code_arg = args[2] if len(args) > 2 else "code=fresh"
                    code = code_arg.split("=", 1)[1]
                    code = (world.fresh_code() if code == "fresh"
                            else world.stale_code() if code == "stale"
                            else code)
                    expected = world.oracle(order,
                                            tuple(config.elt_sequences))
                    runner = lambda: synth.exemption_query(
                        order, world.elt_chain, code, resume_hdb=resume)
                try:
                    got = runner()
                    replies.append(got)
                    assertions.append(Assertion(
                        f"{qid}-matches-oracle",
                        got.overall == expected.overall
                        and got.verdicts == expected.verdicts,
                        f"got {got.overall}, oracle says {expected.overall}"))
                except ScriptError:
                    raise  # a fault of the script, not of the protocol
                except ScreeningError as err:
                    # its traceback, and that of the error it was raised
                    # from, hold this frame, which holds `replies`
                    err.__cause__ = err.__context__ = None
                    replies.append(err.with_traceback(None))
                    world.net.note(f"{qid} failed: {type(err).__name__}")
                    assertions.append(Assertion(
                        f"{qid}-matches-oracle", False,
                        f"query raised {type(err).__name__}: {err}"))
            else:
                raise ScriptError(f"unknown command {cmd!r}")
        except (ScriptError, IndexError, ValueError) as e:
            raise ScriptError(f"line {lineno}: {e}") from None

    assertions += secrecy_assertions(world)
    assertions += agreement_assertions(world)
    assertions.append(attribution_assertion(world))
    if not config.resumption:  # a resumed session reuses its slots
        assertions.append(key_slot_uniqueness_assertion(world))
    for a in assertions:
        a.expected = a.id not in violated
    assertions += [Assertion(i, True, "no such check was made", expected=False)
                   for i in sorted(set(violated) - {a.id for a in assertions})]
    outcome = ScenarioOutcome(name, assertions)
    return ScenarioResult(name, world, outcome, replies)


# --- honest scenarios ---------------------------------------------------------

def scenario_honest_basic(seed: int, variant: str = SCEP,
                          backend_name: str = "test") -> ScenarioResult:
    """One hazardous and one clean basic query through honest roles."""
    config = ScenarioConfig(scep_variant=variant, backend_name=backend_name)
    hazardous = DEFAULT_HAZARDS[0][0]
    script = "\n".join([
        f"query S {hazardous.hex()},{CLEAN_SEQUENCES[0].hex()}",
        "advance-clock 60",
        f"query S {CLEAN_SEQUENCES[1].hex()}",
    ])
    return run_scenario(config, script, seed, name=f"honest-basic-{variant}")


def scenario_honest_exemption(seed: int, variant: str = SCEP
                              ) -> ScenarioResult:
    """Exemption flow: the covered hazard is granted, the uncovered denied."""
    covered = DEFAULT_HAZARDS[0][0]
    uncovered = DEFAULT_HAZARDS[1][0]
    config = ScenarioConfig(scep_variant=variant,
                            elt_sequences=(covered, DEFAULT_HAZARDS[2][0]))
    script = "\n".join([
        f"query-exempt S {covered.hex()},{CLEAN_SEQUENCES[0].hex()} code=fresh",
        "advance-clock 60",
        f"query-exempt S {uncovered.hex()} code=fresh",
    ])
    return run_scenario(config, script, seed,
                        name=f"honest-exemption-{variant}")
