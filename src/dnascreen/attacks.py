"""Scripted attack scenarios and the corrupt-role strategies behind them.

A corrupt role keeps its legitimate credentials (it is a certified, possibly
compromised operator), exports its keys into the adversary's initial
knowledge, and follows the attack script instead of its state machine.
Every attack is a scenario script: the run's check pass judges it, the
attack names the checks it predicts to be violated, and its outcome token
is read off the run.
"""

from dataclasses import replace
from types import SimpleNamespace

from . import terms, wire
from .channel import channel_recv, channel_send, handshake_client
from .errors import (
    RateLimited,
    ResponseBindingMismatch,
    ScreeningError,
    ScriptError,
)
from .pki import CertChain
from .scep import (
    SCEP,
    SCEP_PLUS,
    Authenticated,
    decode_finish,
    decode_hello,
    decode_respond,
    encode_finish,
    encode_respond,
    mutauth_hash,
)
from .scenarios import (
    Assertion,
    CLEAN_SEQUENCES,
    DEFAULT_HAZARDS,
    ScenarioConfig,
    ScenarioResult,
    World,
    agreement_assertions,
    build_world,  # noqa: F401 (perfbench traces it here)
    key_slot_uniqueness_assertion,  # noqa: F401 (perfbench traces it here)
    run_scenario,
    scenario_honest_basic,
    scenario_honest_exemption,
    secrecy_assertions,  # noqa: F401 (perfbench traces it here)
)
from .screening import (
    HashedDbRole,
    KeyserverRole,
    QueryRequest,
    ServerConnection,
    ServerLink,
    TAG_KS_EVAL,
    open_reply,
    raise_error_record,
)

# perfbench/bench_trace.py wraps this name; the one agreement checker is
# scenarios.agreement_assertions.
_unmatched_authenticated_sessions = agreement_assertions


# --- corrupt-role strategies ----------------------------------------------------


class MitmKeyserver(KeyserverRole):
    """Keyserver that harvests its client's credentials and replays them.

    On the client's SCEP hello it opens its own session to the target server
    (the first other keyserver), replays the hello, forwards the target's
    cookie and nonce back inside its own (legitimately signed) challenge,
    harvests the client's signed finish, and presents it to the target. If
    the target accepts, it drains the client's query budget there. The
    client is then served normally and sees nothing unusual.
    """

    def __init__(self, honest: KeyserverRole, world: World):
        others = [n for n in world.keyserver_names if n != honest.name]
        if not others:
            raise ScriptError("the relay needs a target besides the corrupt "
                              "keyserver (n >= 2)")
        self.__dict__.update(honest.__dict__)
        self.channel_ca_key = world.channel_ca.verify_key
        self.target = others[0]
        self.step6_result: str | None = None
        self.drained = 0
        self.attack_cookie: bytes | None = None
        # the connection to the target, whose SCEP run is the victim's
        self.target_link: ServerLink | None = None

    def open_connection(self):
        return _MitmConnection(self)

    # steps [2] and [3]: replay the hello, collect the target's challenge
    def attack_open_target_session(self, hello):
        net = self.net
        conn = net.dial(self.name, self.target)
        session = handshake_client(conn.send, self.target,
                                   self.channel_ca_key,
                                   self.backend, self.rng)
        net.register_channel(self.name, session)
        # a relay: the client's hello goes out as the term it was sealed as
        respond = channel_recv(session, conn.send(channel_send(session, hello)))
        # a target that rejects the hello answers with an error record
        raise_error_record(wire.unpack_fields(respond))
        omega_w, r_w, _, _ = decode_respond(respond)
        self.target_link = ServerLink(conn, session)
        self.attack_cookie = omega_w
        return omega_w, r_w

    # step [6]: present the harvested signature
    def attack_present_finish(self, y: bytes):
        link = self.target_link
        result = link.conn.send(channel_send(
            link.channel, encode_finish(self.attack_cookie, y)))
        if result is None:
            self.step6_result = "Authenticated"
        else:
            try:
                open_reply(link.channel, result)
                self.step6_result = "UnexpectedReply"
            except ScreeningError as err:
                self.step6_result = type(err).__name__

    def attack_drain_budget(self):
        """Spend the victim's window budget at the target, greedily to zero."""
        if self.step6_result != "Authenticated":
            return
        g = self.backend.generator
        batch = 32
        for _ in range(200):
            if batch < 1:
                break
            elems = [g.exp(self.backend.scalar(j + 2)).encode()
                     for j in range(batch)]
            req = terms.cat(TAG_KS_EVAL,
                            terms.Atom("cookie", self.attack_cookie),
                            *map(terms.element_atom, elems))
            try:
                self.target_link.request(req)
                self.drained += batch
            except RateLimited:
                batch //= 2


class _MitmConnection(ServerConnection):
    def _scep_step(self, plaintext: bytes, term):
        role: MitmKeyserver = self.role
        if self.scep is None:
            # step [1]: the client volunteers its nonce and token chain
            r_s, client_chain = decode_hello(plaintext)
            omega_w, r_w = role.attack_open_target_session(term)
            # step [4]: answer the client with our own token but the
            # target's cookie and nonce, signed by our own token key
            cfg = role.scep_config
            sig = cfg.signing_key.sign(mutauth_hash(
                cfg.variant, b"server-mutauth", r_s, r_w, omega_w,
                client_chain.token.encode(), cfg.chain.token.encode()))
            self.scep = SimpleNamespace(omega=omega_w)
            self._client_chain = client_chain
            return channel_send(self.channel,
                                encode_respond(omega_w, r_w, cfg.chain, sig))
        # step [5]: the client's finish carries the critical signature y
        _omega_echo, y = decode_finish(plaintext)
        role.attack_present_finish(y)
        role.attack_drain_budget()
        # keep serving the client so it suspects nothing
        token = self._client_chain.token
        self.auth = Authenticated(sigma=token.sigma,
                                  rate_limit=token.payload.rate_limit,
                                  client_name=token.subject_id.name)
        return None


class LeakyHashedDb(HashedDbRole):
    """Functionally honest database operator that exfiltrates device codes."""

    def __init__(self, honest: HashedDbRole, world: World):
        self.__dict__.update(honest.__dict__)
        self.stolen: list[tuple[str, str, int]] = []
        self.replays: list[bool] = []  # whether the backend accepted each

    def _query(self, conn: ServerConnection, plaintext: bytes, term,
               fields_: list):
        query = QueryRequest.decode(plaintext)
        if query.exemption is not None:
            chain = CertChain.decode(query.exemption.chain_bytes)
            self.stolen.append((chain.token.payload.device_id,
                                query.exemption.auth_code, self.net.now()))
            self.net.note("corrupt database stored the device code")
        return super()._query(conn, plaintext, term, fields_)

    def replay_stolen_code(self):
        """Present the last captured (device, code) to the backend as ours."""
        if not self.stolen:
            raise ScriptError("no device code has been stolen yet")
        device_id, code, _ = self.stolen[-1]
        self.replays.append(self._auth_check(device_id, code, self.net.now()))


# Each strategy is a subclass of the one honest role class it can corrupt,
# built from that role and its world.
STRATEGIES = {"mitm": MitmKeyserver, "leaky": LeakyHashedDb}


def apply_corruption(world: World):
    """Replace every role named in ``config.corrupt`` by its strategy."""
    for name, strategy in world.config.corrupt.items():
        cls = STRATEGIES.get(strategy)
        if cls is None:
            raise ScriptError(f"unknown corruption strategy {strategy!r}")
        honest = world.net.roles.get(name)
        if type(honest) is not cls.__base__:
            raise ScriptError(f"strategy {strategy!r} corrupts a "
                              f"{cls.__base__.__name__}, not role {name!r}")
        role = cls(honest, world)
        world.net.register_role(role, corrupt=True)
        if name in world.keyservers:
            world.keyservers[name] = role
        else:
            world.hdb = role


# --- attack scenarios -----------------------------------------------------------


def _hex_order(order) -> str:
    return ",".join(s.hex() for s in order)


def attack_mitm_rate_limit(variant: str = SCEP, seed: int = 7,
                           base: ScenarioConfig | None = None
                           ) -> ScenarioResult:
    """The six-step rate-limit circumvention through a corrupt keyserver.

    Under SCEP the target authenticates the adversary as the honest
    synthesizer and the synthesizer's ledger entry absorbs the adversary's
    queries; under SCEP+ the harvested signature covers the corrupt server's
    token, so the final step fails verification.
    """
    config = replace(base or ScenarioConfig(), scep_variant=variant)
    order = [DEFAULT_HAZARDS[0][0], CLEAN_SEQUENCES[0]]
    script = f"corrupt K1 mitm\nquery S {_hex_order(order)}"
    # under SCEP the victim's query is denied, the relayed cookie leaks, and
    # the target K2 authenticated the relay, its first session, for no client
    violated = (("query-1-matches-oracle", "cookie-secrecy", "agreement:K2:0",
                 "rate-limit-attribution") if variant == SCEP else ())
    result = run_scenario(config, script, seed, f"mitm-rate-limit-{variant}",
                          violated)
    world, outcome = result.world, result.outcome
    mitm: MitmKeyserver = world.keyservers["K1"]
    if variant == SCEP:
        debited = world.keyservers[mitm.target].ledger.window_total(
            world.synth.chain.token.sigma, world.net.now())
        mu = config.rate_limit
        outcome.assertions += [
            Assertion("victim-ledger-debited-by-adversary",
                      mitm.drained > 0 and debited == mitm.drained,
                      f"adversary spent {mitm.drained} of mu={mu}; target "
                      f"ledger shows {debited} under the victim's sigma"),
            Assertion("victim-budget-exhausted-up-to-mu", debited == mu,
                      f"window total {debited} == mu {mu}"),
        ]
    outcome.token = ("ATTACK_SUCCEEDED" if outcome.violated("agreement:")
                     and outcome.violated("rate-limit-attribution")
                     else f"ATTACK_BLOCKED:{mitm.step6_result}")
    return result


def attack_response_swap(resumption: bool, binding: bool, seed: int = 11,
                         base: ScenarioConfig | None = None
                         ) -> ScenarioResult:
    """Cross-connection response replay against the hashed database.

    Connection one screens a clean order (grant); connection two, resumed
    over the same channel keys when resumption is on, screens a listed
    hazard. The adversary replaces the second response record with the
    captured first one. Outcomes: inverted verdict accepted (resumption on,
    binding off), detected (binding on), rejected by key/sequence mismatch
    (resumption off).
    """
    config = replace(base or ScenarioConfig(), resumption=resumption,
                     bind_responses=binding)
    # response records live at (s2c, seq 1) on the S->H link
    script = "\n".join([
        "swap S->H:s2c:0:r1 S->H:s2c:1:r1",
        f"query S {CLEAN_SEQUENCES[0].hex()}",
        "resume-next S",
        f"query S {DEFAULT_HAZARDS[0][0].hex()}",
    ])
    name = (f"response-swap-resumption-{'on' if resumption else 'off'}"
            f"-binding-{'on' if binding else 'off'}")
    result = run_scenario(config, script, seed, name,
                          violated=("query-2-matches-oracle",))
    second = result.replies[1]
    if isinstance(second, ResponseBindingMismatch):
        token = "SWAP_DETECTED"
    elif isinstance(second, ScreeningError):
        token = "SWAP_REJECTED"
    elif result.outcome.violated("query-2-matches-oracle"):
        token = "VERDICT_INVERTED"
    else:
        token = "VERDICT_KEPT"  # the swap changed nothing the oracle sees
    result.outcome.token = token
    return result


def attack_passcode_replay(seed: int = 13,
                           base: ScenarioConfig | None = None
                           ) -> ScenarioResult:
    """A corrupt database reuses a customer's one-time code as its own.

    The code is accepted by the honest backend inside the same 30-second
    window and rejected in the next one; the customer's own flow grants as
    usual.
    """
    base = base or ScenarioConfig()
    covered = base.hazards[0][0]
    config = replace(base, elt_sequences=(covered,))
    script = "\n".join([
        "corrupt H leaky",
        f"query-exempt S {_hex_order([covered, CLEAN_SEQUENCES[0]])} "
        "code=fresh",
        "replay-code H",
        "advance-clock 30",
        "replay-code H",
    ])
    result = run_scenario(config, script, seed, "passcode-replay")
    same_window, next_window = result.world.hdb.replays
    result.outcome.assertions += [
        Assertion("stolen-code-accepted-within-window", same_window,
                  "backend accepted the replayed code"),
        Assertion("stolen-code-rejected-next-window", not next_window,
                  "backend rejected the stale window"),
    ]
    result.outcome.token = ("REPLAY_ACCEPTED" if same_window
                            else "REPLAY_REJECTED")
    return result


def attack_token_collision_dos(forced: bool = True, seed: int = 17,
                               base: ScenarioConfig | None = None
                               ) -> ScenarioResult:
    """Identifier collision merges two tokens' ledger entries.

    The adversary synthesizer S2 mints its own valid token whose identifier
    collides with the honest one (the issuing rng is forced), burns the
    shared window budget, and the honest synthesizer's next query is denied.
    With distinct identifiers the budgets stay independent.
    """
    config = base or ScenarioConfig()
    if config.rate_limit > 5000:
        raise ScriptError("budget exhaustion is a desk-scale demonstration; "
                          "use --rate-limit <= 5000")
    order = [CLEAN_SEQUENCES[0], CLEAN_SEQUENCES[1]]
    # S2 spends the (possibly shared) window budget down to exactly mu: the
    # adversary knows mu from its own token
    spend = config.rate_limit - len(order)
    burn = []
    for done in range(0, spend, 12):
        n = min(12, spend - done)
        seqs = [CLEAN_SEQUENCES[2][:6 + i] for i in range(n)]
        burn += [f"query S2 {_hex_order(seqs)}", "advance-clock 1"]
    script = "\n".join([
        f"add-synth S2{' forced' if forced else ''}",
        f"query S {_hex_order(order)}",
        *burn,
        f"query S {CLEAN_SEQUENCES[0].hex()}",
    ])
    victim = f"query-{len(burn) // 2 + 2}-matches-oracle"
    violated = (victim, "rate-limit-attribution") if forced else ()
    name = f"token-collision-{'forced' if forced else 'distinct'}"
    result = run_scenario(config, script, seed, name, violated)
    result.outcome.token = (
        "BUDGET_MERGED" if result.outcome.violated("rate-limit-attribution")
        else "INDEPENDENT_BUDGETS")
    return result


# --- the shipped scenario registry ------------------------------------------------

def all_scenarios() -> dict:
    """Every shipped scenario, keyed by name; each takes only a seed."""
    return {
        "honest-basic-scep": lambda seed: scenario_honest_basic(seed, SCEP),
        "honest-basic-scep-plus":
            lambda seed: scenario_honest_basic(seed, SCEP_PLUS),
        "honest-exemption-scep":
            lambda seed: scenario_honest_exemption(seed, SCEP),
        "honest-exemption-scep-plus":
            lambda seed: scenario_honest_exemption(seed, SCEP_PLUS),
        "mitm-scep": lambda seed: attack_mitm_rate_limit(SCEP, seed),
        "mitm-scep-plus": lambda seed: attack_mitm_rate_limit(SCEP_PLUS, seed),
        "swap-on-off": lambda seed: attack_response_swap(True, False, seed),
        "swap-on-on": lambda seed: attack_response_swap(True, True, seed),
        "swap-off-off": lambda seed: attack_response_swap(False, False, seed),
        "passcode-replay": lambda seed: attack_passcode_replay(seed),
        "collision-forced":
            lambda seed: attack_token_collision_dos(True, seed),
        "collision-distinct":
            lambda seed: attack_token_collision_dos(False, seed),
    }
